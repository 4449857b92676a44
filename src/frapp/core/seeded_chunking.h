// Shared machinery for deterministic seeded bulk perturbation.
//
// Every scheme's PerturbShardSeeded splits rows into fixed-size chunks whose
// RNG stream is a pure function of (master seed, global chunk index). The
// chunk size and the stream derivation ARE the determinism contract — one
// definition here so the perturbers can never drift apart.

#ifndef FRAPP_CORE_SEEDED_CHUNKING_H_
#define FRAPP_CORE_SEEDED_CHUNKING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "frapp/common/parallel.h"
#include "frapp/common/status.h"
#include "frapp/data/sharded_table.h"
#include "frapp/data/table.h"
#include "frapp/random/rng.h"

namespace frapp {
namespace core {
namespace internal {

/// Fixed chunk size for seeded perturbation: chunk boundaries (and the RNG
/// stream of each chunk) depend only on the row count and master seed, never
/// on the thread count, which makes the output thread-count-invariant.
/// Aliases the shard alignment quantum so that chunk-aligned shards (see
/// data/sharded_table.h) perturb bit-identically to the monolithic pass.
inline constexpr size_t kPerturbChunkRows = data::kShardAlignmentRows;

/// Validates a streaming shard view against the seeded-chunk contract: the
/// local range must lie within its buffer table and the GLOBAL position must
/// start on a chunk boundary. The view's size need not be a chunk multiple —
/// a stream's final shard may end mid-chunk — but every non-final shard must
/// be one for its successor to land back on the chunk grid (only the
/// producing TableSource can know which shard is last, so that half of the
/// contract is the producer's to uphold).
inline Status ValidateShardView(const data::ShardView& view) {
  if (view.rows == nullptr) return Status::InvalidArgument("null shard view");
  if (view.local.begin > view.local.end ||
      view.local.end > view.rows->num_rows()) {
    return Status::OutOfRange("shard view exceeds its buffer table");
  }
  if (view.global_begin % kPerturbChunkRows != 0) {
    return Status::InvalidArgument(
        "shard view does not start on a seeded chunk boundary");
  }
  return Status::OK();
}

/// Independent per-chunk generator: distinct PCG streams, seed mixed with
/// the chunk index so neighbouring chunks share nothing.
inline random::Pcg64 ChunkRng(uint64_t seed, size_t chunk) {
  return random::Pcg64(seed ^ (0x9e3779b97f4a7c15ULL * (chunk + 1)),
                       /*stream=*/2 * chunk + 1);
}

/// The one seeded-chunk dispatch loop every bulk perturber runs: splits
/// `num_rows` local rows into the global chunk grid anchored at
/// `global_begin` (a chunk-boundary multiple) and calls
/// fn(local_begin, local_end, rng) per chunk with that chunk's OWN stream —
/// ChunkRng(seed, global chunk index) — on up to `num_threads` workers.
/// This loop IS the determinism contract (chunk boundaries and streams are
/// pure functions of the global grid, never of the thread count); keeping
/// it here, defined once, is what guarantees the perturbers can never
/// disagree on it.
template <typename Fn>
void ForEachSeededChunk(size_t num_rows, size_t global_begin, uint64_t seed,
                        size_t num_threads, Fn&& fn) {
  const size_t first_chunk = global_begin / kPerturbChunkRows;
  common::ParallelForChunks(
      common::NumChunks(num_rows, kPerturbChunkRows), num_threads,
      [&](size_t c) {
        random::Pcg64 rng = ChunkRng(seed, first_chunk + c);
        const size_t begin = c * kPerturbChunkRows;
        const size_t end = std::min(num_rows, begin + kPerturbChunkRows);
        fn(begin, end, rng);
      });
}

/// Gathers the raw column pointers of both tables once per bulk call.
/// `in_row_offset` shifts the input pointers so that a shard output table
/// (local row i) reads from input row `in_row_offset + i`.
struct ColumnPointers {
  std::vector<const uint8_t*> in;
  std::vector<uint8_t*> out;

  ColumnPointers(const data::CategoricalTable& input,
                 data::CategoricalTable* output, size_t in_row_offset = 0) {
    const size_t m = input.num_attributes();
    in.resize(m);
    out.resize(m);
    for (size_t j = 0; j < m; ++j) {
      in[j] = input.Column(j).data() + in_row_offset;
      out[j] = output->MutableColumnData(j);
    }
  }
};

}  // namespace internal
}  // namespace core
}  // namespace frapp

#endif  // FRAPP_CORE_SEEDED_CHUNKING_H_
