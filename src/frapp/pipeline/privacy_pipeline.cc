#include "frapp/pipeline/privacy_pipeline.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "frapp/common/clock.h"
#include "frapp/common/parallel.h"
#include "frapp/data/pattern_count_source.h"
#include "frapp/data/sharded_boolean_vertical_index.h"
#include "frapp/mining/count_source.h"
#include "frapp/mining/sharded_vertical_index.h"
#include "frapp/mining/vertical_index.h"
#include "frapp/pipeline/prefetching_table_source.h"

namespace frapp {
namespace pipeline {

namespace {

/// Raises `peak` to at least `value` (relaxed CAS loop).
void RaiseToAtLeast(std::atomic<size_t>& peak, size_t value) {
  size_t observed = peak.load(std::memory_order_relaxed);
  while (observed < value &&
         !peak.compare_exchange_weak(observed, value,
                                     std::memory_order_relaxed)) {
  }
}

}  // namespace

StatusOr<PipelineResult> PrivacyPipeline::Run(
    core::Mechanism& mechanism, const data::CategoricalTable& original) const {
  InMemoryTableSource source(original, options_.num_shards);
  return Run(mechanism, source);
}

StatusOr<PipelineResult> PrivacyPipeline::Run(core::Mechanism& mechanism,
                                              TableSource& source) const {
  // One-way enable, applied before any pool worker spawns for this run; see
  // the PipelineOptions::pin_threads doc for the stickiness caveat.
  if (options_.pin_threads) {
    common::ThreadPool::Shared().SetPinPhysicalCores(true);
  }
  if (options_.prefetch_source) {
    // Wrap the caller's source in the parser-thread decorator for the
    // duration of this run. Order is preserved, so the result is
    // bit-identical to the unprefetched pull — only the parse/compute
    // overlap (and the stats describing it) change.
    PrefetchingTableSource prefetched(source, options_.prefetch_shards,
                                      options_.prefetch_parsers);
    PipelineOptions inner_options = options_;
    inner_options.prefetch_source = false;
    FRAPP_ASSIGN_OR_RETURN(
        PipelineResult result,
        PrivacyPipeline(inner_options).Run(mechanism, prefetched));
    result.stats.producer_parse_nanos =
        prefetched.producer_stats().parse_nanos;
    return result;
  }
  PipelineResult result;
  const bool boolean_shards =
      mechanism.shard_kind() == core::Mechanism::ShardKind::kBoolean;
  const size_t bytes_per_row = boolean_shards
                                   ? sizeof(uint64_t)
                                   : source.schema().num_attributes();

  // Stream the source in batches of up to `batch` shards: shards are pulled
  // sequentially (sources are single-threaded parsers/generators), then each
  // batch fans perturb + index out over the workers. A task perturbs its
  // shard, transposes it into a local vertical index, and drops both the
  // perturbed rows and (for streaming sources) the input buffer before
  // returning, so at most one batch of rows is ever alive at once. Every
  // task is a pure function of its shard's global position (global
  // seeded-chunk RNG streams) and counts merge as integer sums, so the
  // result is bit-identical for any source kind, shard count and thread
  // count.
  std::vector<mining::VerticalIndex> cat_indexes;
  std::vector<data::BooleanVerticalIndex> bool_indexes;
  std::atomic<size_t> inflight_bytes{0};
  std::atomic<size_t> peak_bytes{0};
  const size_t batch = std::max<size_t>(
      1, common::ResolveThreadCount(options_.num_threads));
  std::vector<PulledShard> pending;
  pending.reserve(batch);
  bool exhausted = false;
  while (!exhausted) {
    pending.clear();
    while (pending.size() < batch) {
      PulledShard shard;
      const uint64_t pull_start = common::NowNanos();
      StatusOr<bool> more = source.NextShard(&shard);
      result.stats.source_wait_nanos += common::NowNanos() - pull_start;
      FRAPP_RETURN_IF_ERROR(more.status());
      if (!*more) {
        exhausted = true;
        break;
      }
      if (shard.view.size() == 0) continue;
      pending.push_back(std::move(shard));
    }
    if (pending.empty()) break;

    const size_t base = boolean_shards ? bool_indexes.size() : cat_indexes.size();
    if (boolean_shards) {
      bool_indexes.resize(base + pending.size());
    } else {
      cat_indexes.resize(base + pending.size());
    }
    std::vector<Status> statuses(pending.size());
    // With several shards in the batch the outer dispatch occupies the
    // pool's single job slot, so nested parallel calls would run inline
    // anyway — give shard tasks one thread. A one-shard batch runs inline at
    // the outer level instead, so the full thread budget flows into the
    // shard's own chunk-parallel perturbation and index build.
    const size_t inner_threads =
        pending.size() == 1 ? options_.num_threads : 1;
    common::ParallelForChunks(
        pending.size(), options_.num_threads, [&](size_t i) {
          PulledShard& shard = pending[i];
          const size_t shard_bytes = shard.view.size() * bytes_per_row;
          if (boolean_shards) {
            StatusOr<data::BooleanTable> perturbed = mechanism.PerturbBooleanShard(
                shard.view, options_.perturb_seed, inner_threads);
            shard.owned.reset();  // source buffer dropped once perturbed
            if (!perturbed.ok()) {
              statuses[i] = perturbed.status();
              return;
            }
            RaiseToAtLeast(peak_bytes,
                           inflight_bytes.fetch_add(shard_bytes,
                                                    std::memory_order_relaxed) +
                               shard_bytes);
            bool_indexes[base + i] = data::BooleanVerticalIndex(*perturbed);
          } else {
            StatusOr<data::CategoricalTable> perturbed = mechanism.PerturbShard(
                shard.view, options_.perturb_seed, inner_threads);
            shard.owned.reset();
            if (!perturbed.ok()) {
              statuses[i] = perturbed.status();
              return;
            }
            RaiseToAtLeast(peak_bytes,
                           inflight_bytes.fetch_add(shard_bytes,
                                                    std::memory_order_relaxed) +
                               shard_bytes);
            cat_indexes[base + i] =
                mining::VerticalIndex::Build(*perturbed, inner_threads);
          }  // the perturbed shard rows are dropped here
          inflight_bytes.fetch_sub(shard_bytes, std::memory_order_relaxed);
        });
    for (size_t i = 0; i < pending.size(); ++i) {
      FRAPP_RETURN_IF_ERROR(statuses[i]);
      result.stats.max_shard_rows =
          std::max(result.stats.max_shard_rows, pending[i].view.size());
      result.stats.total_rows += pending[i].view.size();
      ++result.stats.num_shards;
    }
  }

  std::unique_ptr<mining::SupportEstimator> estimator;
  if (boolean_shards) {
    FRAPP_ASSIGN_OR_RETURN(
        estimator, mechanism.MakeBooleanCountSourceEstimator(
                       std::make_shared<data::LocalPatternCountSource>(
                           data::ShardedBooleanVerticalIndex::FromShards(
                               std::move(bool_indexes)),
                           options_.num_threads)));
  } else {
    FRAPP_ASSIGN_OR_RETURN(
        estimator, mechanism.MakeCountSourceEstimator(
                       std::make_shared<mining::LocalSupportCountSource>(
                           mining::ShardedVerticalIndex::FromShards(
                               std::move(cat_indexes)),
                           options_.num_threads)));
  }
  FRAPP_ASSIGN_OR_RETURN(
      result.mined, mining::MineFrequentItemsets(source.schema(), *estimator,
                                                 options_.mining));
  result.stats.peak_inflight_perturbed_bytes =
      peak_bytes.load(std::memory_order_relaxed);
  return result;
}

}  // namespace pipeline
}  // namespace frapp
