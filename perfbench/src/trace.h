// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each library layer (name, start, end, parent span, op id,
// thread). They stay in memory until the run ends, when they are reduced to
// per-layer self times (a span's duration minus what its direct child spans
// cover) and written as Chrome trace-event JSON that Perfetto loads.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class Stage : uint8_t {
  kOp,              // one benchmark operation (root of its spans)
  kDataOpen,        // opening a TableSource
  kDataRead,        // TableSource::NextShard
  kMakeMechanism,   // dist::MakeMechanism
  kPerturb,         // Mechanism::PerturbShard / PerturbBooleanShard
  kIndex,           // VerticalIndex::Build / BooleanVerticalIndex
  kAssemble,        // merging shard indexes / building an estimator
  kEstimate,        // SupportEstimator::EstimateSupports (self = reconstruct)
  kCount,           // count-source call (support or pattern counts)
  kWalk,            // MineFrequentItemsets (self = candidate walk)
  kCsvParse,        // data::ReadCsv
  kBinAppend,       // data::AppendBinaryTable
  kStoreLoad,       // store::LoadOrCreateStore
  kStoreRemine,     // store::AppendAndMine
  kStoreSave,       // CountStore::SaveToFile
  kDistConnect,     // dialing workers + Coordinator::Connect
  kDistSend,        // Transport::Send to a worker
  kDistRecv,        // Transport::Receive from a worker
  kDistShutdown,    // Coordinator::Shutdown
  kServeQuery,      // QueryClient::Query round trip
  kNumStages,
};

const char* StageName(Stage stage);

struct Span {
  Stage stage = Stage::kOp;
  int8_t mech = -1;     // index into kMechKeys, -1 = none
  uint8_t level = 0;    // Apriori level (itemset length), 0 = none
  uint32_t tid = 0;
  int64_t parent = -1;  // index of the enclosing span on the same thread
  uint64_t op = 0;      // 1-based op id, 0 = outside any op
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t items = 0;   // stage-specific count (candidates, bytes, ...)
  uint8_t outcome = 0;  // serve: QueryResponse.outcome of the query
};

class Tracer {
 public:
  /// Spans beyond this many are dropped (and counted) to bound memory.
  static constexpr size_t kMaxSpans = 400000;

  Tracer();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id (-1 when disabled
  /// or full). The parent is the innermost open span of this thread; the
  /// op id and mechanism come from the thread's current op, or from the
  /// process-wide current op on threads that have none (pool threads). A
  /// `detached` span has no parent and is never one: it marks work that
  /// overlaps its caller (a helper's wait) rather than a part of it.
  int64_t Begin(Stage stage, size_t level = 0, uint64_t items = 0,
                bool detached = false);
  void End(int64_t id);
  void SetOutcome(int64_t id, uint8_t outcome);

  /// Marks the calling thread as working on op `op` for mechanism `mech`;
  /// also published process-wide for helper threads.
  void EnterOp(uint64_t op, int mech);
  void LeaveOp();

  std::vector<Span> Snapshot() const;
  size_t dropped() const { return dropped_; }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  size_t dropped_ = 0;
  uint64_t origin_ns_ = 0;
  std::atomic<uint64_t> global_op_{0};
  std::atomic<int> global_mech_{-1};
};

/// The run's tracer (disabled unless the traced phase turns it on).
Tracer& GlobalTracer();

/// RAII span on GlobalTracer().
class ScopedSpan {
 public:
  explicit ScopedSpan(Stage stage, size_t level = 0, uint64_t items = 0)
      : id_(GlobalTracer().Begin(stage, level, items)) {}
  ~ScopedSpan() { GlobalTracer().End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

/// RAII op: sets the thread's op id and mechanism and opens its kOp span.
class ScopedOp {
 public:
  ScopedOp(uint64_t op, int mech) {
    GlobalTracer().EnterOp(op, mech);
    id_ = GlobalTracer().Begin(Stage::kOp);
  }
  ~ScopedOp() {
    GlobalTracer().End(id_);
    GlobalTracer().LeaveOp();
  }
  ScopedOp(const ScopedOp&) = delete;
  ScopedOp& operator=(const ScopedOp&) = delete;

 private:
  int64_t id_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
