// Shared pieces of the end-to-end benchmark runner: run arguments, the
// per-run report, result fingerprints, accuracy accounting, child processes
// and the per-run working directory. Each workload lives in its own file and
// fills one Report; main.cc turns it into the JSON line the benchmark prints.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "frapp/common/statusor.h"
#include "frapp/dist/mechanism_spec.h"
#include "frapp/mining/apriori.h"
#include "frapp/mining/rules.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "trace.h"

namespace perfbench {

using frapp::Status;
using frapp::StatusOr;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string cli;        // path of the frapp_cli binary (children)
  std::string work_root;  // per-run scratch directory (removed at exit)
  std::string trace_out;  // Chrome trace-event JSON written by traced runs
};

/// One slice of the timed window: a round of the workload's problems, a
/// fixed number of ops, or a fixed stretch of time. Latencies hold one
/// entry per attempted op; a failed op is recorded as kFailedLatencyMs, so
/// it misses every latency limit.
struct Slice {
  double seconds = 0;
  uint64_t succeeded = 0;
  std::vector<double> latencies_ms;
};

/// What one workload run measured. The end-to-end timing metrics are
/// medians over slices (of each slice's throughput, p50 and p90): host
/// interference on a shared machine comes in episodes of seconds, and a
/// median over slices does not move with one disturbed episode.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<Slice> slices;
  /// Latency percentiles over all ops of the window instead of the median
  /// of per-slice percentiles (for many short ops spread over every CPU,
  /// where one slice holds too few samples near the tail).
  bool pool_latencies = false;
  double window_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  double support_error_pct = 0;
  double false_pos_pct = 0;
  double false_neg_pct = 0;
  /// Per-layer metrics of the traced run (name -> value), filled only when
  /// Args::trace is set.
  std::map<std::string, double> layer;
};

/// Latency recorded for a failed op: it misses every latency limit.
inline constexpr double kFailedLatencyMs = 1e9;

/// Monotonic clock in nanoseconds / seconds.
inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double NowS() { return static_cast<double>(NowNs()) * 1e-9; }

/// SplitMix64 of (seed, salt): every input, perturbation seed and query
/// stream of a run is derived from the workload seed through this.
uint64_t Derive(uint64_t seed, uint64_t salt);

/// The five mechanisms at the CLI defaults (gamma 19; C&P K = 3,
/// rho = 0.494). RAN-GD takes the paper's spread alpha = gamma * x / 2 —
/// the one parameter a user must choose for it (the CLI default 0 would
/// make it DET-GD).
std::vector<frapp::dist::MechanismSpec> AllMechanisms(
    const frapp::data::CategoricalSchema& schema);
/// Short lower-case name used in metric names ("det-gd", "cp", ...).
std::string MechKey(const frapp::dist::MechanismSpec& spec);
extern const char* const kMechKeys[5];

/// Exact comparison: same itemsets per length and bit-identical supports.
bool SameResult(const frapp::mining::AprioriResult& a,
                const frapp::mining::AprioriResult& b);

/// Order-sensitive 64-bit fingerprints of answers (itemsets with the bits
/// of their supports; rules with both doubles).
uint64_t Fingerprint(const frapp::mining::AprioriResult& result);
uint64_t Fingerprint(const std::vector<frapp::mining::FrequentItemset>& top);
uint64_t Fingerprint(const std::vector<frapp::mining::AssociationRule>& rules);

/// Accumulates the paper's accuracy metrics (rho, sigma+, sigma-) over
/// several (truth, mined) pairs; Mean* average the per-pair overall rows.
/// Trivially copyable: set-up run in a child process (RunInChild) hands it
/// back as raw bytes.
class AccuracyMean {
 public:
  void Add(const frapp::mining::AprioriResult& truth,
           const frapp::mining::AprioriResult& mined);
  void Fill(Report* report) const;

 private:
  double rho_ = 0, fp_ = 0, fn_ = 0;
  size_t rho_n_ = 0, n_ = 0;
};
static_assert(std::is_trivially_copyable_v<AccuracyMean>);

/// A `frapp_cli` child process. Its stdout/stderr go to files in the run
/// directory (a pipe nobody drains would stall it). The child is killed
/// with SIGKILL if the runner dies (PR_SET_PDEATHSIG), and the destructor
/// drains it with SIGTERM (SIGKILL after a grace period) and reaps it.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Starts `argv` and waits until its stdout shows "listening on
  /// HOST:PORT"; returns the port.
  static StatusOr<std::unique_ptr<Child>> StartListening(
      const std::vector<std::string>& argv, const std::string& log_prefix);

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, wait up to 10 s, then SIGKILL; always reaps. Returns false
  /// when the child had to be killed or exited non-zero.
  bool Stop();

 private:
  pid_t pid_ = -1;
  uint16_t port_ = 0;
};

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
double PeakRssMb(pid_t pid);
/// Restarts a process's VmHWM from its current RSS (Linux clear_refs "5"),
/// so a peak read at the end covers the timed window, not set-up. For the
/// calling process, free heap memory is first returned to the kernel
/// (malloc_trim), so the restart point does not count it.
void ResetPeakRss(pid_t pid);

/// Creates (and on destruction removes) a scratch directory.
class ScratchDir {
 public:
  explicit ScratchDir(std::string path);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Runs `setup(rep)` kReps times, keeping only the last state (earlier
/// states are torn down before the next repetition starts), and stores the
/// median wall time in report->setup_s. Set-up is repeated so that its
/// median, not one noisy sample, is what a later change is compared on.
inline constexpr int kSetupReps = 3;
double Median(std::vector<double> values);
template <typename State>
std::unique_ptr<State> SetUpRepeatedly(
    const std::function<std::unique_ptr<State>(int rep)>& setup,
    Report* report) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    state.reset();
    const double start = NowS();
    state = setup(rep);
    times.push_back(NowS() - start);
    if (state == nullptr) return nullptr;
  }
  report->setup_s = Median(times);
  return state;
}

/// Moves the calling thread to the `turn`-th CPU of the process's allowed
/// set (round robin). A one-caller loop calls it before each op so a run
/// samples every CPU equally: on a shared host each virtual CPU slows down
/// in episodes of several seconds, independently of the others, and a loop
/// left on one CPU would ride that CPU's luck for the whole run.
void RotateCpu(size_t turn);
/// Gives the calling thread back every allowed CPU (threads it starts
/// afterwards inherit its affinity).
void UnpinCpu();

/// Runs fn(i) for i in [0, n) on up to `threads` std::threads (set-up
/// only; each call must be independent).
void ParallelSetup(size_t n, size_t threads,
                   const std::function<void(size_t)>& fn);

/// Runs `fn` in a forked child process and returns the bytes it returned
/// (set-up only, with no other thread running; Fatal when the child
/// fails). Set-up that allocates heavily runs there, so the runner's heap
/// afterwards holds only what the timed window uses and its peak RSS
/// measures the window, not memory the allocator kept back from set-up
/// (malloc_trim cannot return what thread arenas hold).
std::string RunInChild(const std::function<std::string()>& fn);

/// Aborts the run with a message (set-up failures: no result is printed).
[[noreturn]] void Fatal(const std::string& what);
template <typename T>
T Must(StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Fatal(what + ": " + v.status().ToString());
  return *std::move(v);
}
inline void MustOk(const Status& s, const std::string& what) {
  if (!s.ok()) Fatal(what + ": " + s.ToString());
}

/// Sets every per-layer metric to 0 (a layer the workload bypasses reports
/// 0), so each traced run prints the complete list.
void ZeroLayerMetrics(Report* report);

/// Fills the per-layer metrics derived from spans that every workload
/// shares (per-op self times per stage and mechanism, per-level counts,
/// stage coverage, tracing overhead). `frequent` holds per-level frequent
/// itemset totals over the traced ops. `count_stage` is the span whose self
/// time is reported as counting (kEstimate when the count source is out of
/// reach, as behind the dist coordinator).
struct TracedPhase {
  double untraced_s = 0;
  uint64_t untraced_ops = 0;
  double traced_s = 0;
  uint64_t traced_ops = 0;
};
void FillSpanMetrics(const Tracer& tracer, const TracedPhase& phase,
                     const std::map<size_t, double>& frequent,
                     Report* report, Stage count_stage = Stage::kCount);

/// PrivacyPipeline::Run's ingest half at one thread, call by call: pulls
/// every shard of `source`, perturbs and indexes it, and returns the
/// mechanism's estimator over a count source of the merged indexes. Each
/// call is wrapped in a span (a no-op while tracing is off), and the count
/// source and estimator calls go through timing decorators.
StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>> IngestAndAssemble(
    frapp::core::Mechanism& mechanism, frapp::pipeline::TableSource& source,
    const frapp::pipeline::PipelineOptions& options);

/// The reference placement: mines `spec` at perturbation seed `seed` over
/// an in-memory table in one shard — one ingest, then one walk per supmin.
std::vector<frapp::mining::AprioriResult> MineInProcess(
    const frapp::data::CategoricalTable& table,
    const frapp::dist::MechanismSpec& spec, uint64_t seed,
    const std::vector<double>& supmins);

Report RunMineBin(const Args& args);
Report RunAppendWindow(const Args& args);
Report RunDistTcp(const Args& args);
Report RunServeZipf(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
