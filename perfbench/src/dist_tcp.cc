// dist-tcp: a coordinator in the runner mines the CENSUS 500k FRAPPBIN
// through two `frapp_cli worker` child processes over loopback TCP, the way
// `frapp mine --workers A,B --rows N` does (CLI dial, deadline and retry
// defaults). Each op is Connect -> Mine -> Shutdown, cycling the five
// mechanisms x supmin {0.02, 0.05, 0.10} at four perturbation seeds. The
// workers' index caches are warm after set-up, so round trips, merge and
// counting dominate and perturbation is absent: a wire change shows here
// and not on mine-bin.
//
// Reference: the same problem mined at set-up in process over the
// in-memory table (one ingest per mechanism and seed, one walk per
// supmin); every op must match it bit for bit. Accuracy:
// those references against MineExact at each supmin.

#include <unistd.h>

#include <optional>

#include "bench.h"
#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/dist/coordinator.h"
#include "timed.h"

namespace perfbench {

namespace {

using frapp::mining::AprioriResult;

constexpr size_t kRows = 500000;
constexpr size_t kWorkers = 2;
constexpr double kMinSupports[] = {0.02, 0.05, 0.10};
// Perturbation seeds. A round mines the fifteen (mechanism, supmin) pairs
// at one seed; rounds rotate the seeds, so a run's figures average over
// seeds instead of riding on one seed's candidate counts.
constexpr size_t kSeeds = 4;
constexpr size_t kRound = 5 * std::size(kMinSupports);

struct Combo {
  frapp::dist::MechanismSpec spec;
  uint64_t perturb_seed = 0;
  double min_support = 0;
  AprioriResult reference;
};

struct State {
  std::unique_ptr<ScratchDir> dir;
  frapp::data::CategoricalSchema schema = frapp::data::census::Schema();
  std::vector<Combo> combos;
  std::vector<std::unique_ptr<Child>> workers;
  AccuracyMean accuracy;
  bool warmup_ok = true;
};

struct OpStats {
  uint64_t round_trips = 0, bytes_out = 0, bytes_in = 0, merge_ns = 0;
  uint64_t workers_failed = 0, retries = 0;
};

frapp::dist::RetryOptions CliRetry() {
  frapp::dist::RetryOptions retry;
  retry.max_attempts = 3;
  retry.request_deadline_ms = 30000;
  return retry;
}

StatusOr<AprioriResult> RunOp(const State& s, const Combo& combo, bool traced,
                              OpStats* stats) {
  std::unique_ptr<frapp::dist::Coordinator> coordinator;
  {
    ScopedSpan span(Stage::kDistConnect);
    frapp::dist::DialOptions dial;
    dial.connect_timeout_ms = 5000;
    dial.retry = CliRetry();
    dial.retry.max_attempts = 25;
    dial.retry.base_backoff_ms = 50;
    dial.retry.max_backoff_ms = 1000;
    std::vector<std::unique_ptr<frapp::dist::Transport>> transports;
    for (const std::unique_ptr<Child>& worker : s.workers) {
      FRAPP_ASSIGN_OR_RETURN(
          std::unique_ptr<frapp::dist::Transport> transport,
          frapp::dist::TcpDial("127.0.0.1", worker->port(), dial));
      if (traced) transport = std::make_unique<TimedTransport>(std::move(transport));
      transports.push_back(std::move(transport));
    }
    frapp::dist::CoordinatorOptions options;
    options.perturb_seed = combo.perturb_seed;
    options.retry = CliRetry();
    FRAPP_ASSIGN_OR_RETURN(
        coordinator,
        frapp::dist::Coordinator::Connect(std::move(transports), s.schema,
                                          combo.spec, kRows, options));
  }
  frapp::mining::AprioriOptions mining;
  mining.min_support = combo.min_support;
  StatusOr<AprioriResult> result = Status::Internal("unset");
  if (traced) {
    std::unique_ptr<frapp::dist::DistributedSupportEstimator> estimator;
    {
      ScopedSpan span(Stage::kAssemble);
      FRAPP_ASSIGN_OR_RETURN(estimator, coordinator->MakeEstimator());
    }
    TimedEstimator timed(estimator.get());
    ScopedSpan span(Stage::kWalk);
    result = frapp::mining::MineFrequentItemsets(s.schema, timed, mining);
  } else {
    result = coordinator->Mine(mining);
  }
  const frapp::dist::DistStats st = coordinator->stats();
  stats->round_trips += st.requests_sent;
  stats->bytes_out += st.bytes_sent;
  stats->bytes_in += st.bytes_received;
  stats->merge_ns += st.merge_nanos;
  stats->workers_failed += st.workers_failed;
  stats->retries += st.deadline_retries + st.rounds_restarted;
  {
    ScopedSpan span(Stage::kDistShutdown);
    coordinator->Shutdown();
  }
  return result;
}

std::unique_ptr<State> SetUp(const Args& args, int rep) {
  auto s = std::make_unique<State>();
  s->dir = std::make_unique<ScratchDir>(args.work_root + "/dist-tcp-" +
                                        std::to_string(rep));
  const frapp::data::CategoricalTable table = Must(
      frapp::data::census::MakeDataset(kRows, Derive(args.seed, 21)), "generate");
  const std::string bin = s->dir->File("census.bin");
  MustOk(frapp::data::WriteBinaryTable(table, bin), "write bin");
  for (size_t k = 0; k < kSeeds; ++k) {
    for (const frapp::dist::MechanismSpec& spec : AllMechanisms(s->schema)) {
      for (double min_support : kMinSupports) {
        Combo combo;
        combo.spec = spec;
        combo.perturb_seed = Derive(args.seed, 300 + k);
        combo.min_support = min_support;
        s->combos.push_back(std::move(combo));
      }
    }
  }
  const std::vector<double> supmins(std::begin(kMinSupports),
                                    std::end(kMinSupports));
  std::vector<AprioriResult> exact(supmins.size());
  const size_t problems = s->combos.size() / supmins.size();
  ParallelSetup(problems + supmins.size(), 4, [&](size_t p) {
    if (p >= problems) {
      frapp::mining::AprioriOptions options;
      options.min_support = supmins[p - problems];
      exact[p - problems] = Must(frapp::mining::MineExact(table, options), "exact");
      return;
    }
    Combo& first = s->combos[p * supmins.size()];
    std::vector<AprioriResult> mined =
        MineInProcess(table, first.spec, first.perturb_seed, supmins);
    for (size_t i = 0; i < supmins.size(); ++i) {
      s->combos[p * supmins.size() + i].reference = std::move(mined[i]);
    }
  });
  for (size_t i = 0; i < s->combos.size(); ++i) {
    s->accuracy.Add(exact[i % exact.size()], s->combos[i].reference);
  }

  for (size_t w = 0; w < kWorkers; ++w) {
    s->workers.push_back(Must(
        Child::StartListening({args.cli, "worker", "--listen", "0", "--dataset",
                               "census", "--in", bin},
                              s->dir->File("worker" + std::to_string(w))),
        "start worker"));
  }
  // Warm-up: every combination once, checked; fills the workers' index
  // caches.
  OpStats stats;
  for (const Combo& combo : s->combos) {
    StatusOr<AprioriResult> r = RunOp(*s, combo, false, &stats);
    if (!r.ok() || !SameResult(*r, combo.reference)) s->warmup_ok = false;
  }
  return s;
}

}  // namespace

Report RunDistTcp(const Args& args) {
  Report report;
  std::unique_ptr<State> state = SetUpRepeatedly<State>(
      [&](int rep) { return SetUp(args, rep); }, &report);
  state->accuracy.Fill(&report);
  if (!state->warmup_ok) report.correct = false;

  TracedPhase phase;
  OpStats stats;
  std::map<size_t, double> frequent;
  ResetPeakRss(getpid());
  for (const std::unique_ptr<Child>& worker : state->workers) {
    ResetPeakRss(worker->pid());
  }
  const double start = NowS();
  double now = start;
  double slice_start = start;
  // A slice is one round per seed (every problem once), and only whole
  // slices run, so each slice and each run weighs the problems equally.
  for (size_t c = 0; now - start < args.seconds || c % kSeeds != 0; ++c) {
    const bool traced = args.trace && c % 2 == 1;
    GlobalTracer().set_enabled(traced);
    RotateCpu(c);  // per round: ops of a few ms would pay for migrating
    const double cycle_start = now;
    if (c % kSeeds == 0) {
      report.slices.emplace_back();
      slice_start = now;
    }
    Slice& slice = report.slices.back();
    for (size_t i = 0; i < kRound; ++i) {
      const Combo& combo = state->combos[(c % kSeeds) * kRound + i];
      ++report.attempted;
      const double t0 = NowS();
      StatusOr<AprioriResult> r = Status::Internal("unset");
      {
        ScopedOp op(report.attempted, static_cast<int>(combo.spec.kind));
        r = RunOp(*state, combo, traced, &stats);
      }
      const double t1 = NowS();
      const bool ok = r.ok() && SameResult(*r, combo.reference);
      if (r.ok() && !ok) report.correct = false;
      if (!r.ok()) std::cerr << "dist op failed: " << r.status().ToString() << "\n";
      if (ok && traced) {
        for (size_t k = 0; k < r->by_length.size(); ++k) {
          frequent[k + 1] += static_cast<double>(r->by_length[k].size());
        }
      }
      if (!ok) ++report.failed;
      slice.succeeded += ok ? 1 : 0;
      slice.latencies_ms.push_back(ok ? (t1 - t0) * 1e3 : kFailedLatencyMs);
    }
    now = NowS();
    slice.seconds = now - slice_start;
    (traced ? phase.traced_s : phase.untraced_s) += now - cycle_start;
    (traced ? phase.traced_ops : phase.untraced_ops) += kRound;
  }
  GlobalTracer().set_enabled(false);
  UnpinCpu();
  report.window_s = now - start;
  report.peak_rss_mb = PeakRssMb(getpid());
  for (const std::unique_ptr<Child>& worker : state->workers) {
    report.peak_rss_mb += PeakRssMb(worker->pid());
  }
  for (const std::unique_ptr<Child>& worker : state->workers) worker->Stop();

  if (args.trace) {
    ZeroLayerMetrics(&report);
    // Behind the coordinator, counting (worker wait + merge) and
    // reconstruction are one EstimateSupports call.
    FillSpanMetrics(GlobalTracer(), phase, frequent, &report, Stage::kEstimate);
    const double ops = static_cast<double>(report.attempted);
    report.layer["dist.round_trips"] = static_cast<double>(stats.round_trips) / ops;
    report.layer["dist.bytes_out"] = static_cast<double>(stats.bytes_out) / ops;
    report.layer["dist.bytes_in"] = static_cast<double>(stats.bytes_in) / ops;
    report.layer["dist.merge_ms"] = static_cast<double>(stats.merge_ns) * 1e-6 / ops;
    report.layer["dist.workers_failed"] =
        static_cast<double>(stats.workers_failed) / ops;
    report.layer["dist.retries"] = static_cast<double>(stats.retries) / ops;
  }
  return report;
}

}  // namespace perfbench
