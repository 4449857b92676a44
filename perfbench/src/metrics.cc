// Per-layer metrics: the fixed list every traced run prints, and their
// reduction from spans. Times are self times (a span minus its direct
// children on the same thread) per op; ".<mech>" metrics are per op of
// that mechanism.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

constexpr size_t kMaxLevel = 7;

std::vector<std::string> LayerMetricNames() {
  std::vector<std::string> names = {
      "data.open_ms",          "data.read_ms",        "data.csv_parse_ms",
      "data.bin_append_ms",    "core.mechanism_ms",   "pipeline.assemble_ms",
      "mining.walk_ms",        "pipeline.unattributed_ms",
      "pipeline.stage_coverage_pct", "pipeline.peak_inflight_mb",
      "store.load_ms",         "store.save_ms",       "store.file_mb",
      "store.remine_ms",       "store.delta_chunks",  "store.expired_chunks",
      "store.fallback_ratio",  "dist.connect_ms",     "dist.recv_wait_ms",
      "dist.send_ms",          "dist.shutdown_ms",    "dist.round_trips",
      "dist.bytes_out",        "dist.bytes_in",       "dist.merge_ms",
      "dist.workers_failed",   "dist.retries",        "serve.rtt_ms.hit",
      "serve.rtt_ms.miss",     "serve.rtt_ms.coalesced",
      "serve.broker_ms.hit",   "serve.broker_ms.miss",
      "serve.broker_ms.coalesced", "serve.wire_ms",   "serve.hit_ratio",
      "serve.coalesced_ratio", "serve.mine_runs",     "serve.evictions",
      "serve.store_misses",    "serve.rejected",      "trace.overhead_pct",
  };
  for (const char* stage : {"core.perturb_ms", "mining.index_ms",
                            "mining.count_ms", "core.reconstruct_ms"}) {
    for (const char* mech : kMechKeys) {
      names.push_back(std::string(stage) + "." + mech);
    }
  }
  for (size_t k = 1; k <= kMaxLevel; ++k) {
    const std::string level = "mining.l" + std::to_string(k);
    names.push_back(level + ".count_ms");
    names.push_back(level + ".candidates");
    names.push_back(level + ".frequent");
  }
  return names;
}

// Metric name of a stage's per-op self time (stages reported without a
// mechanism suffix).
const char* PlainMetric(Stage stage) {
  switch (stage) {
    case Stage::kDataOpen: return "data.open_ms";
    case Stage::kDataRead: return "data.read_ms";
    case Stage::kMakeMechanism: return "core.mechanism_ms";
    case Stage::kAssemble: return "pipeline.assemble_ms";
    case Stage::kWalk: return "mining.walk_ms";
    case Stage::kCsvParse: return "data.csv_parse_ms";
    case Stage::kBinAppend: return "data.bin_append_ms";
    case Stage::kStoreLoad: return "store.load_ms";
    case Stage::kStoreRemine: return "store.remine_ms";
    case Stage::kStoreSave: return "store.save_ms";
    case Stage::kDistConnect: return "dist.connect_ms";
    case Stage::kDistSend: return "dist.send_ms";
    case Stage::kDistRecv: return "dist.recv_wait_ms";
    case Stage::kDistShutdown: return "dist.shutdown_ms";
    default: return nullptr;
  }
}

// Metric prefix of a stage's per-op self time per mechanism. `count_stage`
// is the stage whose self time is the counting (kEstimate where counting
// and reconstruction happen behind one library call).
const char* MechMetric(Stage stage, Stage count_stage) {
  if (stage == count_stage) return "mining.count_ms";
  switch (stage) {
    case Stage::kPerturb: return "core.perturb_ms";
    case Stage::kIndex: return "mining.index_ms";
    case Stage::kEstimate: return "core.reconstruct_ms";
    default: return nullptr;
  }
}

}  // namespace

void ZeroLayerMetrics(Report* report) {
  for (const std::string& name : LayerMetricNames()) report->layer[name] = 0;
}

void FillSpanMetrics(const Tracer& tracer, const TracedPhase& phase,
                     const std::map<size_t, double>& frequent,
                     Report* report, Stage count_stage) {
  const std::vector<Span> spans = tracer.Snapshot();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= s.start_ns) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  constexpr size_t kStages = static_cast<size_t>(Stage::kNumStages);
  std::vector<double> plain_ms(kStages, 0);
  std::vector<std::vector<double>> mech_ms(kStages, std::vector<double>(5, 0));
  std::vector<double> level_count_ms(kMaxLevel + 1, 0);
  std::vector<double> level_candidates(kMaxLevel + 1, 0);
  std::vector<double> op_wall(5, 0), op_self(5, 0);
  std::vector<uint64_t> ops_by_mech(5, 0);
  double all_wall = 0, all_self = 0;
  uint64_t ops = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
    const double self =
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) * 1e-6;
    const size_t st = static_cast<size_t>(s.stage);
    const size_t level = std::min<size_t>(s.level, kMaxLevel);
    if (s.stage == Stage::kOp) {
      ++ops;
      all_wall += dur;
      all_self += self;
      if (s.mech >= 0) {
        ++ops_by_mech[s.mech];
        op_wall[s.mech] += dur;
        op_self[s.mech] += self;
      }
      continue;
    }
    plain_ms[st] += self;
    if (s.mech >= 0) mech_ms[st][s.mech] += self;
    if (s.stage == count_stage && level > 0) level_count_ms[level] += self;
    if (s.stage == Stage::kEstimate && level > 0) {
      level_candidates[level] += static_cast<double>(s.items);
    }
  }
  if (ops == 0) return;
  const double n = static_cast<double>(ops);
  for (size_t st = 0; st < kStages; ++st) {
    if (const char* name = PlainMetric(static_cast<Stage>(st))) {
      report->layer[name] = plain_ms[st] / n;
    }
    if (const char* prefix = MechMetric(static_cast<Stage>(st), count_stage)) {
      for (size_t m = 0; m < 5; ++m) {
        if (ops_by_mech[m] == 0) continue;
        report->layer[std::string(prefix) + "." + kMechKeys[m]] =
            mech_ms[st][m] / static_cast<double>(ops_by_mech[m]);
      }
    }
  }
  for (size_t k = 1; k <= kMaxLevel; ++k) {
    const std::string level = "mining.l" + std::to_string(k);
    report->layer[level + ".count_ms"] = level_count_ms[k] / n;
    report->layer[level + ".candidates"] = level_candidates[k] / n;
    auto it = frequent.find(k);
    report->layer[level + ".frequent"] = it == frequent.end() ? 0 : it->second / n;
  }
  report->layer["pipeline.unattributed_ms"] = all_self / n;

  // Stage coverage: the share of op wall time inside named stages. Printed
  // per mechanism; the metric is the worst mechanism (or all ops).
  double worst = all_wall > 0 ? 100.0 * (1.0 - all_self / all_wall) : 0;
  for (size_t m = 0; m < 5; ++m) {
    if (ops_by_mech[m] == 0 || op_wall[m] <= 0) continue;
    const double pct = 100.0 * (1.0 - op_self[m] / op_wall[m]);
    worst = std::min(worst, pct);
    std::cerr << "stage coverage " << kMechKeys[m] << ": " << pct
              << "% of " << op_wall[m] / static_cast<double>(ops_by_mech[m])
              << " ms/op (unattributed "
              << op_self[m] / static_cast<double>(ops_by_mech[m])
              << " ms/op)\n";
  }
  report->layer["pipeline.stage_coverage_pct"] = worst;

  if (phase.untraced_ops > 0 && phase.traced_ops > 0 && phase.traced_s > 0 &&
      phase.untraced_s > 0) {
    const double untraced = static_cast<double>(phase.untraced_ops) / phase.untraced_s;
    const double traced = static_cast<double>(phase.traced_ops) / phase.traced_s;
    report->layer["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0);
  }
  if (tracer.dropped() > 0) {
    std::cerr << "trace: " << tracer.dropped() << " span(s) dropped\n";
  }
}

}  // namespace perfbench
