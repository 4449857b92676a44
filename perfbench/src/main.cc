// perfbench_runner: runs one workload of the end-to-end benchmark and prints
// its result as one JSON line (the last line of stdout):
//
//   perfbench_runner --workload mine-bin|append-window|dist-tcp|serve-zipf
//                    --seed N --seconds S --trace 0|1 --cli PATH/frapp_cli
//                    --work-dir DIR [--trace-out FILE.json]
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run alternates untraced and traced stretches and reports the per-layer
// metrics, writing the traced spans as Chrome trace-event JSON.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "bench.h"

namespace {

using namespace perfbench;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void PrintMetric(bool* first, const std::string& name, double value,
                 const char* unit) {
  if (!std::isfinite(value)) value = kFailedLatencyMs;
  std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
              *first ? "" : ", ", name.c_str(), value, unit);
  *first = false;
}

const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() &&
           name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name.find("_ms") != std::string::npos) return "ms";
  if (ends("_pct")) return "%";
  if (ends("_mb")) return "MiB";
  if (ends("_ratio")) return "ratio";
  if (name.rfind("dist.bytes", 0) == 0) return "B/op";
  return "count/op";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(value.c_str(), nullptr);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--cli") args.cli = value;
    else if (key == "--work-dir") args.work_root = value;
    else if (key == "--trace-out") args.trace_out = value;
    else Fatal("unknown flag " + key);
  }
  if (args.cli.empty() || args.work_root.empty() || !(args.seconds > 0)) {
    Fatal("usage: perfbench_runner --workload W --seed N --seconds S "
          "--trace 0|1 --cli PATH --work-dir DIR [--trace-out FILE]");
  }

  Report report;
  if (args.workload == "mine-bin") report = RunMineBin(args);
  else if (args.workload == "append-window") report = RunAppendWindow(args);
  else if (args.workload == "dist-tcp") report = RunDistTcp(args);
  else if (args.workload == "serve-zipf") report = RunServeZipf(args);
  else Fatal("unknown workload '" + args.workload + "'");

  if (args.trace && !args.trace_out.empty() &&
      !GlobalTracer().WriteChromeTrace(args.trace_out)) {
    std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
  }

  const uint64_t succeeded = report.attempted - report.failed;
  size_t n = 0;
  std::vector<double> rates, p50s, p90s, pooled;
  for (const Slice& slice : report.slices) {
    if (slice.latencies_ms.empty() || !(slice.seconds > 0)) continue;
    n += slice.latencies_ms.size();
    rates.push_back(static_cast<double>(slice.succeeded) / slice.seconds);
    p50s.push_back(Percentile(slice.latencies_ms, 0.5));
    p90s.push_back(Percentile(slice.latencies_ms, 0.9));
    pooled.insert(pooled.end(), slice.latencies_ms.begin(),
                  slice.latencies_ms.end());
  }
  if (report.pool_latencies) {
    p50s = {Percentile(pooled, 0.5)};
    p90s = {Percentile(pooled, 0.9)};
  }
  if (n < 100) {
    std::cerr << "perfbench: only " << n
              << " samples; fewer than 10 lie beyond p90\n";
  }
  std::cerr << "perfbench: " << args.workload << " seed " << args.seed << ": "
            << report.attempted << " attempted, " << report.failed
            << " failed, " << n << " latency samples in " << rates.size()
            << " slices over " << report.window_s << " s\n";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  if (args.trace) {
    for (const auto& [name, value] : report.layer) {
      PrintMetric(&first, name, value, LayerUnit(name));
    }
  } else {
    PrintMetric(&first, "setup_s", report.setup_s, "s");
    PrintMetric(&first, "ops_per_s", Median(rates), "op/s");
    PrintMetric(&first, "latency_p50_ms", Median(p50s), "ms");
    PrintMetric(&first, "latency_p90_ms", Median(p90s), "ms");
    PrintMetric(&first, "succeeded_ops_frac",
                report.attempted
                    ? static_cast<double>(succeeded) /
                          static_cast<double>(report.attempted)
                    : 0,
                "ratio");
    PrintMetric(&first, "peak_rss_mb", report.peak_rss_mb, "MiB");
    PrintMetric(&first, "support_error_pct", report.support_error_pct, "%");
    PrintMetric(&first, "false_pos_pct", report.false_pos_pct, "%");
    PrintMetric(&first, "false_neg_pct", report.false_neg_pct, "%");
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
