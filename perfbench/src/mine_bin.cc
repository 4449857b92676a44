// mine-bin: the paper's experiment at scale. One caller cycles CENSUS and
// HEALTH (500k rows each, pre-tokenized FRAPPBIN files) x the five
// mechanisms at supmin 0.02, at five perturbation seeds; each op is what `frapp mine --run-pipeline
// --in F.bin` does: build the mechanism, open the binary source, and run
// PrivacyPipeline::Run at the CLI defaults (one thread). Perturb, index,
// count and reconstruct carry most of each op; the source read is ~10%.
//
// Reference: the same counting problem mined at set-up through the
// in-memory source (another placement); every op must match it bit for
// bit (its Fingerprint: itemsets and support bits). Accuracy (rho, sigma+,
// sigma-) is that reference against MineExact, averaged over the fifty
// (dataset, mechanism, seed) combinations. Generation and the exact and
// reference mines run in a child process (RunInChild), so the runner's
// peak RSS covers the ops and not set-up's leftovers.
//
// The traced op is assembled from the same public calls Run makes (source
// -> perturb -> index -> count source -> estimator -> walk), each wrapped in
// a span, and is checked against the same reference.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <optional>

#include "bench.h"
#include "frapp/data/boolean_vertical_index.h"
#include "frapp/data/census.h"
#include "frapp/data/health.h"
#include "frapp/data/shard_io.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "timed.h"

namespace perfbench {

namespace {

using frapp::mining::AprioriResult;

constexpr size_t kRows = 500000;
constexpr double kMinSupport = 0.02;
// Perturbation seeds per (dataset, mechanism). A round mines the ten
// combinations at one seed; rounds rotate the seeds, so a run's figures
// average over seeds instead of riding on one seed's candidate counts.
constexpr size_t kSeedsPerCombo = 5;
constexpr size_t kRound = 10;

struct Dataset {
  frapp::data::CategoricalSchema schema;
  std::string bin_path;
};

struct Combo {
  size_t dataset = 0;
  frapp::dist::MechanismSpec spec;
  uint64_t perturb_seed = 0;
  uint64_t reference = 0;  // Fingerprint of the reference mine
};

struct State {
  std::unique_ptr<ScratchDir> dir;
  std::vector<Dataset> datasets;
  std::vector<Combo> combos;
  AccuracyMean accuracy;
  size_t warmup_mismatches = 0;
};

frapp::pipeline::PipelineOptions OptionsFor(const Combo& combo) {
  frapp::pipeline::PipelineOptions options;  // CLI defaults otherwise
  options.perturb_seed = combo.perturb_seed;
  options.mining.min_support = kMinSupport;
  return options;
}

StatusOr<frapp::pipeline::PipelineResult> RunOp(const Dataset& d,
                                                 const Combo& combo) {
  FRAPP_ASSIGN_OR_RETURN(auto mechanism,
                         frapp::dist::MakeMechanism(combo.spec, d.schema));
  FRAPP_ASSIGN_OR_RETURN(
      frapp::pipeline::BinaryTableSource source,
      frapp::pipeline::BinaryTableSource::Open(d.bin_path, d.schema));
  return frapp::pipeline::PrivacyPipeline(OptionsFor(combo))
      .Run(*mechanism, source);
}

}  // namespace

StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>> IngestAndAssemble(
    frapp::core::Mechanism& mechanism, frapp::pipeline::TableSource& source,
    const frapp::pipeline::PipelineOptions& options) {
  const bool boolean =
      mechanism.shard_kind() == frapp::core::Mechanism::ShardKind::kBoolean;
  std::vector<frapp::mining::VerticalIndex> cat_indexes;
  std::vector<frapp::data::BooleanVerticalIndex> bool_indexes;
  while (true) {
    frapp::pipeline::PulledShard shard;
    FRAPP_ASSIGN_OR_RETURN(const bool more, source.NextShard(&shard));
    if (!more) break;
    if (shard.view.size() == 0) continue;
    if (boolean) {
      StatusOr<frapp::data::BooleanTable> perturbed = Status::Internal("unset");
      {
        ScopedSpan span(Stage::kPerturb);
        perturbed = mechanism.PerturbBooleanShard(
            shard.view, options.perturb_seed, options.num_threads);
      }
      shard.owned.reset();
      FRAPP_RETURN_IF_ERROR(perturbed.status());
      ScopedSpan span(Stage::kIndex);
      bool_indexes.emplace_back(*perturbed);
    } else {
      StatusOr<frapp::data::CategoricalTable> perturbed =
          Status::Internal("unset");
      {
        ScopedSpan span(Stage::kPerturb);
        perturbed = mechanism.PerturbShard(shard.view, options.perturb_seed,
                                           options.num_threads);
      }
      shard.owned.reset();
      FRAPP_RETURN_IF_ERROR(perturbed.status());
      ScopedSpan span(Stage::kIndex);
      cat_indexes.push_back(
          frapp::mining::VerticalIndex::Build(*perturbed, options.num_threads));
    }
  }

  StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>> estimator =
      Status::Internal("unset");
  {
    ScopedSpan span(Stage::kAssemble);
    if (boolean) {
      estimator = mechanism.MakeBooleanCountSourceEstimator(
          std::make_shared<TimedPatternSource>(
              std::make_shared<frapp::data::LocalPatternCountSource>(
                  frapp::data::ShardedBooleanVerticalIndex::FromShards(
                      std::move(bool_indexes)),
                  options.num_threads)));
    } else {
      estimator = mechanism.MakeCountSourceEstimator(
          std::make_shared<TimedCountSource>(
              std::make_shared<frapp::mining::LocalSupportCountSource>(
                  frapp::mining::ShardedVerticalIndex::FromShards(
                      std::move(cat_indexes)),
                  options.num_threads)));
    }
  }
  return estimator;
}

std::vector<AprioriResult> MineInProcess(
    const frapp::data::CategoricalTable& table,
    const frapp::dist::MechanismSpec& spec, uint64_t seed,
    const std::vector<double>& supmins) {
  auto mechanism =
      Must(frapp::dist::MakeMechanism(spec, table.schema()), "mechanism");
  frapp::pipeline::InMemoryTableSource source(table, 1);
  frapp::pipeline::PipelineOptions options;
  options.perturb_seed = seed;
  auto estimator =
      Must(IngestAndAssemble(*mechanism, source, options), "reference ingest");
  std::vector<AprioriResult> out;
  for (double supmin : supmins) {
    frapp::mining::AprioriOptions mining;
    mining.min_support = supmin;
    out.push_back(Must(
        frapp::mining::MineFrequentItemsets(table.schema(), *estimator, mining),
        "reference walk"));
  }
  return out;
}

namespace {

// PrivacyPipeline::Run at one thread, spelled out call by call.
StatusOr<AprioriResult> RunTracedOp(const Dataset& d, const Combo& combo) {
  const frapp::pipeline::PipelineOptions options = OptionsFor(combo);
  StatusOr<std::unique_ptr<frapp::core::Mechanism>> made =
      Status::Internal("unset");
  {
    ScopedSpan span(Stage::kMakeMechanism);
    made = frapp::dist::MakeMechanism(combo.spec, d.schema);
  }
  FRAPP_RETURN_IF_ERROR(made.status());
  frapp::core::Mechanism& mechanism = **made;
  StatusOr<frapp::pipeline::BinaryTableSource> opened =
      Status::Internal("unset");
  {
    ScopedSpan span(Stage::kDataOpen);
    opened = frapp::pipeline::BinaryTableSource::Open(d.bin_path, d.schema);
  }
  FRAPP_RETURN_IF_ERROR(opened.status());
  TimedSource source(&*opened);
  StatusOr<std::unique_ptr<frapp::mining::SupportEstimator>> estimator =
      IngestAndAssemble(mechanism, source, options);
  FRAPP_RETURN_IF_ERROR(estimator.status());
  TimedEstimator timed(estimator->get());
  ScopedSpan span(Stage::kWalk);
  return frapp::mining::MineFrequentItemsets(source.schema(), timed,
                                             options.mining);
}

// Generates and writes both datasets, then mines every combination exactly
// and through the in-memory pipeline. Returns the accuracy accumulator and
// the reference fingerprints in combination order, as raw bytes.
std::string MineReferences(const Args& args, const State& state) {
  std::vector<std::optional<frapp::data::CategoricalTable>> tables(2);
  std::vector<AprioriResult> exact(2);
  ParallelSetup(2, 2, [&](size_t i) {
    const uint64_t gen_seed = Derive(args.seed, 1 + i);
    tables[i] = Must(i == 0 ? frapp::data::census::MakeDataset(kRows, gen_seed)
                            : frapp::data::health::MakeDataset(kRows, gen_seed),
                     "generate");
    MustOk(frapp::data::WriteBinaryTable(*tables[i], state.datasets[i].bin_path),
           "write bin");
    frapp::mining::AprioriOptions options;
    options.min_support = kMinSupport;
    exact[i] = Must(frapp::mining::MineExact(*tables[i], options), "exact");
  });
  std::vector<AprioriResult> references(state.combos.size());
  ParallelSetup(state.combos.size(), 4, [&](size_t c) {
    const Combo& combo = state.combos[c];
    auto mechanism = Must(frapp::dist::MakeMechanism(
                              combo.spec, state.datasets[combo.dataset].schema),
                          "mechanism");
    references[c] = Must(frapp::pipeline::PrivacyPipeline(OptionsFor(combo))
                             .Run(*mechanism, *tables[combo.dataset]),
                         "reference mine")
                        .mined;
  });
  AccuracyMean accuracy;
  std::vector<uint64_t> fingerprints;
  for (size_t c = 0; c < state.combos.size(); ++c) {
    accuracy.Add(exact[state.combos[c].dataset], references[c]);
    fingerprints.push_back(Fingerprint(references[c]));
  }
  std::string out(reinterpret_cast<const char*>(&accuracy), sizeof(accuracy));
  out.append(reinterpret_cast<const char*>(fingerprints.data()),
             fingerprints.size() * sizeof(uint64_t));
  return out;
}

std::unique_ptr<State> SetUp(const Args& args, int rep) {
  auto state = std::make_unique<State>();
  state->dir = std::make_unique<ScratchDir>(args.work_root + "/mine-bin-" +
                                            std::to_string(rep));
  state->datasets = {
      Dataset{frapp::data::census::Schema(), state->dir->File("census.bin")},
      Dataset{frapp::data::health::Schema(), state->dir->File("health.bin")}};
  for (size_t k = 0; k < kSeedsPerCombo; ++k) {
    for (size_t i = 0; i < 2; ++i) {
      for (const frapp::dist::MechanismSpec& spec :
           AllMechanisms(state->datasets[i].schema)) {
        Combo combo;
        combo.dataset = i;
        combo.spec = spec;
        combo.perturb_seed = Derive(args.seed, 100 + k);
        state->combos.push_back(std::move(combo));
      }
    }
  }
  const std::string answers =
      RunInChild([&] { return MineReferences(args, *state); });
  const size_t head = sizeof(state->accuracy);
  if (answers.size() != head + state->combos.size() * sizeof(uint64_t)) {
    Fatal("mine-bin set-up returned " + std::to_string(answers.size()) +
          " bytes");
  }
  std::memcpy(&state->accuracy, answers.data(), head);
  for (size_t c = 0; c < state->combos.size(); ++c) {
    std::memcpy(&state->combos[c].reference,
                answers.data() + head + c * sizeof(uint64_t), sizeof(uint64_t));
  }
  // Warm-up: one checked round (page cache, allocator, kernel dispatch).
  for (size_t i = 0; i < kRound; ++i) {
    const Combo& combo = state->combos[i];
    StatusOr<frapp::pipeline::PipelineResult> r =
        RunOp(state->datasets[combo.dataset], combo);
    if (!r.ok() || Fingerprint(r->mined) != combo.reference) {
      ++state->warmup_mismatches;
    }
  }
  return state;
}

}  // namespace

Report RunMineBin(const Args& args) {
  Report report;
  std::unique_ptr<State> state = SetUpRepeatedly<State>(
      [&](int rep) { return SetUp(args, rep); }, &report);
  state->accuracy.Fill(&report);
  if (state->warmup_mismatches > 0) report.correct = false;

  TracedPhase phase;
  std::map<size_t, double> frequent;
  size_t peak_inflight = 0;
  // Peak RSS per round, restarted before each: an op's peak depends on
  // where the allocator places its buffers, and now and then one op
  // (IND-GD on HEALTH) peaks a megabyte or more above the rest; the median
  // round does not move with it.
  std::vector<double> round_peaks_mb;
  const double start = NowS();
  double now = start;
  // Whole rounds only, so every run weighs the ten combinations equally.
  for (size_t c = 0; now - start < args.seconds; ++c) {
    const bool traced = args.trace && c % 2 == 1;
    const size_t first = (c % kSeedsPerCombo) * kRound;
    GlobalTracer().set_enabled(traced);
    ResetPeakRss(getpid());
    const double cycle_start = NowS();
    Slice slice;
    for (size_t i = first; i < first + kRound; ++i) {
      const Combo& combo = state->combos[i];
      const Dataset& d = state->datasets[combo.dataset];
      ++report.attempted;
      RotateCpu(report.attempted);
      const double t0 = NowS();
      bool ok = false;
      {
        ScopedOp op(report.attempted, static_cast<int>(combo.spec.kind));
        if (traced) {
          StatusOr<AprioriResult> r = RunTracedOp(d, combo);
          ok = r.ok() && Fingerprint(*r) == combo.reference;
          if (r.ok() && !ok) report.correct = false;
          if (ok) {
            for (size_t k = 0; k < r->by_length.size(); ++k) {
              frequent[k + 1] += static_cast<double>(r->by_length[k].size());
            }
          }
        } else {
          StatusOr<frapp::pipeline::PipelineResult> r = RunOp(d, combo);
          ok = r.ok() && Fingerprint(r->mined) == combo.reference;
          if (ok) {
            peak_inflight =
                std::max(peak_inflight, r->stats.peak_inflight_perturbed_bytes);
          }
          if (r.ok() && !ok) report.correct = false;
        }
      }
      const double t1 = NowS();
      if (!ok) ++report.failed;
      slice.succeeded += ok ? 1 : 0;
      slice.latencies_ms.push_back(ok ? (t1 - t0) * 1e3 : kFailedLatencyMs);
    }
    now = NowS();
    round_peaks_mb.push_back(PeakRssMb(getpid()));
    slice.seconds = now - cycle_start;
    report.slices.push_back(std::move(slice));
    (traced ? phase.traced_s : phase.untraced_s) += now - cycle_start;
    (traced ? phase.traced_ops : phase.untraced_ops) += kRound;
  }
  GlobalTracer().set_enabled(false);
  UnpinCpu();
  report.window_s = now - start;
  report.peak_rss_mb = Median(round_peaks_mb);
  if (args.trace) {
    ZeroLayerMetrics(&report);
    FillSpanMetrics(GlobalTracer(), phase, frequent, &report);
    report.layer["pipeline.peak_inflight_mb"] =
        static_cast<double>(peak_inflight) / (1024.0 * 1024.0);
  }
  return report;
}

}  // namespace perfbench
