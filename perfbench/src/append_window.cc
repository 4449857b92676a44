// append-window: the write path. A CENSUS FRAPPBIN holds a sliding window
// of 491,520 rows (60 chunks). Each op appends +10% new rows (6 chunks of
// 8192) that arrive as CSV — what `frapp append --in NEW.csv` does
// (ReadCsv + AppendBinaryTable) — then re-mines one count store per
// store-backed mechanism (DET-GD, RAN-GD, MASK, C&P) the way `frapp mine
// --count-store F --window-begin ROW` does: LoadOrCreateStore ->
// AppendAndMine with the window advanced -> SaveToFile. Store persistence
// and window expiry do most of the work here and nowhere else.
//
// Reference: a from-scratch PrivacyPipeline::Run over the same window of
// the file, for the first op (set-up) and a fixed sample of timed ops
// (checked after the timed window; rows of an append-only file never
// change). Accuracy: against MineExact over the first op's window, for
// the ops' own results plus seven more perturbation seeds per mechanism.
// Set-up's generation, store priming and in-process mines run in child
// processes (RunInChild), so the runner's peak RSS covers the ops and not
// set-up's leftovers; the first op itself runs in the runner as warm-up.

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "frapp/data/census.h"
#include "frapp/data/csv.h"
#include "frapp/data/shard_io.h"
#include "frapp/pipeline/privacy_pipeline.h"
#include "frapp/store/incremental_mine.h"
#include "timed.h"

namespace perfbench {

namespace {

using frapp::mining::AprioriResult;

constexpr size_t kChunk = 8192;
constexpr size_t kWindowRows = 60 * kChunk;
constexpr size_t kDeltaRows = 6 * kChunk;
constexpr size_t kDeltaFiles = 4;
constexpr size_t kMechs = 4;
constexpr size_t kVerifiedOps = 6;
// Extra perturbation seeds per mechanism for the accuracy metrics, mined in
// process over the first op's window, so accuracy averages 32 problems.
constexpr size_t kAccuracySeeds = 7;
// Ops per slice of the timed window.
constexpr size_t kSliceOps = 10;
constexpr double kMinSupport = 0.02;

struct OpRecord {
  size_t begin = 0;
  size_t end = 0;
  uint64_t fingerprint[kMechs] = {};
  bool ok = false;
};

struct State {
  std::unique_ptr<ScratchDir> dir;
  frapp::data::CategoricalSchema schema = frapp::data::census::Schema();
  std::string bin_path;
  std::vector<std::string> delta_csv;
  std::vector<frapp::dist::MechanismSpec> specs;
  std::vector<std::string> store_path;
  std::vector<uint64_t> perturb_seed;
  size_t total_rows = 0;
  size_t next_delta = 0;
  AccuracyMean accuracy;
  bool warmup_ok = true;
};

struct OpStats {
  uint64_t delta_chunks = 0, expired_chunks = 0, fallbacks = 0, probed = 0;
};

frapp::store::IncrementalOptions StoreOptions(const State& s, size_t m) {
  frapp::store::IncrementalOptions options;  // CLI defaults otherwise
  options.mining.min_support = kMinSupport;
  options.perturb_seed = s.perturb_seed[m];
  options.window_begin_row = s.total_rows - kWindowRows;
  options.source_id = s.bin_path;
  return options;
}

// One append + four store re-mines. Fills rec (window, fingerprints).
Status RunOp(State& s, bool timed_source, OpRecord* rec, OpStats* stats,
             std::vector<AprioriResult>* mined = nullptr) {
  std::optional<frapp::data::CategoricalTable> rows;
  {
    ScopedSpan span(Stage::kCsvParse);
    FRAPP_ASSIGN_OR_RETURN(rows, frapp::data::ReadCsv(
                                     s.delta_csv[s.next_delta], s.schema));
  }
  {
    ScopedSpan span(Stage::kBinAppend);
    FRAPP_RETURN_IF_ERROR(frapp::data::AppendBinaryTable(*rows, s.bin_path));
  }
  s.next_delta = (s.next_delta + 1) % s.delta_csv.size();
  s.total_rows += rows->num_rows();
  rec->begin = s.total_rows - kWindowRows;
  rec->end = s.total_rows;

  const std::string path = s.bin_path;
  const frapp::data::CategoricalSchema& schema = s.schema;
  const frapp::store::SourceFactory factory =
      [&]() -> StatusOr<std::unique_ptr<frapp::pipeline::TableSource>> {
    FRAPP_ASSIGN_OR_RETURN(
        frapp::pipeline::BinaryTableSource source,
        frapp::pipeline::BinaryTableSource::Open(path, schema));
    auto owned =
        std::make_unique<frapp::pipeline::BinaryTableSource>(std::move(source));
    if (!timed_source) return std::unique_ptr<frapp::pipeline::TableSource>(
        std::move(owned));
    return std::unique_ptr<frapp::pipeline::TableSource>(
        std::make_unique<TimedSource>(std::move(owned)));
  };
  for (size_t m = 0; m < kMechs; ++m) {
    const frapp::store::IncrementalOptions options = StoreOptions(s, m);
    std::optional<frapp::store::CountStore> store;
    {
      ScopedSpan span(Stage::kStoreLoad);
      FRAPP_ASSIGN_OR_RETURN(
          store, frapp::store::LoadOrCreateStore(
                     s.store_path[m],
                     frapp::store::MakeStoreIdentity(s.specs[m], schema, options)));
    }
    std::optional<frapp::store::IncrementalResult> result;
    {
      ScopedSpan span(Stage::kStoreRemine);
      FRAPP_ASSIGN_OR_RETURN(result, frapp::store::AppendAndMine(
                                         *store, s.specs[m], factory, options));
    }
    {
      ScopedSpan span(Stage::kStoreSave);
      FRAPP_RETURN_IF_ERROR(store->SaveToFile(s.store_path[m]));
    }
    rec->fingerprint[m] = Fingerprint(result->mined);
    const frapp::store::IncrementalStats& st = result->stats;
    stats->delta_chunks += st.delta_chunks;
    stats->expired_chunks += st.expired_chunks;
    stats->fallbacks += st.superset_fallbacks;
    stats->probed += st.store_hits + st.store_misses;
    if (mined != nullptr) mined->push_back(std::move(result->mined));
  }
  return Status::OK();
}

// From-scratch pipeline mine of the op's window, one per mechanism.
std::vector<uint64_t> ReferenceFingerprints(const State& s,
                                            const OpRecord& rec) {
  std::vector<uint64_t> out(kMechs, 0);
  ParallelSetup(kMechs, 4, [&](size_t m) {
    auto mechanism =
        Must(frapp::dist::MakeMechanism(s.specs[m], s.schema), "mechanism");
    auto source = Must(frapp::pipeline::BinaryTableSource::Open(s.bin_path, s.schema),
                       "open window");
    MustOk(source.SkipToRow(rec.begin), "seek window");
    TimedSource window(&source);
    window.Clip(rec.begin, rec.end);
    frapp::pipeline::PipelineOptions options;
    options.perturb_seed = s.perturb_seed[m];
    options.mining.min_support = kMinSupport;
    out[m] = Fingerprint(
        Must(frapp::pipeline::PrivacyPipeline(options).Run(*mechanism, window),
             "reference mine")
            .mined);
  });
  return out;
}

bool Verify(const State& s, const OpRecord& rec) {
  const std::vector<uint64_t> expected = ReferenceFingerprints(s, rec);
  return rec.ok && std::equal(expected.begin(), expected.end(), rec.fingerprint);
}

frapp::data::CategoricalTable MakeTable(const Args& args) {
  return Must(frapp::data::census::MakeDataset(
                  kWindowRows + kDeltaFiles * kDeltaRows, Derive(args.seed, 11)),
              "generate");
}

// Writes the initial window as FRAPPBIN and the deltas as CSV, then primes
// each store over the initial window (a first `frapp mine --count-store`),
// in parallel: the stores are independent.
void WriteInputs(const Args& args, const State& s) {
  const frapp::data::CategoricalTable table = MakeTable(args);
  MustOk(frapp::data::WriteBinaryTable(
             Must(frapp::data::CopyRowRange(table, {0, kWindowRows}), "slice"),
             s.bin_path),
         "write bin");
  for (size_t j = 0; j < kDeltaFiles; ++j) {
    const size_t begin = kWindowRows + j * kDeltaRows;
    MustOk(frapp::data::WriteCsv(
               Must(frapp::data::CopyRowRange(table, {begin, begin + kDeltaRows}),
                    "slice"),
               s.delta_csv[j]),
           "write csv");
  }
  ParallelSetup(kMechs, 4, [&](size_t m) {
    const frapp::store::IncrementalOptions options = StoreOptions(s, m);
    frapp::store::CountStore store = Must(
        frapp::store::LoadOrCreateStore(
            s.store_path[m],
            frapp::store::MakeStoreIdentity(s.specs[m], s.schema, options)),
        "create store");
    const std::string path = s.bin_path;
    const frapp::data::CategoricalSchema& schema = s.schema;
    Must(frapp::store::AppendAndMine(
             store, s.specs[m],
             [&]() -> StatusOr<std::unique_ptr<frapp::pipeline::TableSource>> {
               FRAPP_ASSIGN_OR_RETURN(
                   frapp::pipeline::BinaryTableSource source,
                   frapp::pipeline::BinaryTableSource::Open(path, schema));
               return std::unique_ptr<frapp::pipeline::TableSource>(
                   std::make_unique<frapp::pipeline::BinaryTableSource>(
                       std::move(source)));
             },
             options),
         "prime store");
    MustOk(store.SaveToFile(s.store_path[m]), "save store");
  });
}

// Checks the first op against from-scratch mines of its window and
// measures accuracy there: its own results plus kAccuracySeeds more seeds
// per mechanism against MineExact. Returns whether the op matched and the
// accuracy accumulator, as raw bytes.
std::string CheckFirstOp(const Args& args, const State& s, const OpRecord& rec,
                         const std::vector<AprioriResult>& mined) {
  const bool ok = Verify(s, rec);
  const frapp::data::CategoricalTable window = Must(
      frapp::data::CopyRowRange(MakeTable(args), {rec.begin, rec.end}), "slice");
  frapp::mining::AprioriOptions options;
  options.min_support = kMinSupport;
  const AprioriResult exact =
      Must(frapp::mining::MineExact(window, options), "exact");
  AccuracyMean accuracy;
  for (const AprioriResult& r : mined) accuracy.Add(exact, r);
  std::vector<AprioriResult> extra(kMechs * kAccuracySeeds);
  ParallelSetup(extra.size(), 4, [&](size_t i) {
    extra[i] = MineInProcess(window, s.specs[i % kMechs],
                             Derive(args.seed, 250 + i), {kMinSupport})[0];
  });
  for (const AprioriResult& r : extra) accuracy.Add(exact, r);
  std::string out(1, ok ? '\1' : '\0');
  out.append(reinterpret_cast<const char*>(&accuracy), sizeof(accuracy));
  return out;
}

std::unique_ptr<State> SetUp(const Args& args, int rep) {
  auto s = std::make_unique<State>();
  s->dir = std::make_unique<ScratchDir>(args.work_root + "/append-window-" +
                                        std::to_string(rep));
  s->bin_path = s->dir->File("census.bin");
  s->total_rows = kWindowRows;
  for (size_t j = 0; j < kDeltaFiles; ++j) {
    s->delta_csv.push_back(s->dir->File("delta" + std::to_string(j) + ".csv"));
  }
  for (const frapp::dist::MechanismSpec& spec : AllMechanisms(s->schema)) {
    if (spec.kind == frapp::dist::MechanismSpec::Kind::kIndGd) continue;
    s->store_path.push_back(s->dir->File(MechKey(spec) + ".frappcnt"));
    s->perturb_seed.push_back(Derive(args.seed, 200 + s->specs.size()));
    s->specs.push_back(spec);
  }
  RunInChild([&] {
    WriteInputs(args, *s);
    return std::string();
  });

  // Warm-up: the first append, checked against a from-scratch mine of its
  // window; its window is also where accuracy is measured.
  OpRecord rec;
  OpStats stats;
  std::vector<AprioriResult> mined;
  rec.ok = RunOp(*s, false, &rec, &stats, &mined).ok();
  s->warmup_ok = false;
  if (rec.ok) {
    const std::string answers =
        RunInChild([&] { return CheckFirstOp(args, *s, rec, mined); });
    if (answers.size() != 1 + sizeof(s->accuracy)) {
      Fatal("append-window set-up returned " + std::to_string(answers.size()) +
            " bytes");
    }
    s->warmup_ok = answers[0] == '\1';
    std::memcpy(&s->accuracy, answers.data() + 1, sizeof(s->accuracy));
  }
  return s;
}

}  // namespace

Report RunAppendWindow(const Args& args) {
  Report report;
  std::unique_ptr<State> state = SetUpRepeatedly<State>(
      [&](int rep) { return SetUp(args, rep); }, &report);
  state->accuracy.Fill(&report);
  if (!state->warmup_ok) report.correct = false;

  TracedPhase phase;
  OpStats stats;
  std::vector<OpRecord> records;
  // Peak RSS per slice, restarted before each, and the median slice: now
  // and then one op peaks a megabyte above the rest (as on mine-bin).
  std::vector<double> slice_peaks_mb;
  const double start = NowS();
  double now = start;
  double slice_start = start;
  // Whole slices only, like the rounds of the other workloads.
  for (size_t i = 0; now - start < args.seconds || i % kSliceOps != 0; ++i) {
    if (i % kSliceOps == 0) {
      ResetPeakRss(getpid());
      slice_start = NowS();
    }
    const bool traced = args.trace && i % 2 == 1;
    GlobalTracer().set_enabled(traced);
    OpRecord rec;
    RotateCpu(i);
    const double t0 = NowS();
    {
      ScopedOp op(i + 1, -1);
      rec.ok = RunOp(*state, traced, &rec, &stats).ok();
    }
    now = NowS();
    (traced ? phase.traced_s : phase.untraced_s) += now - t0;
    (traced ? phase.traced_ops : phase.untraced_ops) += 1;
    if (i % kSliceOps == 0) report.slices.emplace_back();
    Slice& slice = report.slices.back();
    slice.latencies_ms.push_back(rec.ok ? (now - t0) * 1e3 : kFailedLatencyMs);
    slice.succeeded += rec.ok ? 1 : 0;
    slice.seconds = now - slice_start;
    if (i % kSliceOps == kSliceOps - 1 || !rec.ok) {
      slice_peaks_mb.push_back(PeakRssMb(getpid()));
    }
    records.push_back(rec);
    if (!rec.ok) break;  // the file and stores are no longer in step
  }
  GlobalTracer().set_enabled(false);
  UnpinCpu();
  report.window_s = now - start;
  report.peak_rss_mb = Median(slice_peaks_mb);
  report.attempted = records.size();

  // Check a fixed sample of ops (evenly spread, always the last) against
  // from-scratch mines of their windows.
  for (size_t j = 0; j < kVerifiedOps && !records.empty(); ++j) {
    const size_t i = (records.size() - 1) * (j + 1) / kVerifiedOps;
    if (records[i].ok && !Verify(*state, records[i])) {
      records[i].ok = false;
      report.correct = false;
      Slice& slice = report.slices[i / kSliceOps];
      slice.latencies_ms[i % kSliceOps] = kFailedLatencyMs;
      --slice.succeeded;
    }
  }
  for (const OpRecord& rec : records) report.failed += rec.ok ? 0 : 1;

  if (args.trace) {
    ZeroLayerMetrics(&report);
    FillSpanMetrics(GlobalTracer(), phase, {}, &report);
    const double ops = static_cast<double>(records.size());
    report.layer["store.delta_chunks"] = static_cast<double>(stats.delta_chunks) / ops;
    report.layer["store.expired_chunks"] =
        static_cast<double>(stats.expired_chunks) / ops;
    report.layer["store.fallback_ratio"] =
        stats.probed ? static_cast<double>(stats.fallbacks) /
                           static_cast<double>(stats.probed)
                     : 0;
    double bytes = 0;
    for (const std::string& p : state->store_path) {
      std::error_code ec;
      bytes += static_cast<double>(std::filesystem::file_size(p, ec));
    }
    report.layer["store.file_mb"] = bytes / (1024.0 * 1024.0);
  }
  return report;
}

}  // namespace perfbench
