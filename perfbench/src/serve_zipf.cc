// serve-zipf: the reuse ladder (result cache -> coalescing -> count store)
// of `frapp serve`. Four client connections (one per core) send closed-loop
// queries to one `frapp_cli serve` child over a CENSUS 500k FRAPPBIN, which
// runs at its defaults (64 result-cache entries, one thread per mine).
// Keys follow Zipf(s = 1) over 5 mechanisms x 8 seeds x 6 supmins = 240
// keys, a working set larger than the cache, so queries hit, get evicted,
// and drill down below a store's supmin; kinds are mine/topk/rules at
// 60/25/15. On top of that, cold queries with never-seen seeds (a fresh
// perturbation plus a new store that the server keeps for its lifetime)
// arrive at a fixed rate. Timing starts after a warm-up that queries every
// key once.
//
// Reference: every key's answer is mined at set-up in process, with the
// index built once per (mechanism, seed) and walked at each supmin; each
// response must match its fingerprint. Cold queries are checked after the
// timed window against in-process mines of their problems. Accuracy: the
// 240 references against MineExact at their supmins.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <optional>
#include <random>
#include <thread>

#include "bench.h"
#include "frapp/data/census.h"
#include "frapp/data/shard_io.h"
#include "frapp/serve/client.h"
#include "frapp/serve/query_wire.h"
#include "timed.h"

namespace perfbench {

namespace {

using frapp::mining::AprioriResult;
using frapp::serve::QueryKind;

constexpr size_t kRows = 500000;
constexpr size_t kSeeds = 8;
constexpr double kMinSupports[] = {0.02, 0.025, 0.03, 0.04, 0.05, 0.06};
constexpr size_t kClients = 4;
constexpr uint64_t kTopK = 20;
constexpr double kMinConfidence = 0.5;
// Cold queries per second of timed window.
constexpr double kColdPerSecond = 5.0;

struct Key {
  frapp::dist::MechanismSpec spec;
  uint64_t perturb_seed = 0;
  double min_support = 0;
  uint64_t expected[3] = {};  // fingerprints by QueryKind (mine, topk, rules)
};

struct State {
  std::unique_ptr<ScratchDir> dir;
  frapp::data::CategoricalSchema schema = frapp::data::census::Schema();
  std::optional<frapp::data::CategoricalTable> table;
  std::vector<Key> keys;
  std::vector<size_t> zipf_order;  // Zipf rank -> key index
  std::unique_ptr<Child> server;
  AccuracyMean accuracy;
  bool warmup_ok = true;
};

frapp::serve::QueryRequest RequestFor(const State& s, const Key& key,
                                      QueryKind kind) {
  frapp::serve::QueryRequest request;
  request.kind = kind;
  request.schema_fingerprint = frapp::data::SchemaFingerprint(s.schema);
  request.spec = key.spec;
  request.perturb_seed = key.perturb_seed;
  request.min_support = key.min_support;
  request.min_confidence = kind == QueryKind::kRules ? kMinConfidence : 0.0;
  request.top_k = kTopK;
  return request;
}

// The broker's documented top-k order: support descending, itemset
// ascending on ties.
std::vector<frapp::mining::FrequentItemset> TopK(const AprioriResult& r) {
  std::vector<frapp::mining::FrequentItemset> all;
  for (const auto& level : r.by_length) all.insert(all.end(), level.begin(), level.end());
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.support != b.support) return a.support > b.support;
    return a.itemset < b.itemset;
  });
  if (all.size() > kTopK) all.resize(kTopK);
  return all;
}

void SetExpected(const AprioriResult& r, Key* key) {
  key->expected[0] = Fingerprint(r);
  key->expected[1] = Fingerprint(TopK(r));
  frapp::mining::RuleOptions options;
  options.min_confidence = kMinConfidence;
  key->expected[2] = Fingerprint(
      Must(frapp::mining::GenerateAssociationRules(r, options), "rules"));
}

uint64_t AnswerFingerprint(const frapp::serve::QueryResponse& r) {
  switch (r.kind) {
    case QueryKind::kMine: return Fingerprint(r.result);
    case QueryKind::kTopK: return Fingerprint(r.top);
    case QueryKind::kRules: return Fingerprint(r.rules);
    default: return 0;
  }
}

std::unique_ptr<frapp::serve::QueryClient> Connect(const State& s) {
  frapp::dist::DialOptions dial;  // `frapp query` dial defaults
  dial.connect_timeout_ms = 5000;
  dial.retry.max_attempts = 25;
  dial.retry.base_backoff_ms = 50;
  dial.retry.max_backoff_ms = 1000;
  return std::make_unique<frapp::serve::QueryClient>(
      Must(frapp::dist::TcpDial("127.0.0.1", s.server->port(), dial), "dial"));
}

StatusOr<frapp::serve::ServerStatsWire> Stats(const State& s) {
  auto client = Connect(s);
  frapp::serve::QueryRequest request;
  request.kind = QueryKind::kStats;
  request.schema_fingerprint = frapp::data::SchemaFingerprint(s.schema);
  FRAPP_ASSIGN_OR_RETURN(frapp::serve::QueryResponse r, client->Query(request));
  return r.server;
}

std::unique_ptr<State> SetUp(const Args& args, int rep) {
  auto s = std::make_unique<State>();
  s->dir = std::make_unique<ScratchDir>(args.work_root + "/serve-zipf-" +
                                        std::to_string(rep));
  s->table = Must(frapp::data::census::MakeDataset(kRows, Derive(args.seed, 31)),
                  "generate");
  const std::string bin = s->dir->File("census.bin");
  MustOk(frapp::data::WriteBinaryTable(*s->table, bin), "write bin");

  const std::vector<double> supmins(std::begin(kMinSupports),
                                    std::end(kMinSupports));
  const std::vector<frapp::dist::MechanismSpec> mechs = AllMechanisms(s->schema);
  for (const frapp::dist::MechanismSpec& spec : mechs) {
    for (size_t j = 0; j < kSeeds; ++j) {
      for (double supmin : supmins) {
        Key key;
        key.spec = spec;
        key.perturb_seed = Derive(args.seed, 400 + j);
        key.min_support = supmin;
        s->keys.push_back(key);
      }
    }
  }
  const size_t problems = mechs.size() * kSeeds;
  std::vector<AprioriResult> exact(supmins.size());
  std::vector<std::vector<AprioriResult>> mined_by_problem(problems);
  ParallelSetup(problems + supmins.size(), 4, [&](size_t p) {
    if (p >= problems) {
      frapp::mining::AprioriOptions options;
      options.min_support = supmins[p - problems];
      exact[p - problems] = Must(frapp::mining::MineExact(*s->table, options), "exact");
      return;
    }
    Key& first = s->keys[p * supmins.size()];
    const std::vector<AprioriResult> mined =
        MineInProcess(*s->table, first.spec, first.perturb_seed, supmins);
    for (size_t i = 0; i < supmins.size(); ++i) {
      SetExpected(mined[i], &s->keys[p * supmins.size() + i]);
    }
    mined_by_problem[p] = mined;
  });
  for (const std::vector<AprioriResult>& mined : mined_by_problem) {
    for (size_t i = 0; i < mined.size(); ++i) s->accuracy.Add(exact[i], mined[i]);
  }
  // Zipf rank r is mechanism r mod 5, supmin (r / 5) mod 6 and seed r / 30:
  // every run gives each mechanism and supmin the same popularity, so the
  // workload seed moves the data, the perturbation and the query order but
  // not how much of the traffic is costly to answer.
  const size_t num_supmins = supmins.size();
  for (size_t r = 0; r < s->keys.size(); ++r) {
    const size_t m = r % mechs.size();
    const size_t i = (r / mechs.size()) % num_supmins;
    const size_t j = r / (mechs.size() * num_supmins);
    s->zipf_order.push_back((m * kSeeds + j) * num_supmins + i);
  }

  s->server = Must(
      Child::StartListening({args.cli, "serve", "--listen", "0", "--dataset",
                             "census", "--in", bin},
                            s->dir->File("serve")),
      "start serve");
  // Warm-up: every key once. Each counting problem belongs to one client
  // connection and is queried from its highest supmin down, so every store
  // fixes its retention threshold at 0.06 x 0.75 whatever the timing, and
  // lower-supmin queries drill below it (recounts from the stored substrate).
  std::atomic<bool> ok{true};
  ParallelSetup(kClients, kClients, [&](size_t c) {
    auto client = Connect(*s);
    for (size_t p = c; p < problems; p += kClients) {
      for (size_t i = supmins.size(); i-- > 0;) {
        const Key& key = s->keys[p * supmins.size() + i];
        StatusOr<frapp::serve::QueryResponse> r =
            client->Query(RequestFor(*s, key, QueryKind::kMine));
        if (!r.ok() || AnswerFingerprint(*r) != key.expected[0]) ok = false;
      }
    }
  });
  s->warmup_ok = ok;
  return s;
}

struct Draw {
  uint32_t rank = 0;
  QueryKind kind = QueryKind::kMine;
};

// The query stream all clients draw from, in order: blocks of kBlock
// queries whose composition is exactly Zipf(s = 1) over the ranks and
// exactly 60/25/15 over mine/topk/rules (largest-remainder rounding), each
// block in its own seeded order. Exact composition keeps a run's mix of
// cheap hits and costly misses from varying with sampling luck.
std::vector<Draw> MakeStream(size_t ranks, uint64_t seed) {
  constexpr size_t kBlock = 2000;
  constexpr size_t kBlocks = 32;
  double harmonic = 0;
  for (size_t r = 0; r < ranks; ++r) harmonic += 1.0 / static_cast<double>(r + 1);
  std::vector<uint32_t> block_ranks;
  std::vector<std::pair<double, uint32_t>> remainders;
  for (size_t r = 0; r < ranks; ++r) {
    const double want = kBlock / (harmonic * static_cast<double>(r + 1));
    block_ranks.insert(block_ranks.end(), static_cast<size_t>(want),
                       static_cast<uint32_t>(r));
    remainders.emplace_back(want - std::floor(want), static_cast<uint32_t>(r));
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (size_t i = 0; block_ranks.size() < kBlock; ++i) {
    block_ranks.push_back(remainders[i].second);
  }
  std::vector<QueryKind> block_kinds;
  block_kinds.insert(block_kinds.end(), kBlock * 60 / 100, QueryKind::kMine);
  block_kinds.insert(block_kinds.end(), kBlock * 25 / 100, QueryKind::kTopK);
  block_kinds.insert(block_kinds.end(), kBlock - block_kinds.size(),
                     QueryKind::kRules);
  std::mt19937_64 rng(Derive(seed, 600));
  std::vector<Draw> stream;
  for (size_t b = 0; b < kBlocks; ++b) {
    std::shuffle(block_ranks.begin(), block_ranks.end(), rng);
    std::shuffle(block_kinds.begin(), block_kinds.end(), rng);
    for (size_t i = 0; i < kBlock; ++i) stream.push_back({block_ranks[i], block_kinds[i]});
  }
  return stream;
}

struct ClientTally {
  std::vector<Slice> slices;  // one per second of the window
  uint64_t attempted = 0, failed = 0, mismatched = 0;
  // Traced queries: RTT and broker time sums by outcome.
  double rtt_ms[3] = {}, broker_ms[3] = {};
  uint64_t count[3] = {};
  uint64_t traced = 0, untraced = 0;
  double traced_s = 0, untraced_s = 0;
};

struct ColdQuery {
  Key key;
  bool answered = false;  // a response arrived (errors count as failed ops)
  uint64_t answer = 0;
};

}  // namespace

Report RunServeZipf(const Args& args) {
  Report report;
  std::unique_ptr<State> state = SetUpRepeatedly<State>(
      [&](int rep) { return SetUp(args, rep); }, &report);
  state->accuracy.Fill(&report);
  if (!state->warmup_ok) report.correct = false;
  const State& s = *state;

  const std::vector<Draw> stream = MakeStream(s.keys.size(), args.seed);
  std::atomic<size_t> next_draw{0};

  const size_t num_cold = static_cast<size_t>(std::ceil(args.seconds * kColdPerSecond));
  std::vector<ColdQuery> colds(num_cold);
  const std::vector<frapp::dist::MechanismSpec> mechs = AllMechanisms(s.schema);
  for (size_t k = 0; k < num_cold; ++k) {
    colds[k].key.spec = mechs[k % mechs.size()];
    colds[k].key.perturb_seed = Derive(args.seed, 10000 + k);
    colds[k].key.min_support = kMinSupports[k % std::size(kMinSupports)];
  }
  std::atomic<size_t> next_cold{0};

  // One-second slices; a query belongs to the slice it completes in, and
  // only whole seconds inside the window count.
  const size_t num_slices = static_cast<size_t>(args.seconds);
  const frapp::serve::ServerStatsWire before = Must(Stats(s), "stats");
  ResetPeakRss(getpid());
  ResetPeakRss(s.server->pid());
  std::vector<ClientTally> tallies(kClients);
  const double start = NowS();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ClientTally& t = tallies[c];
      t.slices.resize(num_slices + 1);
      auto client = Connect(s);
      for (uint64_t q = 0;; ++q) {
        const double now = NowS() - start;
        if (now >= args.seconds) break;
        const Key* key = nullptr;
        ColdQuery* cold = nullptr;
        QueryKind kind = QueryKind::kMine;
        size_t due = next_cold.load();
        if (due < num_cold && now >= static_cast<double>(due) / kColdPerSecond &&
            next_cold.compare_exchange_strong(due, due + 1)) {
          cold = &colds[due];
          key = &cold->key;
        } else {
          const Draw& draw = stream[next_draw++ % stream.size()];
          key = &s.keys[s.zipf_order[draw.rank]];
          kind = draw.kind;
        }
        const bool traced = args.trace && q % 2 == 1;
        const frapp::serve::QueryRequest request = RequestFor(s, *key, kind);
        const double t0 = NowS();
        StatusOr<frapp::serve::QueryResponse> r = Status::Internal("unset");
        int64_t span = -1;
        {
          std::optional<ScopedOp> op;
          if (traced) {
            op.emplace(q + 1, static_cast<int>(key->spec.kind));
            span = GlobalTracer().Begin(Stage::kServeQuery);
          }
          r = client->Query(request);
          if (r.ok()) GlobalTracer().SetOutcome(span, static_cast<uint8_t>(r->outcome));
          GlobalTracer().End(span);
        }
        const double t1 = NowS();
        ++t.attempted;
        bool ok = r.ok();
        if (ok && cold != nullptr) {
          cold->answer = AnswerFingerprint(*r);
          cold->answered = true;
        } else if (ok && AnswerFingerprint(*r) != key->expected[static_cast<size_t>(kind)]) {
          ok = false;
          ++t.mismatched;
        }
        if (!ok) ++t.failed;
        Slice& slice =
            t.slices[std::min(num_slices, static_cast<size_t>(t1 - start))];
        slice.succeeded += ok ? 1 : 0;
        slice.latencies_ms.push_back(ok ? (t1 - t0) * 1e3 : kFailedLatencyMs);
        (traced ? t.traced_s : t.untraced_s) += t1 - t0;
        ++(traced ? t.traced : t.untraced);
        if (traced && r.ok()) {
          const size_t o = static_cast<size_t>(r->outcome);
          t.rtt_ms[o] += (t1 - t0) * 1e3;
          t.broker_ms[o] += static_cast<double>(r->elapsed_micros) * 1e-3;
          ++t.count[o];
        }
      }
    });
  }
  // Tracing is on for the whole window; each client traces every other
  // query (odd q) so traced and untraced queries interleave.
  GlobalTracer().set_enabled(args.trace);
  for (std::thread& t : clients) t.join();
  GlobalTracer().set_enabled(false);
  report.window_s = NowS() - start;
  report.pool_latencies = true;
  report.slices.resize(num_slices);
  for (size_t i = 0; i < num_slices; ++i) {
    Slice& slice = report.slices[i];
    slice.seconds = 1.0;
    for (const ClientTally& t : tallies) {
      slice.succeeded += t.slices[i].succeeded;
      slice.latencies_ms.insert(slice.latencies_ms.end(),
                                t.slices[i].latencies_ms.begin(),
                                t.slices[i].latencies_ms.end());
    }
  }
  const frapp::serve::ServerStatsWire after = Must(Stats(s), "stats");
  report.peak_rss_mb = PeakRssMb(getpid()) + PeakRssMb(s.server->pid());
  if (!state->server->Stop()) {
    std::cerr << "serve: did not drain cleanly on SIGTERM\n";
    report.correct = false;
  }

  TracedPhase phase;
  ClientTally all;
  for (const ClientTally& t : tallies) {
    report.attempted += t.attempted;
    report.failed += t.failed;
    if (t.mismatched > 0) report.correct = false;
    for (size_t o = 0; o < 3; ++o) {
      all.rtt_ms[o] += t.rtt_ms[o];
      all.broker_ms[o] += t.broker_ms[o];
      all.count[o] += t.count[o];
    }
    phase.traced_ops += t.traced;
    phase.untraced_ops += t.untraced;
    phase.traced_s += t.traced_s;
    phase.untraced_s += t.untraced_s;
  }

  // Cold answers, checked outside the timed window.
  std::vector<char> wrong(colds.size(), 0);
  ParallelSetup(colds.size(), 4, [&](size_t k) {
    const ColdQuery& cold = colds[k];
    if (!cold.answered) return;
    const AprioriResult expected = MineInProcess(
        *s.table, cold.key.spec, cold.key.perturb_seed, {cold.key.min_support})[0];
    wrong[k] = cold.answer != Fingerprint(expected);
  });
  for (char w : wrong) {
    if (w) {
      report.correct = false;
      ++report.failed;
    }
  }

  if (args.trace) {
    ZeroLayerMetrics(&report);
    FillSpanMetrics(GlobalTracer(), phase, {}, &report);
    static const char* const kOutcome[3] = {"miss", "hit", "coalesced"};
    double wire = 0;
    uint64_t answered = 0;
    for (size_t o = 0; o < 3; ++o) {
      if (all.count[o] == 0) continue;
      const double n = static_cast<double>(all.count[o]);
      report.layer[std::string("serve.rtt_ms.") + kOutcome[o]] = all.rtt_ms[o] / n;
      report.layer[std::string("serve.broker_ms.") + kOutcome[o]] =
          all.broker_ms[o] / n;
      wire += all.rtt_ms[o] - all.broker_ms[o];
      answered += all.count[o];
    }
    if (answered > 0) report.layer["serve.wire_ms"] = wire / static_cast<double>(answered);
    const double queries = static_cast<double>(after.queries - before.queries);
    if (queries > 0) {
      report.layer["serve.hit_ratio"] =
          static_cast<double>(after.cache_hits - before.cache_hits) / queries;
      report.layer["serve.coalesced_ratio"] =
          static_cast<double>(after.coalesced - before.coalesced) / queries;
      report.layer["serve.mine_runs"] =
          static_cast<double>(after.mine_runs - before.mine_runs) / queries;
      report.layer["serve.evictions"] =
          static_cast<double>(after.cache_evictions - before.cache_evictions) /
          queries;
      report.layer["serve.store_misses"] =
          static_cast<double>(after.store_misses - before.store_misses) / queries;
      report.layer["serve.rejected"] =
          static_cast<double>(after.rejected - before.rejected) / queries;
    }
  }
  return report;
}

}  // namespace perfbench
