#include "trace.h"

#include <chrono>
#include <cstdio>
#include <functional>
#include <thread>

#include "bench.h"

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<int64_t> open;  // ids of this thread's open spans
  uint64_t op = 0;
  int mech = -1;
  uint32_t tid = 0;
};

ThreadState& Local() {
  thread_local ThreadState state = [] {
    ThreadState s;
    s.tid = static_cast<uint32_t>(
        std::hash<std::thread::id>()(std::this_thread::get_id()) & 0xffff);
    return s;
  }();
  return state;
}

}  // namespace

const char* StageName(Stage stage) {
  static const char* const kNames[] = {
      "op",          "data.open",    "data.read",     "core.make_mechanism",
      "core.perturb", "mining.index", "pipeline.assemble", "core.estimate",
      "mining.count", "mining.walk",  "data.csv_parse", "data.bin_append",
      "store.load",  "store.remine", "store.save",    "dist.connect",
      "dist.send",    "dist.recv",     "dist.shutdown",
      "serve.query",
  };
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Stage::kNumStages));
  return kNames[static_cast<size_t>(stage)];
}

Tracer::Tracer() : origin_ns_(NowNs()) {}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

void Tracer::EnterOp(uint64_t op, int mech) {
  ThreadState& local = Local();
  local.op = op;
  local.mech = mech;
  global_op_.store(op, std::memory_order_relaxed);
  global_mech_.store(mech, std::memory_order_relaxed);
}

void Tracer::LeaveOp() {
  ThreadState& local = Local();
  local.op = 0;
  local.mech = -1;
}

int64_t Tracer::Begin(Stage stage, size_t level, uint64_t items,
                      bool detached) {
  if (!enabled()) return -1;
  ThreadState& local = Local();
  Span span;
  span.stage = stage;
  span.level = static_cast<uint8_t>(level > 255 ? 255 : level);
  span.items = items;
  span.tid = local.tid;
  span.parent = detached || local.open.empty() ? -1 : local.open.back();
  span.op = local.op != 0 ? local.op : global_op_.load(std::memory_order_relaxed);
  span.mech = static_cast<int8_t>(
      local.op != 0 ? local.mech : global_mech_.load(std::memory_order_relaxed));
  int64_t id = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (spans_.size() >= kMaxSpans) {
      ++dropped_;
      return -1;
    }
    id = static_cast<int64_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(span);
  }
  if (!detached) local.open.push_back(id);
  return id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  const uint64_t now = NowNs();
  ThreadState& local = Local();
  if (!local.open.empty() && local.open.back() == id) local.open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

void Tracer::SetOutcome(int64_t id, uint8_t outcome) {
  if (id < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].outcome = outcome;
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Snapshot();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < s.start_ns) continue;  // never closed
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"cat\":\"frapp\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
        "\"parent\":%lld,\"op\":%llu,\"mech\":\"%s\",\"level\":%u,"
        "\"items\":%llu,\"outcome\":%u}}\n",
        first ? "" : ",", StageName(s.stage), s.tid,
        static_cast<double>(s.start_ns - origin_ns_) / 1e3,
        static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
        static_cast<long long>(s.parent), static_cast<unsigned long long>(s.op),
        s.mech >= 0 ? kMechKeys[s.mech] : "", static_cast<unsigned>(s.level),
        static_cast<unsigned long long>(s.items),
        static_cast<unsigned>(s.outcome));
    first = false;
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
