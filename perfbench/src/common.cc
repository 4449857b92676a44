#include <fcntl.h>
#include <malloc.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "frapp/data/schema.h"
#include "frapp/eval/metrics.h"

namespace perfbench {

const char* const kMechKeys[5] = {"det-gd", "ran-gd", "mask", "cp", "ind-gd"};

namespace {

// Live children, so a fatal error can still drain them before exiting.
std::mutex g_children_mu;
std::vector<Child*> g_children;

}  // namespace

uint64_t Derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + salt + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<frapp::dist::MechanismSpec> AllMechanisms(
    const frapp::data::CategoricalSchema& schema) {
  using Kind = frapp::dist::MechanismSpec::Kind;
  std::vector<frapp::dist::MechanismSpec> specs;
  for (Kind kind : {Kind::kDetGd, Kind::kRanGd, Kind::kMask, Kind::kCutPaste,
                    Kind::kIndGd}) {
    frapp::dist::MechanismSpec spec;
    spec.kind = kind;
    if (kind == Kind::kRanGd) {
      const double x =
          1.0 / (spec.gamma + static_cast<double>(schema.DomainSize()) - 1.0);
      spec.alpha = 0.5 * spec.gamma * x;
    }
    specs.push_back(spec);
  }
  return specs;
}

std::string MechKey(const frapp::dist::MechanismSpec& spec) {
  return kMechKeys[static_cast<size_t>(spec.kind)];
}

namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

struct Fnv {
  uint64_t h = 0xcbf29ce484222325ULL;
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  void Add(const frapp::mining::Itemset& s) {
    Add(s.size());
    for (const frapp::mining::Item& it : s.items()) {
      Add(static_cast<uint64_t>(it.attribute) << 16 | it.category);
    }
  }
};

}  // namespace

bool SameResult(const frapp::mining::AprioriResult& a,
                const frapp::mining::AprioriResult& b) {
  if (a.by_length.size() != b.by_length.size()) return false;
  for (size_t k = 0; k < a.by_length.size(); ++k) {
    const auto& x = a.by_length[k];
    const auto& y = b.by_length[k];
    if (x.size() != y.size()) return false;
    for (size_t i = 0; i < x.size(); ++i) {
      if (!(x[i].itemset == y[i].itemset) ||
          Bits(x[i].support) != Bits(y[i].support)) {
        return false;
      }
    }
  }
  return true;
}

uint64_t Fingerprint(const frapp::mining::AprioriResult& result) {
  Fnv f;
  for (const auto& level : result.by_length) {
    f.Add(level.size());
    for (const frapp::mining::FrequentItemset& fi : level) {
      f.Add(fi.itemset);
      f.Add(Bits(fi.support));
    }
  }
  return f.h;
}

uint64_t Fingerprint(const std::vector<frapp::mining::FrequentItemset>& top) {
  Fnv f;
  f.Add(top.size());
  for (const frapp::mining::FrequentItemset& fi : top) {
    f.Add(fi.itemset);
    f.Add(Bits(fi.support));
  }
  return f.h;
}

uint64_t Fingerprint(const std::vector<frapp::mining::AssociationRule>& rules) {
  Fnv f;
  f.Add(rules.size());
  for (const frapp::mining::AssociationRule& r : rules) {
    f.Add(r.antecedent);
    f.Add(r.consequent);
    f.Add(Bits(r.support));
    f.Add(Bits(r.confidence));
  }
  return f.h;
}

void AccuracyMean::Add(const frapp::mining::AprioriResult& truth,
                       const frapp::mining::AprioriResult& mined) {
  const frapp::eval::LengthAccuracy overall = frapp::eval::OverallAccuracy(
      frapp::eval::CompareMiningResults(truth, mined));
  if (!std::isnan(overall.support_error)) {
    rho_ += overall.support_error;
    ++rho_n_;
  }
  fp_ += std::isnan(overall.sigma_plus) ? 0.0 : overall.sigma_plus;
  fn_ += std::isnan(overall.sigma_minus) ? 0.0 : overall.sigma_minus;
  ++n_;
}

void AccuracyMean::Fill(Report* report) const {
  report->support_error_pct = rho_n_ ? rho_ / static_cast<double>(rho_n_) : 0;
  report->false_pos_pct = n_ ? fp_ / static_cast<double>(n_) : 0;
  report->false_neg_pct = n_ ? fn_ / static_cast<double>(n_) : 0;
}

// ------------------------------------------------------------- children --

StatusOr<std::unique_ptr<Child>> Child::StartListening(
    const std::vector<std::string>& argv, const std::string& log_prefix) {
  const std::string out_path = log_prefix + ".out";
  const std::string err_path = log_prefix + ".err";
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int err_fd =
      ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0 || err_fd < 0) {
    if (out_fd >= 0) ::close(out_fd);
    if (err_fd >= 0) ::close(err_fd);
    return Status::IOError("cannot create child log files at " + log_prefix);
  }
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);

  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(out_fd, STDOUT_FILENO);
    ::dup2(err_fd, STDERR_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(out_fd);
  ::close(err_fd);
  if (pid < 0) return Status::Internal("fork failed");
  auto child = std::make_unique<Child>();
  child->pid_ = pid;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    g_children.push_back(child.get());
  }

  const double deadline = NowS() + 60.0;
  while (NowS() < deadline) {
    std::ifstream in(out_path);
    std::string line;
    while (std::getline(in, line)) {
      const size_t at = line.find("listening on ");
      const size_t paren = line.find(" (", at == std::string::npos ? 0 : at);
      if (at == std::string::npos || paren == std::string::npos) continue;
      const std::string endpoint = line.substr(at + 13, paren - at - 13);
      const size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos) continue;
      child->port_ =
          static_cast<uint16_t>(std::stoul(endpoint.substr(colon + 1)));
      return child;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      child->pid_ = -1;
      return Status::Unavailable(argv[1] + " exited before listening (see " +
                                 err_path + ")");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return Status::DeadlineExceeded(argv[1] + " did not start listening");
}

Child::~Child() {
  Stop();
  std::lock_guard<std::mutex> lock(g_children_mu);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), this),
                   g_children.end());
}

bool Child::Stop() {
  if (pid_ <= 0) return true;
  ::kill(pid_, SIGTERM);
  int status = 0;
  bool clean = false;
  const double deadline = NowS() + 10.0;
  while (true) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = (WIFEXITED(status) && WEXITSTATUS(status) == 0) ||
              (WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM);
      break;
    }
    if (r < 0) break;
    if (NowS() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return clean;
}

double PeakRssMb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

void ResetPeakRss(pid_t pid) {
  if (pid == ::getpid()) ::malloc_trim(0);
  std::ofstream out("/proc/" + std::to_string(pid) + "/clear_refs");
  out << "5";
}

ScratchDir::ScratchDir(std::string path) : path_(std::move(path)) {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
  std::filesystem::create_directories(path_, ec);
  if (ec) Fatal("cannot create " + path_ + ": " + ec.message());
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void RotateCpu(size_t turn) {
  const std::vector<int>& cpus = AllowedCpus();
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[turn % cpus.size()], &one);
  ::sched_setaffinity(0, sizeof(one), &one);
}

void UnpinCpu() {
  cpu_set_t all;
  CPU_ZERO(&all);
  for (int c : AllowedCpus()) CPU_SET(c, &all);
  ::sched_setaffinity(0, sizeof(all), &all);
}

void ParallelSetup(size_t n, size_t threads,
                   const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < std::min(threads, n); ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

std::string RunInChild(const std::function<std::string()>& fn) {
  int fds[2];
  if (::pipe(fds) != 0) Fatal(std::string("pipe: ") + std::strerror(errno));
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) Fatal(std::string("fork: ") + std::strerror(errno));
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) std::_Exit(1);
    ::close(fds[0]);
    {
      // The parent's children are not this process's to stop (Fatal).
      std::lock_guard<std::mutex> lock(g_children_mu);
      g_children.clear();
    }
    const std::string out = fn();
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = ::write(fds[1], out.data() + done, out.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) std::_Exit(1);
      done += static_cast<size_t>(n);
    }
    std::_Exit(0);
  }
  ::close(fds[1]);
  std::string out;
  char buf[4096];
  while (true) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fatal("set-up child process failed");
  }
  return out;
}

void Fatal(const std::string& what) {
  std::cerr << "perfbench: " << what << std::endl;
  std::vector<Child*> live;
  {
    std::lock_guard<std::mutex> lock(g_children_mu);
    live = g_children;
  }
  for (Child* child : live) child->Stop();
  std::_Exit(1);
}

}  // namespace perfbench
