// Shared pieces of the repository benchmark: the input generator, the
// statistics and memory probes, the span recorder behind the traced run,
// the per-process report a forked peer sends home, and the two-process
// loopback launcher.
//
// Everything here belongs to the benchmark. The engine is reached only
// through public functions of src/timely, src/megaphone, src/state,
// src/common/serde.hpp, src/net and src/nexmark, and every timing is taken
// from the benchmark's own files around those calls.
#pragma once

#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "net/socket.hpp"
#include "timely/runtime.hpp"

namespace perfbench {

using T = uint64_t;  // epoch type of every dataflow in the benchmark

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Restricts the calling thread to CPUs [first, first + count) (modulo
/// the CPUs online) for the lifetime of the object, then restores its
/// previous mask. Threads it starts meanwhile inherit the restriction.
class CpuScope {
 public:
  CpuScope(uint32_t first, uint32_t count) {
    ::pthread_getaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
    Restrict(first, count);
  }
  ~CpuScope() {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(saved_), &saved_);
  }
  CpuScope(const CpuScope&) = delete;
  CpuScope& operator=(const CpuScope&) = delete;

  static void Restrict(uint32_t first, uint32_t count) {
    long n = ::sysconf(_SC_NPROCESSORS_ONLN);
    if (n <= 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (uint32_t i = 0; i < count; ++i) {
      CPU_SET((first + i) % static_cast<uint32_t>(n), &set);
    }
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  }

 private:
  cpu_set_t saved_;
};

/// Pins the calling worker thread to one CPU for good, so the OS neither
/// stacks two workers on one CPU nor moves a worker between CPUs mid-run.
inline void PinToCpu(uint32_t cpu) { CpuScope::Restrict(cpu, 1); }

// ------------------------------------------------------------ inputs

/// SplitMix64 finalizer: the benchmark's own generator, independent of
/// the hashing the engine uses internally.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Key of global record `i` under workload seed `seed`, in [0, domain).
inline uint64_t KeyAt(uint64_t seed, uint64_t i, uint64_t domain) {
  return Mix(Mix(seed) ^ i) & (domain - 1);
}

/// Per-key term of the order-independent digest of folded keys: the
/// digest of a multiset is the wrapping sum of its members' terms.
inline uint64_t KeyTerm(uint64_t key) { return Mix(key ^ 0x6a09e667f3bcc909ULL); }

/// Order-independent digest term of one serialized output record.
inline uint64_t BytesTerm(const std::vector<uint8_t>& bytes) {
  uint64_t h = bytes.size();
  size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    uint64_t v;
    std::memcpy(&v, bytes.data() + i, 8);
    h = Mix(h ^ v);
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
  return Mix(h ^ tail);
}

/// Open-loop schedule: global record i is due at start + i / rate.
struct Schedule {
  uint64_t start = 0;
  double ns_per_record = 1;

  uint64_t DeadlineOf(uint64_t i) const {
    return start + static_cast<uint64_t>(ns_per_record * static_cast<double>(i));
  }
  /// Records due by `now` (record 0 is due at `start`).
  uint64_t DueBy(uint64_t now) const {
    if (now < start) return 0;
    return static_cast<uint64_t>(static_cast<double>(now - start) /
                                 ns_per_record) + 1;
  }
};

// --------------------------------------------------------- statistics

/// Quantile by linear interpolation between order statistics; NaN for an
/// empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
inline double MaxOf(const std::vector<double>& v) {
  return v.empty() ? std::numeric_limits<double>::quiet_NaN()
                   : *std::max_element(v.begin(), v.end());
}

/// Median of repeated trials with the extremes kept beside it.
struct Trials {
  double median = 0, min = 0, max = 0;
  static Trials Of(const std::vector<double>& v) {
    return Trials{Median(v), *std::min_element(v.begin(), v.end()),
                  *std::max_element(v.begin(), v.end())};
  }
};

/// Resident set size of this process, in MiB.
inline double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// -------------------------------------------------------------- spans

/// Span names, one per layer boundary the benchmark loop crosses.
enum SpanKind : uint32_t {
  kStep,       // Worker::Step
  kSend,       // Input::Send / SendBatch
  kGen,        // input generation (keys or nexmark::Generator::At)
  kControl,    // MigrationController::MigrateTo / Advance
  kDrain,      // final StepUntil(probe.Done())
  kEpoch,      // one epoch: scheduled close to probe completion
  kMigration,  // one migration window: Migrating() true
  kSpanKinds
};
inline const char* SpanName(uint32_t k) {
  static const char* names[] = {"timely.step",       "timely.send",
                                "gen.inputs",        "megaphone.control",
                                "timely.drain",      "epoch.latency",
                                "megaphone.migration"};
  return k < kSpanKinds ? names[k] : "?";
}

/// Epoch and migration spans are asynchronous to the worker's calls; they
/// go on tracks of their own so they never nest around the call spans.
constexpr uint32_t kEpochTrack = 1000;
constexpr uint32_t kMigrationTrack = 1001;

struct Span {
  uint32_t kind = 0;
  uint32_t pid = 0;
  uint32_t tid = 0;
  uint32_t pad = 0;
  uint64_t start = 0;
  uint64_t end = 0;
  uint64_t epoch = 0;
};

/// Per-thread, in-memory span log. Call spans are kept only for sampled
/// epochs (every `every`-th) and the log is capped, so memory and the
/// trace file stay bounded; the counters in LayerCounters see every call.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(bool on, uint32_t pid, uint32_t tid, uint64_t every)
      : on_(on), pid_(pid), tid_(tid), every_(every) {}

  bool Sampled(uint64_t epoch) const { return on_ && epoch % every_ == 0; }
  /// A call span of this thread, kept if its epoch is sampled.
  void Add(uint32_t kind, uint64_t start, uint64_t end, uint64_t epoch) {
    if (Sampled(epoch)) Keep(kind, start, end, epoch);
  }
  /// A call span of this thread, kept whatever its epoch.
  void Keep(uint32_t kind, uint64_t start, uint64_t end, uint64_t epoch) {
    if (on_ && spans.size() < kCap) {
      spans.push_back(Span{kind, pid_, tid_, 0, start, end, epoch});
    }
  }
  /// Asynchronous spans (epochs, migrations) are rare; keep them all, on
  /// a track of their own.
  void AddAsync(uint32_t kind, uint32_t track, uint64_t start, uint64_t end,
                uint64_t epoch) {
    if (on_ && spans.size() < kCap) {
      spans.push_back(Span{kind, pid_, track, 0, start, end, epoch});
    }
  }

  std::vector<Span> spans;

 private:
  static constexpr size_t kCap = 400'000;
  bool on_ = false;
  uint32_t pid_ = 0;
  uint32_t tid_ = 0;
  uint64_t every_ = 1;
};

/// Per-layer counts and busy times measured around the loop's calls.
/// Trivially copyable, so it travels through serde as raw bytes.
struct LayerCounters {
  uint64_t step_calls = 0;
  uint64_t step_useful = 0;
  uint64_t step_ns = 0;
  uint64_t send_ns = 0;
  uint64_t send_recs = 0;
  uint64_t gen_ns = 0;
  uint64_t gen_events = 0;
  uint64_t control_ns = 0;

  void Add(const LayerCounters& o) {
    step_calls += o.step_calls;
    step_useful += o.step_useful;
    step_ns += o.step_ns;
    send_ns += o.send_ns;
    send_recs += o.send_recs;
    gen_ns += o.gen_ns;
    gen_events += o.gen_events;
    control_ns += o.control_ns;
  }
};

/// What one process of a run measured; a forked peer ships it home over a
/// pipe when its part of the run ends.
struct ProcReport {
  LayerCounters counters;
  std::vector<Span> spans;
  std::vector<double> late_ms;  // injector lateness, worst of each epoch
  double loop_gap_ms_max = 0;
  double peak_rss_mb = 0;
  /// (global worker, records injected by it).
  std::vector<std::pair<uint32_t, uint64_t>> sent;
  uint64_t out_count = 0;   // output records seen by this process's sinks
  uint64_t out_digest = 0;  // wrapping sum of their BytesTerm
  uint64_t chunk_frames = 0;
  uint64_t chunk_bytes = 0;

  MEGA_SERDE_FIELDS(ProcReport, counters, spans, late_ms, loop_gap_ms_max,
                    peak_rss_mb, sent, out_count, out_digest, chunk_frames,
                    chunk_bytes)

  void Merge(ProcReport&& o) {
    counters.Add(o.counters);
    spans.insert(spans.end(), o.spans.begin(), o.spans.end());
    late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
    loop_gap_ms_max = std::max(loop_gap_ms_max, o.loop_gap_ms_max);
    peak_rss_mb = std::max(peak_rss_mb, o.peak_rss_mb);
    sent.insert(sent.end(), o.sent.begin(), o.sent.end());
    out_count += o.out_count;
    out_digest += o.out_digest;
    chunk_frames += o.chunk_frames;
    chunk_bytes += o.chunk_bytes;
  }
};

// ----------------------------------------------------- process launch

namespace detail {
inline void WriteAll(int fd, const uint8_t* p, size_t n) {
  while (n > 0) {
    ssize_t k = ::write(fd, p, n);
    if (k <= 0) return;
    p += k;
    n -= static_cast<size_t>(k);
  }
}
inline std::vector<uint8_t> ReadAll(int fd) {
  std::vector<uint8_t> out;
  uint8_t buf[1 << 16];
  for (;;) {
    ssize_t k = ::read(fd, buf, sizeof(buf));
    if (k <= 0) break;
    out.insert(out.end(), buf, buf + k);
  }
  return out;
}
}  // namespace detail

/// Runs `fn(config, report)` in two processes of `workers` worker threads
/// each, connected by the loopback TCP mesh. The child is forked before
/// any thread exists (the caller must be single-threaded), runs its half,
/// sends its ProcReport over a pipe and exits. The parent runs process 0,
/// merges the child's report into `report` and returns fn's result. A
/// failed child fails the run.
template <typename Fn>
auto RunTwoProcesses(uint32_t workers, ProcReport& report, Fn fn) {
  int listeners[2];
  timely::Config cfg;
  cfg.workers = workers;
  cfg.processes = 2;
  for (int p = 0; p < 2; ++p) {
    listeners[p] = megaphone::net::BindListener("127.0.0.1", 0, 4);
    cfg.addresses.push_back(
        "127.0.0.1:" +
        std::to_string(megaphone::net::ListenerPort(listeners[p])));
  }
  int pipefd[2];
  if (::pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(pipefd[0]);
    ::close(listeners[0]);
    cfg.process_index = 1;
    cfg.listen_fd = listeners[1];
    int rc = 0;
    ProcReport mine;
    try {
      fn(cfg, mine);
      std::vector<uint8_t> bytes = megaphone::EncodeToBytes(mine);
      detail::WriteAll(pipefd[1], bytes.data(), bytes.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: process 1 failed: %s\n", e.what());
      rc = 1;
    }
    ::close(pipefd[1]);
    std::fflush(stderr);
    ::_exit(rc);
  }
  ::close(pipefd[1]);
  ::close(listeners[1]);
  cfg.process_index = 0;
  cfg.listen_fd = listeners[0];
  auto result = [&] {
    try {
      return fn(cfg, report);
    } catch (...) {
      ::close(pipefd[0]);
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      throw;
    }
  }();
  std::vector<uint8_t> bytes = detail::ReadAll(pipefd[0]);
  ::close(pipefd[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || bytes.empty()) {
    throw std::runtime_error("process 1 of the mesh failed");
  }
  report.Merge(megaphone::DecodeFromBytes<ProcReport>(bytes));
  return result;
}

}  // namespace perfbench
