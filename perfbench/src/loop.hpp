// The measurement loop every workload shares: per-thread meters around
// the loop's calls into the engine, and the open-loop run that
// injects on a fixed schedule, alternates two bin assignments, and
// records per-epoch latency and migration windows.
#pragma once

#include <malloc.h>

#include <atomic>
#include <cmath>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace perfbench {

/// The cost of one NowNs() reading, measured once: subtracted from every
/// timed call so calls of a few records are not billed for the clock.
inline uint64_t ClockCostNs() {
  static const uint64_t cost = [] {
    std::vector<double> d;
    for (int i = 0; i < 1001; ++i) {
      uint64_t a = NowNs();
      uint64_t b = NowNs();
      d.push_back(static_cast<double>(b - a));
    }
    return static_cast<uint64_t>(Median(d));
  }();
  return cost;
}

/// Duration of [t0, t1] less the clock's own cost.
inline uint64_t Elapsed(uint64_t t0, uint64_t t1) {
  uint64_t d = t1 - t0;
  return d > ClockCostNs() ? d - ClockCostNs() : 0;
}

/// One worker thread's meter: span log, layer counters and the injector's
/// lateness and loop-gap record. Clock reads around engine calls happen
/// only when `trace` is set, so untraced runs pay for none of them.
struct Meter {
  bool trace = false;
  SpanLog log;
  LayerCounters c;
  std::vector<double> late_ms;  // worst injection lateness of each epoch
  double loop_gap_ms_max = 0;
  double peak_rss_mb = 0;

  Meter() = default;
  Meter(bool on, uint32_t pid, uint32_t tid, uint64_t every)
      : trace(on), log(on, pid, tid, every) {
    if (on) ClockCostNs();  // calibrate before anything is timed
  }

  /// Folds this meter into a process report.
  void MergeInto(ProcReport& rep) {
    rep.counters.Add(c);
    rep.spans.insert(rep.spans.end(), log.spans.begin(), log.spans.end());
    rep.late_ms.insert(rep.late_ms.end(), late_ms.begin(), late_ms.end());
    rep.loop_gap_ms_max = std::max(rep.loop_gap_ms_max, loop_gap_ms_max);
    rep.peak_rss_mb = std::max(rep.peak_rss_mb, peak_rss_mb);
  }
};

/// Times the enclosing scope into `*acc` and the span log (traced runs).
class Timed {
 public:
  Timed(Meter& m, uint32_t kind, uint64_t epoch, uint64_t* acc)
      : m_(m), kind_(kind), epoch_(epoch), acc_(acc),
        t0_(m.trace ? NowNs() : 0) {}
  ~Timed() {
    if (!m_.trace) return;
    uint64_t t1 = NowNs();
    *acc_ += Elapsed(t0_, t1);
    m_.log.Add(kind_, t0_, t1, epoch_);
  }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

 private:
  Meter& m_;
  uint32_t kind_;
  uint64_t epoch_;
  uint64_t* acc_;
  uint64_t t0_;
};

/// Worker::Step with its call count, useful-step count and busy time.
/// Only steps that did work leave a span: idle polls would swamp the log.
inline bool MeteredStep(timely::Worker& w, Meter& m, uint64_t epoch) {
  if (!m.trace) return w.Step();
  uint64_t t0 = NowNs();
  bool did = w.Step();
  uint64_t t1 = NowNs();
  m.c.step_calls++;
  m.c.step_useful += did ? 1 : 0;
  m.c.step_ns += Elapsed(t0, t1);
  if (did) m.log.Add(kStep, t0, t1, epoch);
  return did;
}

/// Process-wide sense barrier for the measurement origin: returns the
/// origin, taken by the first worker once every local worker is ready.
struct Origin {
  std::atomic<uint32_t> ready{0};
  std::atomic<uint64_t> t{0};

  uint64_t Arrive(uint32_t local_workers) {
    ready.fetch_add(1);
    while (ready.load() < local_workers) std::this_thread::yield();
    uint64_t expected = 0;
    t.compare_exchange_strong(expected, NowNs());
    return t.load();
  }
};

/// Returns freed heap to the OS between the set-ups of one run, so each
/// set-up and the measured run start from the same resident baseline.
inline void TrimHeap() { ::malloc_trim(0); }

/// Span sampling: call spans are kept for every n-th epoch, which keeps a
/// 20 s traced run's file in the tens of MB.
constexpr uint64_t kClosedSpanEvery = 16;
constexpr uint64_t kPacedSpanEvery = 100;

struct OpenLoopSpec {
  double rate = 0;  // records/s, every worker of every process together
  uint64_t epoch_ns = 1'000'000;
  uint64_t duration_ns = 0;
  uint64_t period_ns = 0;  // assignments alternate at every multiple
  megaphone::Assignment balanced;
  megaphone::Assignment imbalanced;
};

/// What global worker 0 observes during open-loop sessions.
struct RootMeasure {
  std::vector<double> steady_ms;   // epoch latencies outside migrations
  std::vector<double> mig_ms;      // epoch latencies inside migrations
  std::vector<double> mig_s;       // duration of each migration window
  std::vector<double> mig_max_ms;  // worst epoch latency of each window
  std::vector<double> drain_s;     // final drain of each session
  uint64_t batches = 0;
  double span_s = 0;  // first injection to full drain, summed

  void Merge(RootMeasure&& o) {
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(steady_ms, o.steady_ms);
    append(mig_ms, o.mig_ms);
    append(mig_s, o.mig_s);
    append(mig_max_ms, o.mig_max_ms);
    append(drain_s, o.drain_s);
    batches += o.batches;
    span_s += o.span_s;
  }
};

/// Drives one worker through an open-loop run that starts at epoch 1
/// (epoch 0 is the preload). `src` supplies the inputs:
///   src.Inject(first, stride, n, meter, epoch)  — sends n records with
///       global indices first, first + stride, ... at the current epoch;
///   src.AdvanceTo(epoch) and src.Close()        — the data inputs.
/// `probe` observes end-to-end completion; `root` is non-null only on
/// global worker 0. Returns the number of records this worker injected.
template <typename Source>
uint64_t RunOpenLoop(timely::Worker& w, const OpenLoopSpec& spec,
                     uint64_t start, megaphone::MigrationController<T>& ctl,
                     const timely::ProbeHandle<T>& probe, Source& src,
                     Meter& m, RootMeasure* root) {
  const uint32_t W = w.peers();
  const uint64_t end = start + spec.duration_ns;
  Schedule sched{start, 1e9 / spec.rate};
  uint64_t next_idx = w.index();
  uint64_t cur = 1;
  megaphone::Assignment current = spec.balanced;
  bool to_imbalanced = true;
  uint64_t next_switch = spec.period_ns ? start + spec.period_ns : UINT64_MAX;
  uint64_t last_iter = start;
  uint64_t next_rss = start;
  uint64_t next_ack = 1;
  bool was_migrating = false;
  uint64_t window_start = 0;
  double window_max = 0;
  double epoch_late_ms = 0;  // worst injection lateness this epoch
  {
    // Records of epoch 1 are routed once the control frontier passes it.
    Timed t(m, kControl, cur, &m.c.control_ns);
    ctl.Advance(cur, cur + 1);
  }

  for (;;) {
    uint64_t now = NowNs();
    if (now >= end) break;
    m.loop_gap_ms_max =
        std::max(m.loop_gap_ms_max, static_cast<double>(now - last_iter) * 1e-6);
    last_iter = now;

    uint64_t e = 1 + (now - start) / spec.epoch_ns;
    if (e > cur) {
      m.late_ms.push_back(epoch_late_ms);
      epoch_late_ms = 0;
      {
        Timed t(m, kControl, e, &m.c.control_ns);
        // No migration starts in the last half period: the drain would
        // send its remaining batches at once and distort its window.
        if (now >= next_switch && now + spec.period_ns / 2 <= end) {
          const megaphone::Assignment& next =
              to_imbalanced ? spec.imbalanced : spec.balanced;
          ctl.MigrateTo(current, next);
          current = next;
          to_imbalanced = !to_imbalanced;
          next_switch += spec.period_ns;
        }
        ctl.Advance(e, e + 1);
      }
      src.AdvanceTo(e);
      cur = e;
    }

    uint64_t due = sched.DueBy(now);
    if (next_idx < due) {
      uint64_t n = std::min<uint64_t>((due - next_idx + W - 1) / W, 65536);
      epoch_late_ms = std::max(
          epoch_late_ms,
          static_cast<double>(now - sched.DeadlineOf(next_idx)) * 1e-6);
      src.Inject(next_idx, W, n, m, cur);
      next_idx += n * W;
    }

    MeteredStep(w, m, cur);
    // More runnable threads than cores (mesh threads, the OS) would
    // otherwise put scheduler quanta under every latency.
    std::this_thread::yield();

    if (w.IsLocalRoot() && now >= next_rss) {
      m.peak_rss_mb = std::max(m.peak_rss_mb, RssMb());
      next_rss += 50'000'000;
    }
    if (root == nullptr) continue;
    while (next_ack < cur && !probe.LessEqual(next_ack)) {
      uint64_t deadline = start + next_ack * spec.epoch_ns;
      double lat_ms =
          now > deadline ? static_cast<double>(now - deadline) * 1e-6 : 0.0;
      if (ctl.Migrating()) {
        root->mig_ms.push_back(lat_ms);
        window_max = std::max(window_max, lat_ms);
      } else {
        root->steady_ms.push_back(lat_ms);
      }
      m.log.AddAsync(kEpoch, kEpochTrack, deadline, std::max(now, deadline),
                     next_ack);
      next_ack++;
    }
    bool migrating = ctl.Migrating();
    if (migrating && !was_migrating) {
      window_start = now;
      window_max = 0;
    } else if (!migrating && was_migrating) {
      root->mig_s.push_back(static_cast<double>(now - window_start) * 1e-9);
      root->mig_max_ms.push_back(window_max);
      m.log.AddAsync(kMigration, kMigrationTrack, window_start, now, cur);
    }
    was_migrating = migrating;
  }

  ctl.Close(cur + 1);
  src.Close();
  {
    uint64_t t0 = NowNs();
    w.StepUntil([&] { return probe.Done(); });
    uint64_t t1 = NowNs();
    m.log.Keep(kDrain, t0, t1, cur);
    if (root != nullptr) {
      root->drain_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      root->span_s += static_cast<double>(t1 - start) * 1e-9;
      root->batches += ctl.completed_batches();
      if (was_migrating) {
        // The schedule ended mid-migration; the drain completed it.
        root->mig_s.push_back(static_cast<double>(t1 - window_start) * 1e-9);
        root->mig_max_ms.push_back(window_max);
        m.log.AddAsync(kMigration, kMigrationTrack, window_start, t1, cur);
      }
    }
  }
  if (w.IsLocalRoot()) m.peak_rss_mb = std::max(m.peak_rss_mb, RssMb());
  return (next_idx - w.index()) / W;
}

// ------------------------------------------------------------ results

/// Everything one workload run reports. `e2e` and `layers` are keyed by
/// the metric names of BENCHMARK.json; `notes` are ungated diagnostics.
struct WorkloadResult {
  std::map<std::string, double> e2e;
  std::map<std::string, double> layers;
  std::vector<std::string> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Span> spans;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

inline std::string Fmt(const char* fmt, double a, double b = 0, double c = 0,
                       double d = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c, d);
  return buf;
}

/// Fills the end-to-end metrics, the tail diagnostics and the run-derived
/// layer metrics of an open-loop run.
/// `peaks` holds each session's peak resident set (max over its
/// processes); peak_rss_mb is their median.
inline void ReportOpenLoop(const RootMeasure& root, const ProcReport& rep,
                           uint64_t records, const std::vector<double>& setups,
                           const std::vector<double>& peaks,
                           WorkloadResult& r) {
  r.e2e["recs_per_s"] = static_cast<double>(records) / root.span_s;
  r.e2e["steady_p50_ms"] = Median(root.steady_ms);
  r.e2e["mig_p50_ms"] = Median(root.mig_ms);
  r.e2e["mig_s"] = Median(root.mig_s);
  r.e2e["peak_rss_mb"] = Median(peaks);
  r.e2e["setup_s"] = Median(setups);
  r.notes.push_back(Fmt("tail steady_p99_ms=%.3f (n=%.0f)  mig_p99_ms=%.3f (n=%.0f)",
                        Quantile(root.steady_ms, 0.99),
                        static_cast<double>(root.steady_ms.size()),
                        Quantile(root.mig_ms, 0.99),
                        static_cast<double>(root.mig_ms.size())));
  r.notes.push_back(Fmt("tail mig_max_ms=%.3f (median over n=%.0f migrations)  "
                        "migration windows total %.3f s",
                        Median(root.mig_max_ms),
                        static_cast<double>(root.mig_max_ms.size()),
                        [&] {
                          double s = 0;
                          for (double x : root.mig_s) s += x;
                          return s;
                        }()));
  r.notes.push_back(Fmt("sentinel gen.late_ms_p50=%.3f gen.late_ms_max=%.3f "
                        "gen.loop_gap_ms_max=%.3f (n=%.0f worker-epochs)",
                        Median(rep.late_ms), MaxOf(rep.late_ms),
                        rep.loop_gap_ms_max,
                        static_cast<double>(rep.late_ms.size())));

  const LayerCounters& c = rep.counters;
  double mig_total = 0;
  for (double x : root.mig_s) mig_total += x;
  double migs = std::max<double>(1, static_cast<double>(root.mig_s.size()));
  auto& L = r.layers;
  L["timely.step_calls"] = static_cast<double>(c.step_calls);
  L["timely.step_busy_s"] = static_cast<double>(c.step_ns) * 1e-9;
  L["timely.step_useful_ratio"] =
      c.step_calls ? static_cast<double>(c.step_useful) /
                         static_cast<double>(c.step_calls)
                   : 0;
  L["timely.send_ns_per_rec"] =
      c.send_recs ? static_cast<double>(c.send_ns) /
                        static_cast<double>(c.send_recs)
                  : 0;
  L["timely.drain_s"] = Median(root.drain_s);
  L["megaphone.control_busy_s"] = static_cast<double>(c.control_ns) * 1e-9;
  L["megaphone.batches"] = static_cast<double>(root.batches);
  L["megaphone.chunk_frames"] = static_cast<double>(rep.chunk_frames) / migs;
  L["megaphone.chunk_bytes"] = static_cast<double>(rep.chunk_bytes) / migs;
  L["megaphone.mig_mb_per_s"] =
      mig_total > 0 ? static_cast<double>(rep.chunk_bytes) / 1e6 / mig_total
                    : 0;
  if (c.gen_events) {
    L["nexmark.gen_ns_per_event"] = static_cast<double>(c.gen_ns) /
                                    static_cast<double>(c.gen_events);
  }
  L["gen.late_ms_p50"] = Median(rep.late_ms);
  L["gen.late_ms_max"] = MaxOf(rep.late_ms);
  L["gen.loop_gap_ms_max"] = rep.loop_gap_ms_max;
}

}  // namespace perfbench
