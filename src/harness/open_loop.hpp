// The open-loop measurement every bench workload shares (paper §5):
// per-epoch completion observed through a probe, latencies in 250 ms
// timeline buckets, split by whether a migration is in flight. A runner
// keeps its dataflow and injection loop; each process's local root owns
// one OpenLoopMeter, calls Observe after every Step and Finish once its
// inputs are closed. The returned BenchShard ships to global worker 0 and
// merges (detail::MergeShards) into the run's OpenLoopResult.
#pragma once

#include <cstdint>
#include <utility>

#include "common/time_util.hpp"
#include "harness/bench_shard.hpp"
#include "harness/rss.hpp"
#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {
namespace detail {

template <typename T>
class OpenLoopMeter {
 public:
  /// Epoch length of every open-loop bench: event time advances by one
  /// epoch per millisecond of wall time after the measurement origin.
  static constexpr uint64_t kEpochNs = 1'000'000;
  /// The epoch current `ns` after the origin; epoch 0 is reserved for
  /// set-up (preload, initial controller state).
  static uint64_t EpochAt(uint64_t ns) { return 1 + ns / kEpochNs; }

  /// Every acked epoch adds one timeline sample and a `weight`-weighted
  /// histogram sample: the records this process injects per epoch (merged
  /// totals then count records), or 1 to count epochs.
  OpenLoopMeter(uint64_t start, const timely::ProbeHandle<T>& probe,
                const MigrationController<T>& controller, uint64_t weight)
      : start_(start), probe_(&probe), controller_(&controller),
        weight_(weight) {}

  /// Records every epoch below `cur_epoch` that completed since the last
  /// call, the 250 ms RSS/stall tick, and migration window edges. `now`
  /// is the injection loop's clock reading for this iteration.
  void Observe(uint64_t now, uint64_t cur_epoch) {
    while (next_ack_ < cur_epoch && !probe_->LessEqual(next_ack_)) {
      uint64_t lat = LatencyOf(next_ack_, now);
      shard_.timeline.Add(now - start_, lat, 1);
      shard_.per_record.Add(lat, weight_);
      if (!controller_->Migrating()) shard_.steady.Add(lat, weight_);
      next_ack_++;
    }
    if (now - start_ >= next_tick_) {
      // Outstanding (not yet completed) work also registers latency, so
      // stalls are visible while they happen.
      uint64_t lat = next_ack_ < cur_epoch ? LatencyOf(next_ack_, now) : 0;
      if (lat > 0) shard_.timeline.Add(now - start_, lat, 1);
      shard_.rss.emplace_back(SecondsAt(now), CurrentRssBytes());
      next_tick_ += kTickNs;
    }
    bool migrating = controller_->Migrating();
    if (migrating && !was_migrating_) {
      MigrationStats ms;
      ms.start_sec = SecondsAt(now);
      shard_.migrations.push_back(ms);
      frames_before_ = chunk_counters().frames.load();
      bytes_before_ = chunk_counters().bytes.load();
    }
    if (!migrating && was_migrating_) CloseWindow(now);
    was_migrating_ = migrating;
  }

  /// The drain epilogue: steps until the probe is done (which requires
  /// every process's inputs closed), acks the remaining epochs up to
  /// `cur_epoch` at the drain's end, closes a migration window the drain
  /// completed, and returns this process's shard. Window maxima are left
  /// to MergeShards, which computes them over the merged timeline; the
  /// caller fills in `records_sent` and `outputs`.
  BenchShard Finish(timely::Worker& w, uint64_t cur_epoch,
                    uint32_t process_index) {
    w.StepUntil([&] { return probe_->Done(); });
    uint64_t now = NowNanos();
    for (; next_ack_ <= cur_epoch; ++next_ack_) {
      uint64_t lat = LatencyOf(next_ack_, now);
      if (lat == 0) continue;
      shard_.timeline.Add(now - start_, lat, 1);
      shard_.per_record.Add(lat, weight_);
    }
    if (was_migrating_) CloseWindow(now);
    shard_.process_index = process_index;
    shard_.duration_sec = SecondsAt(now);
    return std::move(shard_);
  }

 private:
  static constexpr uint64_t kTickNs = 250'000'000;

  uint64_t LatencyOf(uint64_t epoch, uint64_t now) const {
    uint64_t deadline = start_ + epoch * kEpochNs;
    return now > deadline ? now - deadline : 0;
  }
  double SecondsAt(uint64_t now) const {
    return static_cast<double>(now - start_) * 1e-9;
  }
  void CloseWindow(uint64_t now) {
    MigrationStats& ms = shard_.migrations.back();
    ms.end_sec = SecondsAt(now);
    ms.batches = controller_->completed_batches() - batches_before_;
    batches_before_ = controller_->completed_batches();
    ms.chunk_frames = chunk_counters().frames.load() - frames_before_;
    ms.chunk_bytes = chunk_counters().bytes.load() - bytes_before_;
  }

  const uint64_t start_;
  const timely::ProbeHandle<T>* probe_;
  const MigrationController<T>* controller_;
  const uint64_t weight_;

  BenchShard shard_;  // this process's observations so far
  uint64_t next_ack_ = 1;   // next epoch awaiting completion
  uint64_t next_tick_ = 0;  // next 250 ms observation boundary
  bool was_migrating_ = false;
  size_t batches_before_ = 0;
  uint64_t frames_before_ = 0;  // chunk_counters() at window start
  uint64_t bytes_before_ = 0;
};

}  // namespace detail
}  // namespace megaphone
