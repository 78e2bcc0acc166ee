// Per-process bench report shards for distributed runs.
//
// In a multi-process bench each process observes its own latency record:
// the local root worker measures epoch completions against the process's
// tracker replica (so network delay is part of the measurement, exactly
// what the paper's cluster runs see). At shutdown every process encodes
// its observations into a BenchShard and ships it over the dataflow to
// global worker 0 — the wire serde path below — where the shards merge
// into the single report the figure benches print.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/serde.hpp"
#include "harness/histogram.hpp"
#include "timely/timely.hpp"

namespace megaphone {

/// Summary of one migration observed by a bench driver: its window, the
/// maximum latency inside it, the number of completed batches, and the
/// state-chunk traffic the window shipped (frames and wire bytes — this
/// process's share until shards merge, then the sum over all processes).
struct MigrationStats {
  double start_sec = 0;
  double end_sec = 0;
  double duration_sec() const { return end_sec - start_sec; }
  double max_ms = 0;  // max latency observed during the migration window
  size_t batches = 0;
  uint64_t chunk_frames = 0;
  uint64_t chunk_bytes = 0;

  void Serialize(Writer& w) const {
    Encode(w, start_sec);
    Encode(w, end_sec);
    Encode(w, max_ms);
    Encode(w, static_cast<uint64_t>(batches));
    Encode(w, chunk_frames);
    Encode(w, chunk_bytes);
  }
  static MigrationStats Deserialize(Reader& r) {
    MigrationStats ms;
    ms.start_sec = Decode<double>(r);
    ms.end_sec = Decode<double>(r);
    ms.max_ms = Decode<double>(r);
    ms.batches = static_cast<size_t>(Decode<uint64_t>(r));
    ms.chunk_frames = Decode<uint64_t>(r);
    ms.chunk_bytes = Decode<uint64_t>(r);
    return ms;
  }
};

/// One (elapsed seconds, resident-set bytes) sample of a process's RSS.
using RssSample = std::pair<double, uint64_t>;

/// One process's share of a bench run's measurements.
struct BenchShard {
  uint32_t process_index = 0;
  Timeline timeline{250'000'000};
  Histogram per_record;
  Histogram steady;
  std::vector<MigrationStats> migrations;
  uint64_t outputs = 0;
  uint64_t records_sent = 0;
  double duration_sec = 0;
  /// Periodic RSS samples of this process (every figure reports memory,
  /// not just the paper's Fig. 20 — the spill backend's gate needs it).
  std::vector<RssSample> rss;

  void Serialize(Writer& w) const {
    Encode(w, process_index);
    Encode(w, timeline);
    Encode(w, per_record);
    Encode(w, steady);
    Encode(w, migrations);
    Encode(w, outputs);
    Encode(w, records_sent);
    Encode(w, duration_sec);
    Encode(w, rss);
  }
  static BenchShard Deserialize(Reader& r) {
    BenchShard s;
    s.process_index = Decode<uint32_t>(r);
    s.timeline = Decode<Timeline>(r);
    s.per_record = Decode<Histogram>(r);
    s.steady = Decode<Histogram>(r);
    s.migrations = Decode<std::vector<MigrationStats>>(r);
    s.outputs = Decode<uint64_t>(r);
    s.records_sent = Decode<uint64_t>(r);
    s.duration_sec = Decode<double>(r);
    s.rss = Decode<std::vector<RssSample>>(r);
    return s;
  }
};

/// The merged measurements of one open-loop bench run, whatever the
/// workload: the result every runner returns (count adds its adaptive
/// outcome on top).
struct OpenLoopResult {
  Timeline timeline{250'000'000};
  Histogram per_record;  // every acked epoch, steady state and migration
  Histogram steady;      // epochs acked outside migration windows
  std::vector<MigrationStats> migrations;
  /// (t_sec, bytes) RSS samples pooled over every process's shard.
  std::vector<RssSample> rss_samples;
  uint64_t records_sent = 0;
  uint64_t outputs = 0;
  double duration_sec = 0;
  /// True iff this process hosts global worker 0; only then are the
  /// merged metrics above populated.
  bool root = true;
  /// Per-process shards the merged metrics were pooled from (root only).
  std::vector<BenchShard> shards;

  /// The maximum latency observed, by any process, in any migration
  /// window.
  double MaxMigrationMs() const {
    double m = 0;
    for (const auto& ms : migrations) m = std::max(m, ms.max_ms);
    return m;
  }
  /// The highest RSS any process sampled.
  uint64_t PeakRssBytes() const {
    uint64_t peak = 0;
    for (const auto& [t, bytes] : rss_samples) peak = std::max(peak, bytes);
    return peak;
  }
};

namespace detail {

/// Pools per-process shards into one merged result. Timelines and
/// histograms merge sample-by-sample, RSS samples pool onto one time
/// axis, `records_sent`/`outputs` sum and `duration_sec` takes the max
/// across processes. Migration windows come from process 0 (all processes
/// observe the same controller schedule) with each window's chunk traffic
/// summed over every process's shard and its max latency computed over
/// the *merged* timeline, so a spike seen only by a remote process still
/// registers. The shards are kept, sorted by process index. No shards —
/// every process but the one hosting global worker 0 — means no report:
/// `root` is false.
inline OpenLoopResult MergeShards(std::vector<BenchShard> shards) {
  std::sort(shards.begin(), shards.end(),
            [](const BenchShard& a, const BenchShard& b) {
              return a.process_index < b.process_index;
            });
  OpenLoopResult r;
  r.root = !shards.empty();
  for (const auto& s : shards) {
    r.timeline.Merge(s.timeline);
    r.per_record.Merge(s.per_record);
    r.steady.Merge(s.steady);
    r.records_sent += s.records_sent;
    r.outputs += s.outputs;
    r.duration_sec = std::max(r.duration_sec, s.duration_sec);
    r.rss_samples.insert(r.rss_samples.end(), s.rss.begin(), s.rss.end());
    if (s.process_index == 0) {
      r.migrations = s.migrations;  // sorted first
      continue;
    }
    // Windows line up across shards because every process runs the same
    // controller schedule.
    for (size_t i = 0; i < r.migrations.size() && i < s.migrations.size();
         ++i) {
      r.migrations[i].chunk_frames += s.migrations[i].chunk_frames;
      r.migrations[i].chunk_bytes += s.migrations[i].chunk_bytes;
    }
  }
  // Stable so equal timestamps keep process order.
  std::stable_sort(r.rss_samples.begin(), r.rss_samples.end(),
                   [](const RssSample& a, const RssSample& b) {
                     return a.first < b.first;
                   });
  for (auto& ms : r.migrations) {
    ms.max_ms = static_cast<double>(r.timeline.MaxIn(
                    static_cast<uint64_t>(ms.start_sec * 1e9),
                    static_cast<uint64_t>(ms.end_sec * 1e9) + 500'000'000)) *
                1e-6;
  }
  r.shards = std::move(shards);
  return r;
}

}  // namespace detail

/// A side channel in the bench dataflow that carries encoded BenchShards
/// to global worker 0. Every worker holds the input handle (and must
/// close it); only each process's local root sends.
template <typename T>
struct ShardChannel {
  timely::Input<std::vector<uint8_t>, T> in;

  /// Sends this process's shard and closes the channel.
  void Finish(const BenchShard& shard) {
    in->Send(EncodeToBytes(shard));
    in->Close();
  }
};

/// Adds the shard side channel to a bench dataflow under construction.
/// The collector runs on global worker 0 and appends every process's
/// shard to `*sink` in arrival order, so `*sink` is complete once the
/// dataflow drains (Execute returns) and stays empty in every other
/// process.
template <typename T>
ShardChannel<T> AddShardChannel(timely::Scope<T>& s,
                                std::vector<BenchShard>* sink) {
  auto [in, stream] = timely::NewInput<std::vector<uint8_t>>(s);
  timely::OperatorBuilder<T> b(s, "BenchShards");
  auto* cin = b.AddInput(
      stream, timely::Pact<std::vector<uint8_t>>::Exchange(
                  [](const std::vector<uint8_t>&) { return uint64_t{0}; }));
  b.Build([cin, sink](timely::OpCtx<T>&) {
    cin->ForEach([&](const T&, std::vector<std::vector<uint8_t>>& recs) {
      for (auto& bytes : recs) {
        sink->push_back(DecodeFromBytes<BenchShard>(bytes));
      }
    });
  });
  return ShardChannel<T>{std::move(in)};
}

}  // namespace megaphone
