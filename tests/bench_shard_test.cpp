// Wire serde and merge semantics of the bench report shards: Histogram
// and Timeline must round-trip exactly (the distributed figure reports
// are only as good as these), and MergeShards must pool samples, sum
// chunk traffic into process 0's windows, pool RSS samples in time order
// and recompute migration maxima over the merged timeline.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "harness/bench_shard.hpp"
#include "harness/histogram.hpp"

namespace megaphone {
namespace {

TEST(BenchShardSerde, HistogramRoundTripsExactly) {
  Histogram h;
  h.Add(0);
  h.Add(17, 3);
  h.Add(1'000'000, 5);
  h.Add(123'456'789);
  h.Add(~uint64_t{0} >> 1);

  Histogram back = DecodeFromBytes<Histogram>(EncodeToBytes(h));
  EXPECT_EQ(back.total(), h.total());
  EXPECT_EQ(back.max(), h.max());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_EQ(back.Quantile(q), h.Quantile(q)) << "quantile " << q;
  }
  EXPECT_EQ(back.Ccdf(), h.Ccdf());
}

TEST(BenchShardSerde, HistogramRejectsCorruptBucketIndex) {
  Histogram h;
  h.Add(42);
  auto bytes = EncodeToBytes(h);
  // First nonzero entry's bucket index sits right after the u64 count.
  bytes[8] = 0xff;
  bytes[9] = 0xff;
  EXPECT_THROW(DecodeFromBytes<Histogram>(bytes), SerdeError);
}

TEST(BenchShardSerde, TimelineRoundTripAndMerge) {
  Timeline a(250'000'000);
  a.Add(100'000'000, 5'000'000);        // bucket 0
  a.Add(600'000'000, 9'000'000, 2);     // bucket 2

  Timeline back = DecodeFromBytes<Timeline>(EncodeToBytes(a));
  EXPECT_EQ(back.bucket_ns(), a.bucket_ns());
  ASSERT_EQ(back.Rows().size(), a.Rows().size());
  EXPECT_EQ(back.MaxIn(0, ~uint64_t{0}), a.MaxIn(0, ~uint64_t{0}));

  Timeline b(250'000'000);
  b.Add(600'000'000, 50'000'000);       // same bucket, larger latency
  b.Add(1'300'000'000, 1'000'000);      // bucket 5, extends the vector
  back.Merge(b);
  auto rows = back.Rows();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(back.MaxIn(500'000'000, 750'000'000), 50'000'000u);
  EXPECT_EQ(rows[1].samples, 3u);  // 2 from a + 1 from b
}

TEST(BenchShardSerde, BenchShardRoundTrip) {
  BenchShard s;
  s.process_index = 3;
  s.timeline.Add(10'000'000, 2'000'000);
  s.per_record.Add(1'000);
  s.steady.Add(2'000, 7);
  s.migrations.push_back(MigrationStats{0.5, 1.25, 42.5, 16});
  s.outputs = 1234;
  s.records_sent = 99;
  s.duration_sec = 3.5;

  BenchShard back = DecodeFromBytes<BenchShard>(EncodeToBytes(s));
  EXPECT_EQ(back.process_index, 3u);
  EXPECT_EQ(back.steady.total(), 7u);
  ASSERT_EQ(back.migrations.size(), 1u);
  EXPECT_DOUBLE_EQ(back.migrations[0].end_sec, 1.25);
  EXPECT_EQ(back.migrations[0].batches, 16u);
  EXPECT_EQ(back.outputs, 1234u);
  EXPECT_EQ(back.records_sent, 99u);
  EXPECT_DOUBLE_EQ(back.duration_sec, 3.5);
}

TEST(BenchShardMerge, PoolsAcrossProcessesAndRecomputesMigrationMax) {
  // Process 1 saw the migration spike; process 0 owns the windows.
  BenchShard p0, p1;
  p0.process_index = 0;
  p0.timeline.Add(300'000'000, 4'000'000);
  p0.steady.Add(1'000'000, 10);
  p0.records_sent = 100;
  p0.outputs = 7;
  p0.duration_sec = 1.0;
  p0.migrations.push_back(MigrationStats{0.25, 0.5, 4.0, 8, 3, 300});
  p0.rss = {{0.0, 10}, {0.5, 30}};
  p1.process_index = 1;
  p1.timeline.Add(300'000'000, 90'000'000);  // the remote spike
  p1.steady.Add(2'000'000, 10);
  p1.records_sent = 100;
  p1.outputs = 5;
  p1.duration_sec = 1.5;
  // Process 1's view of the same window: its own chunk traffic.
  p1.migrations.push_back(MigrationStats{0.26, 0.49, 0.0, 8, 5, 500});
  p1.rss = {{0.25, 20}, {0.5, 40}};

  // Arrival order scrambled.
  OpenLoopResult r = detail::MergeShards({p1, p0});

  ASSERT_EQ(r.shards.size(), 2u);
  EXPECT_EQ(r.shards[0].process_index, 0u);  // sorted
  EXPECT_EQ(r.steady.total(), 20u);
  EXPECT_EQ(r.records_sent, 200u);
  EXPECT_EQ(r.outputs, 12u);
  EXPECT_DOUBLE_EQ(r.duration_sec, 1.5);
  ASSERT_EQ(r.migrations.size(), 1u);
  // Process 0 owns the window bounds and batch count...
  EXPECT_DOUBLE_EQ(r.migrations[0].start_sec, 0.25);
  EXPECT_DOUBLE_EQ(r.migrations[0].end_sec, 0.5);
  EXPECT_EQ(r.migrations[0].batches, 8u);
  // ...while chunk traffic sums over every process's shard.
  EXPECT_EQ(r.migrations[0].chunk_frames, 8u);
  EXPECT_EQ(r.migrations[0].chunk_bytes, 800u);
  // The window max must reflect the merged timeline, not just process 0.
  EXPECT_DOUBLE_EQ(r.migrations[0].max_ms, 90.0);
  // RSS samples from both shards pool onto one time axis; equal
  // timestamps keep process order.
  const std::vector<RssSample> rss = {{0.0, 10}, {0.25, 20}, {0.5, 30},
                                      {0.5, 40}};
  EXPECT_EQ(r.rss_samples, rss);
}

}  // namespace
}  // namespace megaphone
