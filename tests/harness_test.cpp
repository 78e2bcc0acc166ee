// Tests for the benchmark harness: histograms, timelines, RSS, and the
// open-loop counting workload driver.
#include <gtest/gtest.h>

#include <cstdint>

#include "harness/harness.hpp"
#include "harness/nexmark_workload.hpp"

namespace megaphone {
namespace {

TEST(Histogram, SmallValuesAreExact) {
  Histogram h;
  for (uint64_t v = 0; v < 16; ++v) h.Add(v);
  EXPECT_EQ(h.total(), 16u);
  EXPECT_EQ(h.max(), 15u);
  EXPECT_EQ(h.Quantile(0.0), 0u);
  EXPECT_EQ(h.Quantile(1.0), 15u);
}

TEST(Histogram, BucketsAreMonotone) {
  int prev = -1;
  for (uint64_t v = 0; v < 1 << 20; v = v * 3 / 2 + 1) {
    int b = Histogram::BucketOf(v);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(Histogram, BucketEdgeContainsValue) {
  for (uint64_t v : {0ULL, 1ULL, 15ULL, 16ULL, 17ULL, 1000ULL, 123456789ULL,
                     ~0ULL >> 8}) {
    int b = Histogram::BucketOf(v);
    EXPECT_GE(Histogram::BucketUpperEdge(b), v);
    if (b > 0) {
      EXPECT_LT(Histogram::BucketUpperEdge(b - 1), v);
    }
  }
}

TEST(Histogram, RelativeErrorBounded) {
  // Log-bins with 16 sub-buckets: representative value within ~7% above.
  for (uint64_t v = 100; v < 1'000'000'000; v = v * 7 / 5) {
    uint64_t rep = Histogram::BucketUpperEdge(Histogram::BucketOf(v));
    EXPECT_GE(rep, v);
    EXPECT_LT(static_cast<double>(rep - v), 0.07 * static_cast<double>(v));
  }
}

TEST(Histogram, QuantilesOfUniform) {
  Histogram h;
  for (uint64_t v = 1; v <= 10000; ++v) h.Add(v * 1000);  // 1k..10M
  double p50 = static_cast<double>(h.Quantile(0.50));
  double p99 = static_cast<double>(h.Quantile(0.99));
  EXPECT_NEAR(p50, 5'000'000, 0.1 * 5'000'000);
  EXPECT_NEAR(p99, 9'900'000, 0.1 * 9'900'000);
  EXPECT_EQ(h.max(), 10'000'000u);
}

TEST(Histogram, WeightedAdd) {
  Histogram h;
  h.Add(100, 99);
  h.Add(1'000'000, 1);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_LE(h.Quantile(0.5), 200u);
  EXPECT_GT(h.Quantile(0.995), 500'000u);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.total(), 2u);
  EXPECT_EQ(a.max(), 1000u);
}

TEST(Histogram, CcdfIsDecreasingFromOne) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Add(v * 997);
  auto rows = h.Ccdf();
  ASSERT_FALSE(rows.empty());
  double prev = 1.0;
  for (auto& [ns, frac] : rows) {
    EXPECT_LE(frac, prev);
    prev = frac;
  }
  EXPECT_DOUBLE_EQ(rows.back().second, 0.0);
}

TEST(Timeline, BucketsByWallClock) {
  Timeline tl(250'000'000);
  tl.Add(0, 5'000'000);            // t=0, 5ms
  tl.Add(100'000'000, 10'000'000); // t=0.1s, 10ms
  tl.Add(600'000'000, 50'000'000); // t=0.6s, 50ms
  auto rows = tl.Rows();
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0].t_sec, 0.0);
  EXPECT_NEAR(rows[0].max_ms, 10.0, 1.0);
  EXPECT_EQ(rows[0].samples, 2u);
  EXPECT_NEAR(rows[1].t_sec, 0.5, 1e-9);
  EXPECT_NEAR(rows[1].max_ms, 50.0, 4.0);
}

TEST(Timeline, MaxInWindow) {
  Timeline tl(250'000'000);
  tl.Add(0, 1000);
  tl.Add(500'000'000, 9999);
  tl.Add(1'000'000'000, 777);
  EXPECT_EQ(tl.MaxIn(0, 250'000'000), 1000u);
  EXPECT_EQ(tl.MaxIn(0, 2'000'000'000), 9999u);
  EXPECT_EQ(tl.MaxIn(900'000'000, 2'000'000'000), 777u);
}

TEST(Rss, ReportsPlausibleValue) {
  uint64_t rss = CurrentRssBytes();
  EXPECT_GT(rss, 1u << 20);   // more than 1 MiB
  EXPECT_LT(rss, 1ULL << 40); // less than 1 TiB
}

TEST(Flags, ParsesKeyValueForms) {
  const char* argv[] = {"bench", "--rate=1000", "--workers", "8", "--rss"};
  Flags f(5, const_cast<char**>(argv));
  EXPECT_DOUBLE_EQ(f.GetDouble("rate", 0), 1000.0);
  EXPECT_EQ(f.GetInt("workers", 0), 8u);
  EXPECT_TRUE(f.GetBool("rss", false));
  EXPECT_EQ(f.GetInt("missing", 17), 17u);
}

TEST(CountBench, SmokeRunNoMigration) {
  CountBenchConfig cfg;
  cfg.workers = 2;
  cfg.num_bins = 16;
  cfg.domain = 1 << 12;
  cfg.rate = 20'000;
  cfg.duration_ms = 500;
  cfg.mode = CountMode::kKeyCount;
  auto result = RunCountBench(cfg);
  EXPECT_GT(result.records_sent, 5'000u);
  EXPECT_GT(result.per_record.total(), 0u);
  EXPECT_TRUE(result.migrations.empty());
  EXPECT_FALSE(result.timeline.Rows().empty());
}

class CountBenchModes : public ::testing::TestWithParam<CountMode> {};

TEST_P(CountBenchModes, SmokeRunWithMigration) {
  CountBenchConfig cfg;
  cfg.workers = 2;
  cfg.num_bins = 16;
  cfg.domain = 1 << 12;
  cfg.rate = 20'000;
  cfg.duration_ms = 800;
  cfg.mode = GetParam();
  const bool is_native = cfg.mode == CountMode::kNativeHash ||
                         cfg.mode == CountMode::kNativeKey;
  if (!is_native) {
    cfg.migrations.push_back(
        {200, MakeImbalancedAssignment(cfg.num_bins, cfg.workers)});
    cfg.strategy = MigrationStrategy::kFluid;
  }
  auto result = RunCountBench(cfg);
  EXPECT_GT(result.records_sent, 0u);
  if (!is_native) {
    ASSERT_EQ(result.migrations.size(), 1u);
    EXPECT_GT(result.migrations[0].end_sec, result.migrations[0].start_sec);
    EXPECT_GE(result.migrations[0].batches, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, CountBenchModes,
                         ::testing::Values(CountMode::kHashCount,
                                           CountMode::kKeyCount,
                                           CountMode::kNativeHash,
                                           CountMode::kNativeKey,
                                           CountMode::kPadCount,
                                           CountMode::kSpillCount),
                         [](const auto& info) {
                           switch (info.param) {
                             case CountMode::kHashCount: return "HashCount";
                             case CountMode::kKeyCount: return "KeyCount";
                             case CountMode::kNativeHash: return "NativeHash";
                             case CountMode::kNativeKey: return "NativeKey";
                             case CountMode::kPadCount: return "MapState";
                             case CountMode::kSpillCount: return "LogState";
                           }
                           return "Unknown";
                         });

// The open-loop NEXMark driver end to end: Q3 with one batched migration
// must inject events, produce join outputs, observe exactly one migration
// window and fill the timeline and the steady histogram.
TEST(NexmarkBench, SmokeRunWithMigration) {
  NexmarkBenchConfig cfg;
  cfg.query = 3;
  cfg.workers = 2;
  cfg.rate = 20'000;
  cfg.duration_ms = 800;
  cfg.qcfg.num_bins = 16;
  cfg.strategy = MigrationStrategy::kBatched;
  cfg.batch_size = 4;
  cfg.migrations.push_back(
      {300, MakeImbalancedAssignment(cfg.qcfg.num_bins, cfg.workers)});
  auto result = RunNexmarkBench(cfg);
  EXPECT_GT(result.records_sent, 0u);
  EXPECT_GT(result.outputs, 0u);
  ASSERT_EQ(result.migrations.size(), 1u);
  EXPECT_GT(result.migrations[0].end_sec, result.migrations[0].start_sec);
  EXPECT_GE(result.migrations[0].batches, 1u);
  EXPECT_FALSE(result.timeline.Rows().empty());
  EXPECT_GT(result.steady.total(), 0u);
}

}  // namespace
}  // namespace megaphone
