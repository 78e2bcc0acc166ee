// Google-benchmark micro suite: the per-record and per-migration costs
// underlying the macro experiments, including the serialize-vs-move
// ablation called out in DESIGN.md (state-channel serialization is what
// makes migration cost scale with state size). The steady-state
// throughput suite over full dataflows is `megabench --steady`.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/serde.hpp"
#include "harness/histogram.hpp"
#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace {

using namespace megaphone;

void BM_HashMix64(benchmark::State& state) {
  uint64_t x = 12345;
  for (auto _ : state) {
    x = HashMix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_HashMix64);

void BM_BinOf(benchmark::State& state) {
  uint64_t x = 0;
  const uint32_t bins = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BinOf(HashMix64(x++), bins));
  }
}
BENCHMARK(BM_BinOf)->Arg(16)->Arg(4096)->Arg(1 << 20);

// Routing-table lookup: the extra work every Megaphone record pays over a
// native exchange (Figs. 13-15's overhead source).
void BM_RoutingLookupClean(benchmark::State& state) {
  RoutingTable<uint64_t> rt(static_cast<uint32_t>(state.range(0)), 4);
  uint64_t k = 0;
  for (auto _ : state) {
    BinId b = BinOf(HashMix64(k++), rt.num_bins());
    benchmark::DoNotOptimize(rt.WorkerAt(100, b));
  }
}
BENCHMARK(BM_RoutingLookupClean)->Arg(256)->Arg(4096)->Arg(1 << 16);

void BM_RoutingLookupAfterMigrations(benchmark::State& state) {
  const uint32_t bins = 4096;
  RoutingTable<uint64_t> rt(bins, 4);
  // Ten full reconfigurations of history per bin.
  for (uint64_t v = 1; v <= 10; ++v) {
    for (BinId b = 0; b < bins; ++b) rt.Apply(v * 10, b, (b + v) % 4);
  }
  uint64_t k = 0;
  for (auto _ : state) {
    BinId b = BinOf(HashMix64(k++), bins);
    benchmark::DoNotOptimize(rt.WorkerAt(105, b));
  }
}
BENCHMARK(BM_RoutingLookupAfterMigrations);

void BM_RoutingCompact(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    RoutingTable<uint64_t> rt(4096, 4);
    for (uint64_t v = 1; v <= 10; ++v) {
      for (BinId b = 0; b < 4096; ++b) rt.Apply(v * 10, b, (b + v) % 4);
    }
    state.ResumeTiming();
    rt.Compact(95);
    benchmark::DoNotOptimize(rt.TotalVersions());
  }
}
BENCHMARK(BM_RoutingCompact);

// Serialize-vs-move ablation for a bin of N counters.
using CountBin = Bin<std::vector<uint64_t>, uint64_t, uint64_t>;

CountBin MakeBin(size_t n) {
  CountBin b;
  b.state.resize(n);
  for (size_t i = 0; i < n; ++i) b.state[i] = i;
  return b;
}

void BM_BinMigrateSerialize(benchmark::State& state) {
  CountBin bin = MakeBin(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto bytes = EncodeToBytes(bin);
    auto back = DecodeFromBytes<CountBin>(bytes);
    benchmark::DoNotOptimize(back.state.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_BinMigrateSerialize)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_BinMigrateMove(benchmark::State& state) {
  CountBin bin = MakeBin(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    CountBin moved = std::move(bin);
    benchmark::DoNotOptimize(moved.state.data());
    bin = std::move(moved);  // restore for the next iteration
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_BinMigrateMove)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_HashBinSerialize(benchmark::State& state) {
  Bin<std::unordered_map<uint64_t, uint64_t>, uint64_t, uint64_t> bin;
  for (int64_t i = 0; i < state.range(0); ++i) bin.state[HashMix64(i)] = i;
  for (auto _ : state) {
    auto bytes = EncodeToBytes(bin);
    benchmark::DoNotOptimize(bytes.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_HashBinSerialize)->Arg(1 << 10)->Arg(1 << 14);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram h;
  uint64_t v = 1;
  for (auto _ : state) {
    h.Add(v);
    v = v * 6364136223846793005ULL + 1442695040888963407ULL;
    v >>= 32;
  }
  benchmark::DoNotOptimize(h.total());
}
BENCHMARK(BM_HistogramAdd);

void BM_MutableAntichainUpdate(benchmark::State& state) {
  timely::MutableAntichain<uint64_t> m;
  uint64_t t = 0;
  for (auto _ : state) {
    m.Update(t, +1);
    if (t >= 4) m.Update(t - 4, -1);
    t++;
  }
  benchmark::DoNotOptimize(m.Empty());
}
BENCHMARK(BM_MutableAntichainUpdate);

void BM_ChannelPushPull(benchmark::State& state) {
  timely::Channel<uint64_t, uint64_t> chan(4);
  timely::Bundle<uint64_t, uint64_t> bundle;
  bundle.data.resize(1024, 7);
  for (auto _ : state) {
    timely::Bundle<uint64_t, uint64_t> b = bundle;
    chan.Push(1, std::move(b));
    timely::Bundle<uint64_t, uint64_t> out;
    chan.Pull(1, out);
    benchmark::DoNotOptimize(out.data.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_ChannelPushPull);

// Channel drain: popping N queued bundles one lock at a time vs draining
// the whole queue with one PullAll swap.
void BM_ChannelPullEach(benchmark::State& state) {
  const size_t n = 64;
  timely::Channel<uint64_t, uint64_t> chan(2);
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < n; ++i) {
      timely::Bundle<uint64_t, uint64_t> b;
      b.time = i;
      b.data.resize(256, i);
      chan.Push(0, std::move(b));
    }
    state.ResumeTiming();
    timely::Bundle<uint64_t, uint64_t> out;
    size_t got = 0;
    while (chan.Pull(0, out)) got++;
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ChannelPullEach);

void BM_ChannelPullAll(benchmark::State& state) {
  const size_t n = 64;
  timely::Channel<uint64_t, uint64_t> chan(2);
  std::deque<timely::Bundle<uint64_t, uint64_t>> drained;
  for (auto _ : state) {
    state.PauseTiming();
    for (size_t i = 0; i < n; ++i) {
      timely::Bundle<uint64_t, uint64_t> b;
      b.time = i;
      b.data.resize(256, i);
      chan.Push(0, std::move(b));
    }
    state.ResumeTiming();
    size_t got = chan.PullAll(0, drained);
    benchmark::DoNotOptimize(got);
    drained.clear();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * n));
}
BENCHMARK(BM_ChannelPullAll);

// Bundle-buffer pool: recycling capacity through the channel vs growing a
// fresh vector per bundle (the pre-batching behavior).
void BM_BundleBufferFresh(benchmark::State& state) {
  for (auto _ : state) {
    std::vector<uint64_t> buf;
    for (size_t i = 0; i < 1024; ++i) buf.push_back(i);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 1024));
}
BENCHMARK(BM_BundleBufferFresh);

void BM_BundleBufferPooled(benchmark::State& state) {
  timely::Channel<uint64_t, uint64_t> chan(1);
  for (auto _ : state) {
    std::vector<uint64_t> buf = chan.AcquireBuffer();
    for (size_t i = 0; i < 1024; ++i) buf.push_back(i);
    benchmark::DoNotOptimize(buf.data());
    chan.RecycleBuffer(std::move(buf));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * 1024));
}
BENCHMARK(BM_BundleBufferPooled);

// Routing dispatch: one type-erased call per record (the pre-batching
// hot path) vs one batch_targets call computing every target.
void BM_RoutePerRecordDispatch(benchmark::State& state) {
  auto pact = timely::Pact<uint64_t>::Exchange(
      [](const uint64_t& k) { return HashMix64(k); });
  std::vector<uint64_t> recs(1024);
  for (size_t i = 0; i < recs.size(); ++i) recs[i] = i;
  uint32_t peers = 4;
  benchmark::DoNotOptimize(peers);  // runtime divisor, as in the engine
  uint64_t acc = 0;
  for (auto _ : state) {
    for (const auto& r : recs) acc += pact.hash(r) % peers;
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * recs.size()));
}
BENCHMARK(BM_RoutePerRecordDispatch);

void BM_RouteBatchDispatch(benchmark::State& state) {
  auto pact = timely::Pact<uint64_t>::Exchange(
      [](const uint64_t& k) { return HashMix64(k); });
  std::vector<uint64_t> recs(1024);
  for (size_t i = 0; i < recs.size(); ++i) recs[i] = i;
  std::vector<uint32_t> targets(recs.size());
  for (auto _ : state) {
    pact.batch_targets(recs.data(), recs.size(), 4, targets.data());
    benchmark::DoNotOptimize(targets.data());
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * recs.size()));
}
BENCHMARK(BM_RouteBatchDispatch);

// Progress-batch consolidation: a typical step's change batch collapses
// to a handful of applied deltas.
void BM_ConsolidateChanges(benchmark::State& state) {
  std::vector<timely::Change<uint64_t>> batch;
  for (auto _ : state) {
    state.PauseTiming();
    batch.clear();
    for (uint32_t i = 0; i < 64; ++i) {
      batch.push_back({i % 4, 100 + i % 2, i % 8 == 0 ? +8 : -1});
    }
    state.ResumeTiming();
    timely::ConsolidateChanges(batch);
    benchmark::DoNotOptimize(batch.data());
  }
}
BENCHMARK(BM_ConsolidateChanges);

void BM_PlanOptimizedBatches(benchmark::State& state) {
  const uint32_t bins = static_cast<uint32_t>(state.range(0));
  auto from = MakeInitialAssignment(bins, 8);
  Assignment to = from;
  for (uint32_t b = 0; b < bins; ++b) to[b] = (from[b] + 1 + b % 3) % 8;
  auto moves = DiffAssignments(from, to);
  for (auto _ : state) {
    auto batches =
        PlanBatches(MigrationStrategy::kOptimized, moves, from, 0);
    benchmark::DoNotOptimize(batches.size());
  }
}
BENCHMARK(BM_PlanOptimizedBatches)->Arg(256)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
