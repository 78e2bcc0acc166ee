// Closed-loop steady-state throughput suite: full multi-worker dataflows,
// native and Megaphone paths, counting keys into dense per-key state so
// the runtime hot path dominates. Each worker injects its share of
// records, advancing epochs as it goes; throughput is records over the
// wall time from spawn to full drain.
//
// This suite produces the machine-readable steady_throughput entries the
// BENCH_*.json baselines record and the CI regression gate
// (tools/bench_check.py) compares against. Run it as `megabench
// --steady`.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.hpp"
#include "common/time_util.hpp"
#include "harness/count_workload.hpp"
#include "harness/report.hpp"
#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {

struct SteadyConfig {
  std::string name;
  uint32_t workers = 4;
  uint64_t records_per_worker = 1 << 18;
  uint64_t epochs = 8;
  uint32_t num_bins = 4096;   // megaphone path only; the paper's §4.2 pick
  bool use_megaphone = true;  // false: native exchange + stateful unary
};

struct SteadyResult {
  double seconds = 0;
  uint64_t records = 0;
  double recs_per_sec = 0;
};

constexpr uint64_t kSteadyDomain = 1 << 16;  // distinct keys, power of two

inline SteadyResult RunSteadyThroughput(const SteadyConfig& cfg) {
  using T = uint64_t;
  using timely::Scope;
  using timely::Worker;

  // Keys are pre-generated per worker and timing starts once every worker
  // is ready to inject, so the measurement covers the dataflow, not the
  // load generator.
  std::atomic<uint32_t> ready{0};
  std::atomic<uint64_t> t_begin{0};

  timely::Execute(timely::Config{cfg.workers}, [&](Worker& w) {
    struct Handles {
      timely::Input<ControlInst, T> ctrl;
      timely::Input<uint64_t, T> data;
      timely::ProbeHandle<T> probe;
    };
    auto handles = w.Dataflow<T>([&](Scope<T>& s) -> Handles {
      auto [ctrl_in, ctrl_stream] = timely::NewInput<ControlInst>(s);
      auto [data_in, data_stream] = timely::NewInput<uint64_t>(s);
      timely::ProbeHandle<T> probe;
      if (cfg.use_megaphone) {
        Config mcfg;
        mcfg.num_bins = cfg.num_bins;
        mcfg.name = "SteadyCount";
        probe = detail::KeyCount(ctrl_stream, data_stream, kSteadyDomain, mcfg)
                    .probe;
      } else {
        probe = timely::Probe(
            detail::NativeKeyCount(data_stream, kSteadyDomain, "NativeCount"));
      }
      return Handles{ctrl_in, data_in, probe};
    });
    auto& [ctrl_in, data_in, probe] = handles;

    const uint64_t chunk = 4096;
    const uint64_t per_epoch =
        (cfg.records_per_worker + cfg.epochs - 1) / cfg.epochs;
    std::vector<uint64_t> keys(per_epoch * cfg.epochs);
    uint64_t idx = w.index();
    for (auto& k : keys) {
      k = HashMix64(idx) & (kSteadyDomain - 1);
      idx += cfg.workers;
    }

    // Sense barrier: measurement starts when every worker is ready.
    ready.fetch_add(1);
    while (ready.load() < cfg.workers) std::this_thread::yield();
    uint64_t expected = 0;
    t_begin.compare_exchange_strong(expected, NowNanos());

    std::vector<uint64_t> batch;
    batch.reserve(chunk);
    size_t next = 0;
    uint64_t chunks = 0;
    for (uint64_t e = 0; e < cfg.epochs; ++e) {
      for (uint64_t i = 0; i < per_epoch; i += chunk) {
        uint64_t n = std::min(chunk, per_epoch - i);
        batch.assign(keys.begin() + next, keys.begin() + next + n);
        next += n;
        data_in->SendBatch(std::move(batch));
        w.Step();
        // Rotate oversubscribed workers at a coarse grain: a yield per
        // chunk costs a context switch each, which dominates at high
        // throughput.
        if ((++chunks & 7) == 0) std::this_thread::yield();
      }
      ctrl_in->AdvanceTo(e + 1);
      data_in->AdvanceTo(e + 1);
    }
    ctrl_in->Close();
    data_in->Close();
    (void)probe;
  });

  SteadyResult r;
  r.seconds = static_cast<double>(NowNanos() - t_begin.load()) * 1e-9;
  const uint64_t per_epoch =
      (cfg.records_per_worker + cfg.epochs - 1) / cfg.epochs;
  r.records = per_epoch * cfg.epochs * cfg.workers;
  r.recs_per_sec = static_cast<double>(r.records) / r.seconds;
  return r;
}

/// Runs the four standard steady configurations (native/megaphone x
/// w1/w4) and prints + returns the JSON the BENCH_*.json baselines and
/// the CI regression gate consume. With --out=FILE the JSON is also
/// written to FILE.
inline int RunSteadySuite(const Flags& flags) {
  const uint64_t records =
      flags.GetInt("records", (1 << 18) * 4ull);  // total, all workers
  const uint64_t epochs = flags.GetInt("epochs", 8);
  const uint32_t bins = static_cast<uint32_t>(flags.GetInt("bins", 4096));
  MEGA_CHECK(bins > 0 && bins <= kSteadyDomain)
      << "--bins must be in [1, " << kSteadyDomain
      << "] (the key domain) so every bin holds at least one key";

  std::vector<SteadyConfig> configs;
  for (uint32_t workers : {1u, 4u}) {
    for (bool mega : {false, true}) {
      SteadyConfig c;
      c.name = std::string(mega ? "megaphone" : "native") + "-count-w" +
               std::to_string(workers);
      c.workers = workers;
      c.records_per_worker = records / workers;
      c.epochs = epochs;
      c.num_bins = bins;
      c.use_megaphone = mega;
      configs.push_back(c);
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench").Value("steady_throughput");
  json.Key("suite").Value("steady_throughput");
  json.Key("steady").BeginArray();
  for (const auto& c : configs) {
    SteadyResult r = RunSteadyThroughput(c);
    std::printf("%-24s workers=%u records=%llu seconds=%.3f recs_per_sec=%.0f\n",
                c.name.c_str(), c.workers,
                static_cast<unsigned long long>(r.records), r.seconds,
                r.recs_per_sec);
    std::fflush(stdout);
    json.BeginObject();
    json.Key("name").Value(c.name);
    json.Key("workers").Value(static_cast<uint64_t>(c.workers));
    json.Key("records").Value(r.records);
    json.Key("seconds").Value(r.seconds);
    json.Key("recs_per_sec").Value(r.recs_per_sec);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  std::printf("# json\n%s\n", json.Str().c_str());

  std::string out = flags.GetStr("out", "");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open --out=%s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.Str().c_str());
    std::fclose(f);
  }
  return 0;
}

}  // namespace megaphone
