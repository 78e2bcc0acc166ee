// The key-count workloads: count-steady (closed-loop record path at two
// workers, then a paced phase migrating the same cache-resident state) and
// count-migrate (64 MiB of dense counts at four workers, migrated
// fluidly while paced input keeps flowing).
//
// Correctness: every run captures the final bins of every worker and
// checks, bin by bin, the number of records folded and an
// order-independent digest of their keys against a reference computed
// from the generator's key sequence.
#include <atomic>
#include <mutex>

#include "loop.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using megaphone::ControlInst;
using DenseBin = megaphone::state::DenseState<uint64_t>;
using CountBin = megaphone::Bin<DenseBin, uint64_t, T>;
using Captured = std::vector<std::pair<uint32_t, std::vector<uint8_t>>>;

struct CountShape {
  uint32_t workers = 2;
  uint32_t log_domain = 16;  // 2^log_domain distinct keys
  uint32_t num_bins = 4096;
  uint64_t chunk_bytes = 64 << 10;
  megaphone::MigrationStrategy strategy = megaphone::MigrationStrategy::kBatched;
  size_t batch_size = 8;

  uint64_t domain() const { return uint64_t{1} << log_domain; }
  uint64_t keys_per_bin() const { return domain() / num_bins; }
  uint64_t bin_bytes() const { return keys_per_bin() * sizeof(uint64_t); }
};

struct CountHandles {
  timely::Input<ControlInst, T> ctrl;
  timely::Input<uint64_t, T> data;
  timely::ProbeHandle<T> probe;
  std::function<void(Captured&)> capture;
};

/// The Megaphone key-count operator: bins hold dense per-key counters;
/// a key's bin is its high bits, its slot the low bits.
CountHandles BuildCount(timely::Scope<T>& s, const CountShape& shape) {
  auto [ctrl_in, ctrl_stream] = timely::NewInput<ControlInst>(s);
  auto [data_in, data_stream] = timely::NewInput<uint64_t>(s);
  megaphone::Config mcfg;
  mcfg.num_bins = shape.num_bins;
  mcfg.chunk_bytes = shape.chunk_bytes;
  mcfg.name = "KeyCount";
  const int shift = 64 - static_cast<int>(shape.log_domain);
  const uint64_t kpb = shape.keys_per_bin();
  auto out = megaphone::Unary<DenseBin, uint64_t>(
      ctrl_stream, data_stream,
      [shift](const uint64_t& k) { return k << shift; },
      [kpb](const T&, DenseBin& state, std::vector<uint64_t>& recs, auto,
            auto&) {
        if (state.empty()) state.resize(kpb);
        for (uint64_t k : recs) state[k & (kpb - 1)]++;
      },
      mcfg);
  return CountHandles{ctrl_in, data_in, out.probe, out.capture_bins};
}

/// Per-bin record count and key digest.
struct BinRef {
  uint64_t count = 0;
  uint64_t digest = 0;
  friend bool operator==(const BinRef&, const BinRef&) = default;
};

void AddKey(std::vector<BinRef>& ref, const CountShape& shape, uint64_t key,
            uint64_t times = 1) {
  BinRef& b = ref[key / shape.keys_per_bin()];
  b.count += times;
  b.digest += times * KeyTerm(key);
}

/// The preload: the first key of every bin.
void AddPreload(std::vector<BinRef>& ref, const CountShape& shape) {
  for (uint64_t b = 0; b < shape.num_bins; ++b) {
    AddKey(ref, shape, b * shape.keys_per_bin());
  }
}

/// Folds captured bins into per-bin counts and digests.
std::vector<BinRef> FoldCaptured(const Captured& bins,
                                 const CountShape& shape) {
  std::vector<BinRef> got(shape.num_bins);
  for (const auto& [b, bytes] : bins) {
    CountBin bin = megaphone::DecodeFromBytes<CountBin>(bytes);
    const auto& v = bin.state.raw();
    for (uint64_t slot = 0; slot < v.size(); ++slot) {
      if (v[slot] == 0) continue;
      uint64_t key = b * shape.keys_per_bin() + slot;
      got[b].count += v[slot];
      got[b].digest += v[slot] * KeyTerm(key);
    }
  }
  return got;
}

/// Records whose effect is missing or wrong: for every bin whose count or
/// digest differs, the larger of its expected and folded counts.
uint64_t CountFailures(const std::vector<BinRef>& got,
                       const std::vector<BinRef>& want) {
  uint64_t failed = 0;
  for (size_t b = 0; b < want.size(); ++b) {
    if (!(got[b] == want[b])) {
      failed += std::max<uint64_t>(1, std::max(got[b].count, want[b].count));
    }
  }
  return failed;
}

/// Injects the first key of every bin at epoch 0, each worker the bins
/// it owns initially. A bin's first record allocates all of its dense
/// counters, so the whole state is resident before measurement starts.
template <typename Data>
void Preload(timely::Worker& w, Data& data, const CountShape& shape) {
  std::vector<uint64_t> batch;
  for (uint64_t b = w.index(); b < shape.num_bins; b += w.peers()) {
    batch.push_back(b * shape.keys_per_bin());
  }
  data->SendBatch(std::move(batch));
}

/// Builds the key-count dataflow, preloads it and reaches the measurement
/// origin; then runs `body(w, handles, origin)` on every worker and
/// finally captures every worker's bins into `captured`. Returns the
/// set-up time: from before the runtime starts to the origin.
template <typename Body>
double CountSession(const CountShape& shape, Captured* captured, Body body) {
  Origin origin;
  std::mutex mu;
  const uint64_t t0 = NowNs();
  timely::Execute(timely::Config{shape.workers}, [&](timely::Worker& w) {
    PinToCpu(w.index());
    CountHandles h = w.Dataflow<T>(
        [&](timely::Scope<T>& s) { return BuildCount(s, shape); });
    Preload(w, h.data, shape);
    h.ctrl->AdvanceTo(1);
    h.data->AdvanceTo(1);
    w.StepUntil([&] { return !h.probe.LessThan(1); });
    uint64_t start = origin.Arrive(w.local_workers());
    body(w, h, start);
    if (!h.ctrl->closed()) h.ctrl->Close();
    if (!h.data->closed()) h.data->Close();
    w.StepUntil([&] { return h.probe.Done(); });
    if (captured != nullptr) {
      Captured mine;
      h.capture(mine);
      std::lock_guard<std::mutex> lock(mu);
      for (auto& c : mine) captured->push_back(std::move(c));
    }
  });
  return static_cast<double>(origin.t.load() - t0) * 1e-9;
}

// ------------------------------------------------------- closed loop

constexpr uint64_t kBatch = 4096;
constexpr uint64_t kBatchesPerEpoch = 16;

/// The outcome of one closed-loop repetition.
struct ClosedRep {
  double recs_per_s = 0;
  double setup_s = 0;
  uint64_t records = 0;
  uint64_t failed = 0;
};

/// One worker's closed loop: `passes` passes over its pre-generated keys
/// in 4096-record batches, stepping after each batch and advancing the
/// epoch every 16 batches. `inject(batch, epoch)` sends one batch.
template <typename Inject>
void ClosedLoop(timely::Worker& w, const std::vector<uint64_t>& keys,
                uint32_t passes, Meter& m, Inject inject) {
  std::vector<uint64_t> batch;
  uint64_t batches = 0;
  uint64_t epoch = 1;
  for (uint32_t p = 0; p < passes; ++p) {
    for (size_t i = 0; i < keys.size(); i += kBatch) {
      size_t n = std::min<size_t>(kBatch, keys.size() - i);
      batch.assign(keys.begin() + static_cast<long>(i),
                   keys.begin() + static_cast<long>(i + n));
      {
        Timed t(m, kSend, epoch, &m.c.send_ns);
        inject(std::move(batch), epoch);
        m.c.send_recs += n;
      }
      batch = {};
      MeteredStep(w, m, epoch);
      // A yield per batch costs a context switch each, which dominates at
      // this rate; rotate at a coarser grain.
      if ((++batches & 7) == 0) std::this_thread::yield();
      if (batches % kBatchesPerEpoch == 0) epoch++;
    }
  }
}

ClosedRep MegaphoneRep(const CountShape& shape,
                       const std::vector<std::vector<uint64_t>>& keys,
                       uint32_t passes, const std::vector<BinRef>& want,
                       const RunOptions& opt, ProcReport& rep) {
  std::atomic<uint64_t> origin{0}, end{0};
  Captured captured;
  std::vector<Meter> meters(shape.workers);
  double setup = CountSession(
      shape, &captured, [&](timely::Worker& w, CountHandles& h, uint64_t start) {
        origin.store(start);
        Meter& m = meters[w.index()] = Meter(opt.trace, 0, w.index(), kClosedSpanEvery);
        uint64_t last = 1;
        ClosedLoop(w, keys[w.index()], passes, m,
                   [&](std::vector<uint64_t>&& b, uint64_t epoch) {
                     if (epoch != last) {
                       h.ctrl->AdvanceTo(epoch);
                       h.data->AdvanceTo(epoch);
                       last = epoch;
                     }
                     h.data->SendBatch(std::move(b));
                   });
        h.ctrl->Close();
        h.data->Close();
        uint64_t t0 = NowNs();
        w.StepUntil([&] { return h.probe.Done(); });
        uint64_t t1 = NowNs();
        m.log.Keep(kDrain, t0, t1, last);
        uint64_t prev = end.load();
        while (prev < t1 && !end.compare_exchange_weak(prev, t1)) {
        }
      });
  for (auto& m : meters) m.MergeInto(rep);
  ClosedRep r;
  r.setup_s = setup;
  r.records = 0;
  for (const auto& k : keys) r.records += k.size() * passes;
  r.recs_per_s = static_cast<double>(r.records) /
                 (static_cast<double>(end.load() - origin.load()) * 1e-9);
  r.failed = CountFailures(FoldCaptured(captured, shape), want);
  TrimHeap();
  return r;
}

/// The native timely reference on the same keys: an exchange by key and
/// a stateful operator with no bins, routing table or migration support.
ClosedRep NativeRep(const CountShape& shape,
                    const std::vector<std::vector<uint64_t>>& keys,
                    uint32_t passes) {
  struct State {
    std::vector<uint64_t> counts;
  };
  Origin origin;
  std::atomic<uint64_t> end{0};
  std::atomic<uint64_t> folded{0};
  const uint32_t W = shape.workers;
  const uint64_t domain = shape.domain();
  timely::Execute(timely::Config{W}, [&](timely::Worker& w) {
    PinToCpu(w.index());
    struct Handles {
      timely::Input<uint64_t, T> data;
      timely::ProbeHandle<T> probe;
    };
    Handles h = w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [data_in, data_stream] = timely::NewInput<uint64_t>(s);
      auto out = timely::StatefulUnary<State, uint64_t>(
          data_stream, "NativeKeyCount",
          [](const uint64_t& k) { return k; },
          [W, domain, &folded](const T&, std::vector<uint64_t>& recs,
                               State& st, timely::OpCtx<T>&,
                               timely::OutputHandle<uint64_t, T>&) {
            if (st.counts.empty()) st.counts.resize(domain / W + 1);
            for (uint64_t k : recs) st.counts[k / W]++;
            folded.fetch_add(recs.size(), std::memory_order_relaxed);
          });
      return Handles{data_in, timely::Probe(out)};
    });
    origin.Arrive(W);
    Meter m;
    uint64_t last = 0;
    ClosedLoop(w, keys[w.index()], passes, m,
               [&](std::vector<uint64_t>&& b, uint64_t epoch) {
                 if (epoch != last) {
                   h.data->AdvanceTo(epoch);
                   last = epoch;
                 }
                 h.data->SendBatch(std::move(b));
               });
    h.data->Close();
    w.StepUntil([&] { return h.probe.Done(); });
    uint64_t t1 = NowNs();
    uint64_t prev = end.load();
    while (prev < t1 && !end.compare_exchange_weak(prev, t1)) {
    }
  });
  ClosedRep r;
  for (const auto& k : keys) r.records += k.size() * passes;
  r.recs_per_s = static_cast<double>(r.records) /
                 (static_cast<double>(end.load() - origin.t.load()) * 1e-9);
  r.failed = folded.load() == r.records ? 0 : 1;
  TrimHeap();
  return r;
}

// -------------------------------------------------------- open loop

struct CountSource {
  CountHandles* h;
  uint64_t seed;
  uint64_t domain;
  std::vector<uint64_t> buf;

  void Inject(uint64_t first, uint64_t stride, uint64_t n, Meter& m,
              uint64_t epoch) {
    {
      Timed t(m, kGen, epoch, &m.c.gen_ns);
      buf.resize(n);
      for (uint64_t j = 0; j < n; ++j) {
        buf[j] = KeyAt(seed, first + j * stride, domain);
      }
    }
    Timed t(m, kSend, epoch, &m.c.send_ns);
    for (uint64_t k : buf) h->data->Send(k);
    m.c.send_recs += n;
  }
  void AdvanceTo(uint64_t e) { h->data->AdvanceTo(e); }
  void Close() { h->data->Close(); }
};

/// One measured open-loop run on the key-count dataflow; returns the
/// set-up time and fills `root`, `rep` and the per-bin failure count.
double CountOpenLoop(const CountShape& shape, const OpenLoopSpec& spec,
                     const RunOptions& opt, RootMeasure& root,
                     ProcReport& rep, uint64_t& records, uint64_t& failed) {
  std::vector<Meter> meters(shape.workers);
  std::vector<uint64_t> sent(shape.workers);
  Captured captured;
  uint64_t frames0 = 0, bytes0 = 0;
  double setup = CountSession(
      shape, &captured, [&](timely::Worker& w, CountHandles& h, uint64_t start) {
        Meter& m = meters[w.index()] = Meter(opt.trace, 0, w.index(), kPacedSpanEvery);
        megaphone::MigrationController<T>::Options mopts;
        mopts.strategy = shape.strategy;
        mopts.batch_size = shape.batch_size;
        megaphone::MigrationController<T> ctl(h.ctrl, h.probe, w.index(),
                                              mopts);
        if (w.index() == 0) {
          frames0 = megaphone::chunk_counters().frames.load();
          bytes0 = megaphone::chunk_counters().bytes.load();
        }
        CountSource src{&h, opt.seed, shape.domain(), {}};
        sent[w.index()] = RunOpenLoop(w, spec, start, ctl, h.probe, src, m,
                                      w.index() == 0 ? &root : nullptr);
      });
  rep.chunk_frames = megaphone::chunk_counters().frames.load() - frames0;
  rep.chunk_bytes = megaphone::chunk_counters().bytes.load() - bytes0;
  for (auto& m : meters) m.MergeInto(rep);

  std::vector<BinRef> want(shape.num_bins);
  AddPreload(want, shape);
  records = 0;
  for (uint32_t g = 0; g < shape.workers; ++g) {
    rep.sent.emplace_back(g, sent[g]);
    records += sent[g];
    for (uint64_t k = 0; k < sent[g]; ++k) {
      AddKey(want, shape, KeyAt(opt.seed, g + k * shape.workers, shape.domain()));
    }
  }
  failed = CountFailures(FoldCaptured(captured, shape), want);
  TrimHeap();
  return setup;
}

/// The paced phase: `sessions` independent launches of the key-count
/// dataflow, each running the open loop for `spec.duration_ns`. Thread
/// placement and memory layout differ between launches and persist within
/// one, so pooling several launches steadies the latency medians; each
/// launch also contributes one set-up time.
struct Paced {
  RootMeasure root;
  ProcReport rep;
  std::vector<double> setups;
  std::vector<double> peaks;  // each session's peak resident set
  uint64_t records = 0;
  uint64_t failed = 0;
};

Paced PacedSessions(const CountShape& shape, const OpenLoopSpec& spec,
                    const RunOptions& opt, int sessions) {
  Paced p;
  for (int i = 0; i < sessions; ++i) {
    RootMeasure root;
    ProcReport rep;
    uint64_t records = 0, failed = 0;
    p.setups.push_back(
        CountOpenLoop(shape, spec, opt, root, rep, records, failed));
    p.peaks.push_back(rep.peak_rss_mb);
    p.root.Merge(std::move(root));
    p.rep.Merge(std::move(rep));
    p.records += records;
    p.failed += failed;
  }
  return p;
}

OpenLoopSpec CountSpec(const CountShape& shape, double rate, double seconds,
                       double period_s) {
  OpenLoopSpec spec;
  spec.rate = rate;
  spec.duration_ns = static_cast<uint64_t>(seconds * 1e9);
  spec.period_ns = static_cast<uint64_t>(period_s * 1e9);
  spec.balanced = megaphone::MakeInitialAssignment(shape.num_bins, shape.workers);
  spec.imbalanced =
      megaphone::MakeImbalancedAssignment(shape.num_bins, shape.workers);
  return spec;
}

/// `bundle_recs`: records per worker-to-worker bundle on the workload's
/// record path.
LayerShape CountLayerShape(const CountShape& shape, const OpenLoopSpec& spec,
                           uint64_t seed, size_t bundle_recs) {
  LayerShape ls;
  ls.seed = seed;
  ls.workers = shape.workers;
  ls.num_bins = shape.num_bins;
  ls.log_domain = shape.log_domain;
  ls.bundle_recs = bundle_recs;
  ls.bin_bytes = shape.bin_bytes();
  ls.chunk_bytes = shape.chunk_bytes;
  ls.balanced = spec.balanced;
  ls.imbalanced = spec.imbalanced;
  return ls;
}

}  // namespace

// count-steady: 2 workers, 2^16 keys in 4096 dense bins (512 KiB, inside
// a core's L2). The first 40% of the run repeats closed-loop injections of
// pre-generated keys with no migration pending, interleaved with the
// native reference; the rest paces the same dataflow at 400k recs/s in
// three independent sessions and migrates its small bins eight per batch,
// every 1.5 s.
WorkloadResult RunCountSteady(const RunOptions& opt) {
  CountShape shape;
  WorkloadResult r;
  ProcReport rep;

  // 512 KiB of keys per worker: with the worker's share of the state it
  // stays in the core's L2, so the closed loop measures the record path
  // rather than memory bandwidth the host shares with its neighbours.
  constexpr uint64_t kKeysPerWorker = 1 << 16;
  constexpr uint32_t kPasses = 128;
  std::vector<std::vector<uint64_t>> keys(shape.workers);
  std::vector<BinRef> pass(shape.num_bins);
  for (uint32_t g = 0; g < shape.workers; ++g) {
    keys[g].resize(kKeysPerWorker);
    for (uint64_t j = 0; j < kKeysPerWorker; ++j) {
      keys[g][j] = KeyAt(opt.seed, g + j * shape.workers, shape.domain());
      AddKey(pass, shape, keys[g][j]);
    }
  }
  std::vector<BinRef> want(shape.num_bins);
  AddPreload(want, shape);
  for (size_t b = 0; b < want.size(); ++b) {
    want[b].count += kPasses * pass[b].count;
    want[b].digest += kPasses * pass[b].digest;
  }

  std::vector<double> mega, native, setups;
  const uint64_t closed_end =
      NowNs() + static_cast<uint64_t>(0.4 * opt.seconds * 1e9);
  while (mega.size() < 3 || NowNs() < closed_end) {
    ClosedRep m = MegaphoneRep(shape, keys, kPasses, want, opt, rep);
    mega.push_back(m.recs_per_s);
    setups.push_back(m.setup_s);
    r.attempted += m.records;
    r.failed += m.failed;
    native.push_back(NativeRep(shape, keys, kPasses).recs_per_s);
  }
  // The closed-loop phase's counters describe the record path; keep them
  // apart from the open-loop phase's.
  double closed_send_ns = static_cast<double>(rep.counters.send_ns);
  double closed_send_recs = static_cast<double>(rep.counters.send_recs);

  constexpr int kSessions = 3;
  OpenLoopSpec spec =
      CountSpec(shape, 400'000, 0.6 * opt.seconds / kSessions, 1.5);
  Paced paced = PacedSessions(shape, spec, opt, kSessions);
  r.attempted += paced.records;
  r.failed += paced.failed;
  setups.insert(setups.end(), paced.setups.begin(), paced.setups.end());
  ProcReport& open_rep = paced.rep;
  ReportOpenLoop(paced.root, open_rep, paced.records, setups, paced.peaks, r);
  r.e2e["recs_per_s"] = Median(mega);
  r.notes.push_back(Fmt("closed loop: megaphone recs_per_s median %.4g "
                        "[min %.4g, max %.4g] over %.0f reps",
                        Median(mega), *std::min_element(mega.begin(), mega.end()),
                        *std::max_element(mega.begin(), mega.end()),
                        static_cast<double>(mega.size())));
  r.notes.push_back(Fmt("closed loop: native_recs_per_s median %.4g "
                        "(ungated reference; megaphone/native = %.3f)",
                        Median(native), Median(mega) / Median(native)));
  // Step and send counters of both phases; the send cost is the record
  // path's, from the closed loop.
  rep.counters.Add(open_rep.counters);
  auto& L = r.layers;
  L["timely.step_calls"] = static_cast<double>(rep.counters.step_calls);
  L["timely.step_busy_s"] = static_cast<double>(rep.counters.step_ns) * 1e-9;
  L["timely.step_useful_ratio"] =
      rep.counters.step_calls
          ? static_cast<double>(rep.counters.step_useful) /
                static_cast<double>(rep.counters.step_calls)
          : 0;
  if (closed_send_recs > 0) {
    L["timely.send_ns_per_rec"] = closed_send_ns / closed_send_recs;
  }
  r.spans = std::move(rep.spans);
  r.spans.insert(r.spans.end(), open_rep.spans.begin(), open_rep.spans.end());
  if (opt.trace) {
    RunLayerPasses(CountLayerShape(shape, spec, opt.seed, kBatch / 2), r);
  }
  return r;
}

// count-migrate: 4 workers, 2^23 keys (64 MiB of dense counts, far above
// L2) in 1024 bins of 64 KiB, paced at 400k recs/s in 1 ms epochs. The
// fluid strategy moves bins one at a time in 64 KiB chunk frames,
// alternating imbalanced and balanced assignments every 1.5 s.
WorkloadResult RunCountMigrate(const RunOptions& opt) {
  CountShape shape;
  shape.workers = 4;
  shape.log_domain = 23;
  shape.num_bins = 1024;
  shape.strategy = megaphone::MigrationStrategy::kFluid;
  shape.batch_size = 1;
  WorkloadResult r;

  constexpr int kSessions = 5;
  OpenLoopSpec spec = CountSpec(shape, 400'000, opt.seconds / kSessions, 1.5);
  Paced paced = PacedSessions(shape, spec, opt, kSessions);
  r.attempted = paced.records;
  r.failed = paced.failed;
  ReportOpenLoop(paced.root, paced.rep, paced.records, paced.setups,
                 paced.peaks, r);
  r.spans = std::move(paced.rep.spans);
  if (opt.trace) RunLayerPasses(CountLayerShape(shape, spec, opt.seed, 32), r);
  return r;
}

}  // namespace perfbench
