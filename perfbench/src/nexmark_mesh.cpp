// nexmark-mesh: NEXMark Q3 (persons joined with category-0 auctions,
// keyed MapState) on 2 processes x 2 workers over loopback TCP, paced at
// 100k events/s in 1 ms epochs, with batched migrations alternating
// imbalanced and balanced assignments every 0.4 s. The run is ten
// independent launches of the mesh, 2 s each.
//
// Correctness: every worker digests the Q3 records it outputs; the sum
// over both processes must equal the digest of a single-process native
// Q3 run on exactly the events that were sent.
#include <memory>
#include <mutex>

#include "loop.hpp"
#include "nexmark/nexmark.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using megaphone::ControlInst;

constexpr uint32_t kWorkersPerProcess = 2;
constexpr uint32_t kWorkers = 2 * kWorkersPerProcess;
constexpr uint32_t kBins = 256;
constexpr double kRate = 100'000;
constexpr double kPeriodS = 0.4;
constexpr size_t kBatchSize = 2;

struct Digest {
  uint64_t count = 0;
  uint64_t sum = 0;
};

/// A sink that digests every record of `stream`, and a probe at its input:
/// the probe passing an epoch means the epoch's outputs were consumed.
template <typename D>
timely::ProbeHandle<T> DigestSink(timely::Stream<D, T> stream,
                                  std::shared_ptr<Digest> acc) {
  timely::Scope<T>& scope = *stream.scope();
  timely::OperatorBuilder<T> b(scope, "DigestSink");
  auto* in = b.AddInput(stream, timely::Pact<D>::Pipeline());
  uint32_t loc = in->loc();
  b.Build([in, acc](timely::OpCtx<T>&) {
    in->ForEach([&](const T&, std::vector<D>& recs) {
      for (const auto& r : recs) {
        acc->count++;
        acc->sum += BytesTerm(megaphone::EncodeToBytes(r));
      }
    });
  });
  return timely::ProbeHandle<T>(scope.df()->shared(), loc);
}

nexmark::QueryConfig Q3Config() {
  nexmark::QueryConfig q;
  q.num_bins = kBins;
  q.chunk_bytes = 64 << 10;
  return q;
}

nexmark::Generator MakeGenerator(uint64_t seed) {
  nexmark::GeneratorConfig g;
  g.seed = seed;
  g.events_per_sec = static_cast<uint64_t>(kRate);
  return nexmark::Generator(g);
}

struct Q3Handles {
  timely::Input<ControlInst, T> ctrl;
  timely::Input<nexmark::Person, T> persons;
  timely::Input<nexmark::Auction, T> auctions;
  timely::Input<nexmark::Bid, T> bids;
  timely::ProbeHandle<T> done;   // at the digesting sink
  timely::ProbeHandle<T> s_out;  // at Q3's S output, for the controller
  std::shared_ptr<Digest> digest;

  template <typename Fn>
  void ForEachInput(Fn fn) {
    fn(*persons);
    fn(*auctions);
    fn(*bids);
  }
};

Q3Handles BuildQ3(timely::Scope<T>& s) {
  auto [ctrl_in, ctrl_stream] = timely::NewInput<ControlInst>(s);
  auto [p_in, p_stream] = timely::NewInput<nexmark::Person>(s);
  auto [a_in, a_stream] = timely::NewInput<nexmark::Auction>(s);
  auto [b_in, b_stream] = timely::NewInput<nexmark::Bid>(s);
  nexmark::NexmarkStreams<T> streams{p_stream, a_stream, b_stream};
  auto out = nexmark::Q3Mega(ctrl_stream, streams, Q3Config());
  auto digest = std::make_shared<Digest>();
  auto done = DigestSink(out.stream, digest);
  return Q3Handles{ctrl_in, p_in, a_in, b_in, done, out.probe, digest};
}

struct Q3Source {
  Q3Handles* h;
  const nexmark::Generator* gen;
  std::vector<nexmark::Event> buf;

  void Inject(uint64_t first, uint64_t stride, uint64_t n, Meter& m,
              uint64_t epoch) {
    {
      Timed t(m, kGen, epoch, &m.c.gen_ns);
      buf.clear();
      for (uint64_t j = 0; j < n; ++j) buf.push_back(gen->At(first + j * stride));
      m.c.gen_events += n;
    }
    Timed t(m, kSend, epoch, &m.c.send_ns);
    for (auto& ev : buf) {
      switch (ev.kind) {
        case nexmark::Event::Kind::kPerson:
          h->persons->Send(std::move(ev.person));
          break;
        case nexmark::Event::Kind::kAuction:
          h->auctions->Send(std::move(ev.auction));
          break;
        case nexmark::Event::Kind::kBid:
          h->bids->Send(std::move(ev.bid));
          break;
      }
    }
    m.c.send_recs += n;
  }
  void AdvanceTo(uint64_t e) {
    h->ForEachInput([e](auto& in) { in.AdvanceTo(e); });
  }
  void Close() {
    h->ForEachInput([](auto& in) { in.Close(); });
  }
};

/// One process's part of a mesh session: builds Q3, reaches the
/// measurement origin and runs the open loop. Returns the origin; `root`
/// is filled on the process hosting worker 0.
uint64_t Q3Session(const timely::Config& cfg, const OpenLoopSpec& spec,
                   const RunOptions& opt, ProcReport& rep, RootMeasure* root) {
  Origin origin;
  std::mutex mu;
  std::vector<Meter> meters(cfg.workers);
  nexmark::Generator gen = MakeGenerator(opt.seed);
  uint64_t frames0 = megaphone::chunk_counters().frames.load();
  uint64_t bytes0 = megaphone::chunk_counters().bytes.load();
  // Each process keeps to its own CPUs: its workers one per CPU, its mesh
  // threads beside them. Left free, one process's mesh threads queue
  // behind the other's spinning workers and epoch latency varies with
  // where the scheduler happened to put them.
  CpuScope cpus(cfg.process_index * cfg.workers, cfg.workers);
  timely::Execute(cfg, [&](timely::Worker& w) {
    PinToCpu(w.index());
    Q3Handles h = w.Dataflow<T>([](timely::Scope<T>& s) { return BuildQ3(s); });
    h.ctrl->AdvanceTo(1);
    h.ForEachInput([](auto& in) { in.AdvanceTo(1); });
    w.StepUntil([&] { return !h.done.LessThan(1); });
    uint64_t start = origin.Arrive(w.local_workers());
    Meter& m = meters[w.index() - w.local_begin()] =
        Meter(opt.trace, cfg.process_index, w.index(), kPacedSpanEvery);
    megaphone::MigrationController<T>::Options mopts;
    mopts.strategy = megaphone::MigrationStrategy::kBatched;
    mopts.batch_size = kBatchSize;
    megaphone::MigrationController<T> ctl(h.ctrl, h.s_out, w.index(), mopts);
    Q3Source src{&h, &gen, {}};
    uint64_t sent = RunOpenLoop(w, spec, start, ctl, h.done, src, m,
                                w.index() == 0 ? root : nullptr);
    std::lock_guard<std::mutex> lock(mu);
    rep.sent.emplace_back(w.index(), sent);
    rep.out_count += h.digest->count;
    rep.out_digest += h.digest->sum;
  });
  rep.chunk_frames = megaphone::chunk_counters().frames.load() - frames0;
  rep.chunk_bytes = megaphone::chunk_counters().bytes.load() - bytes0;
  for (auto& m : meters) m.MergeInto(rep);
  return origin.t.load();
}

/// The reference: native Q3 in one single-worker process on exactly the
/// events the mesh run sent, in global index order.
Digest NativeQ3(uint64_t seed,
                const std::vector<std::pair<uint32_t, uint64_t>>& sent) {
  std::vector<uint64_t> per_worker(kWorkers, 0);
  uint64_t bound = 0;
  for (auto [g, n] : sent) {
    per_worker[g] = n;
    bound = std::max<uint64_t>(bound, g + n * kWorkers);
  }
  nexmark::Generator gen = MakeGenerator(seed);
  auto digest = std::make_shared<Digest>();
  timely::Execute(timely::Config{1}, [&](timely::Worker& w) {
    struct Handles {
      timely::Input<nexmark::Person, T> p;
      timely::Input<nexmark::Auction, T> a;
      timely::Input<nexmark::Bid, T> b;
      timely::ProbeHandle<T> done;
    };
    Handles h = w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [p_in, p_stream] = timely::NewInput<nexmark::Person>(s);
      auto [a_in, a_stream] = timely::NewInput<nexmark::Auction>(s);
      auto [b_in, b_stream] = timely::NewInput<nexmark::Bid>(s);
      nexmark::NexmarkStreams<T> streams{p_stream, a_stream, b_stream};
      auto out = nexmark::Q3Native(streams, Q3Config());
      return Handles{p_in, a_in, b_in, DigestSink(out, digest)};
    });
    uint64_t epoch = 0;
    for (uint64_t i = 0; i < bound; ++i) {
      if (i / kWorkers >= per_worker[i % kWorkers]) continue;
      nexmark::Event ev = gen.At(i);
      switch (ev.kind) {
        case nexmark::Event::Kind::kPerson:
          h.p->Send(std::move(ev.person));
          break;
        case nexmark::Event::Kind::kAuction:
          h.a->Send(std::move(ev.auction));
          break;
        case nexmark::Event::Kind::kBid:
          break;  // Q3 reads no bids
      }
      if (i / 10'000 > epoch) {
        epoch = i / 10'000;
        h.p->AdvanceTo(epoch);
        h.a->AdvanceTo(epoch);
        h.b->AdvanceTo(epoch);
        w.Step();
      }
    }
    h.p->Close();
    h.a->Close();
    h.b->Close();
    w.StepUntil([&] { return h.done.Done(); });
  });
  return *digest;
}

}  // namespace

WorkloadResult RunNexmarkMesh(const RunOptions& opt) {
  WorkloadResult r;
  // Independent launches of the mesh: thread placement differs between
  // launches and persists within one, so pooling several steadies the
  // latency medians; each launch also contributes one set-up time.
  constexpr int kSessions = 10;
  OpenLoopSpec spec;
  spec.rate = kRate;
  spec.duration_ns = static_cast<uint64_t>(opt.seconds / kSessions * 1e9);
  spec.period_ns = static_cast<uint64_t>(kPeriodS * 1e9);
  spec.balanced = megaphone::MakeInitialAssignment(kBins, kWorkers);
  spec.imbalanced = megaphone::MakeImbalancedAssignment(kBins, kWorkers);
  RootMeasure root;
  ProcReport rep;
  std::vector<double> setups, peaks;
  Digest got, want;
  for (int i = 0; i < kSessions; ++i) {
    RootMeasure session_root;
    ProcReport session;
    uint64_t t0 = NowNs();
    uint64_t origin = RunTwoProcesses(
        kWorkersPerProcess, session,
        [&](const timely::Config& cfg, ProcReport& mine) {
          return Q3Session(cfg, spec, opt, mine, &session_root);
        });
    setups.push_back(static_cast<double>(origin - t0) * 1e-9);
    Digest ref = NativeQ3(opt.seed, session.sent);
    want.count += ref.count;
    want.sum += ref.sum;
    got.count += session.out_count;
    got.sum += session.out_digest;
    peaks.push_back(session.peak_rss_mb);
    root.Merge(std::move(session_root));
    rep.Merge(std::move(session));
    TrimHeap();
  }

  uint64_t events = 0;
  for (auto [g, n] : rep.sent) events += n;
  r.attempted = events;
  if (want.count != got.count || want.sum != got.sum) {
    uint64_t diff = want.count > got.count ? want.count - got.count
                                           : got.count - want.count;
    r.failed = std::max<uint64_t>(1, diff);
  }
  r.notes.push_back(Fmt("q3 outputs %.0f (native reference %.0f)",
                        static_cast<double>(got.count),
                        static_cast<double>(want.count)));
  ReportOpenLoop(root, rep, events, setups, peaks, r);
  r.spans = std::move(rep.spans);
  if (opt.trace) {
    LayerShape ls;
    ls.seed = opt.seed;
    ls.workers = kWorkers;
    ls.num_bins = kBins;
    ls.nexmark = true;
    ls.bundle_recs = 8;
    ls.bin_bytes = 64 << 10;
    ls.balanced = spec.balanced;
    ls.imbalanced = spec.imbalanced;
    RunLayerPasses(ls, r);
  }
  return r;
}

}  // namespace perfbench
