// Layer passes: public functions of each layer called in isolation on the
// workload's own data shapes, each a median of repeated trials with the
// extremes noted beside it. They exercise the same calls as the BM_*
// bodies of bench/micro_steady_state.cpp, at the workload's bundle size,
// bin size, chunk bound and record type. Also the migration ping-pong
// matrix (one bin bounced between every worker pair, in one process and
// across the two-process mesh) and the raw mesh pass (round trip and
// one-way streaming between two forked processes).
#include <atomic>
#include <deque>
#include <thread>

#include "loop.hpp"
#include "net/mesh.hpp"
#include "nexmark/nexmark.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using megaphone::BinChunk;
using DenseBin = megaphone::state::DenseState<uint64_t>;
using Q3Map = megaphone::state::MapState<
    uint64_t, std::pair<std::optional<nexmark::Person>, std::vector<uint64_t>>>;

constexpr int kTrials = 7;

/// Defeats dead-code elimination of measured results.
std::atomic<uint64_t> g_sink{0};

/// Runs `trial()` kTrials times; each returns one measurement.
template <typename Fn>
Trials Repeat(Fn trial) {
  std::vector<double> v;
  for (int i = 0; i < kTrials; ++i) v.push_back(trial());
  return Trials::Of(v);
}

void Record(WorkloadResult& r, const std::string& name, const Trials& t,
            const char* unit) {
  r.layers[name] = t.median;
  r.notes.push_back("layer " + name + " " + unit +
                    Fmt(": median %.4g [min %.4g, max %.4g]", t.median, t.min,
                        t.max));
}

double MbPerS(uint64_t bytes, uint64_t ns) {
  return static_cast<double>(bytes) / 1e6 /
         (static_cast<double>(std::max<uint64_t>(ns, 1)) * 1e-9);
}

// ------------------------------------------------------------ timely

template <typename D>
Trials ChannelPass(const std::vector<D>& records, size_t bundle_recs,
                   uint32_t workers) {
  using R = megaphone::Routed<D>;
  constexpr size_t kBundles = 512;
  timely::Channel<R, T> chan(std::max<uint32_t>(workers, 2));
  return Repeat([&] {
    std::vector<timely::Bundle<R, T>> bundles(kBundles);
    for (size_t i = 0; i < kBundles; ++i) {
      bundles[i].time = i;
      for (size_t j = 0; j < bundle_recs; ++j) {
        const D& d = records[(i * bundle_recs + j) % records.size()];
        bundles[i].data.push_back(R{1, static_cast<uint32_t>(j), d});
      }
    }
    std::deque<timely::Bundle<R, T>> out;
    uint64_t t0 = NowNs();
    for (auto& b : bundles) chan.Push(1, std::move(b));
    chan.PullAll(1, out);
    uint64_t t1 = NowNs();
    g_sink += out.size();
    return static_cast<double>(t1 - t0) /
           static_cast<double>(kBundles * bundle_recs);
  });
}

// --------------------------------------------------------- megaphone

/// BinOf + RoutingTable::WorkerAt over the workload's exchange values, on
/// a table carrying the workload's alternating assignment history.
Trials RoutePass(const std::vector<uint64_t>& exchange, const LayerShape& s) {
  megaphone::RoutingTable<T> rt(s.num_bins, s.workers);
  megaphone::Assignment cur = s.balanced;
  for (uint64_t v = 1; v <= 8; ++v) {
    const megaphone::Assignment& next = v % 2 ? s.imbalanced : s.balanced;
    for (uint32_t b = 0; b < s.num_bins; ++b) {
      if (cur[b] != next[b]) rt.Apply(v * 1000, b, next[b]);
    }
    cur = next;
  }
  return Repeat([&] {
    uint64_t acc = 0;
    uint64_t t0 = NowNs();
    for (uint64_t x : exchange) {
      acc += rt.WorkerAt(9000, megaphone::BinOf(x, s.num_bins));
    }
    uint64_t t1 = NowNs();
    g_sink += acc;
    return static_cast<double>(t1 - t0) / static_cast<double>(exchange.size());
  });
}

/// The migration ping-pong: bin 0, holding `bin_bytes` of dense counts,
/// bounces src -> dst -> src `bounces` times for every worker pair, each
/// migration started alone and awaited in lockstep rounds. Returns, for
/// every pair, the amortized µs per migration and MB/s moved.
struct PairResult {
  uint32_t a = 0, b = 0;
  double us = 0, mb_per_s = 0;
};

std::vector<PairResult> PingPong(const timely::Config& cfg, uint64_t bin_bytes,
                                 uint64_t chunk_bytes, int bounces) {
  const uint32_t W = cfg.workers * std::max(1u, cfg.processes);
  constexpr uint32_t kBins = 8;
  const uint64_t kpb = std::max<uint64_t>(1, bin_bytes / sizeof(uint64_t));
  const int shift = 64 - __builtin_ctzll(kBins * kpb);
  std::vector<PairResult> out;
  std::atomic<bool> intact{true};
  timely::Execute(cfg, [&](timely::Worker& w) {
    struct Handles {
      timely::Input<megaphone::ControlInst, T> ctrl;
      timely::Input<uint64_t, T> data;
      timely::ProbeHandle<T> probe;
      std::function<void(std::vector<std::pair<uint32_t, std::vector<uint8_t>>>&)>
          capture;
    };
    Handles h = w.Dataflow<T>([&](timely::Scope<T>& s) {
      auto [ctrl_in, ctrl_stream] = timely::NewInput<megaphone::ControlInst>(s);
      auto [data_in, data_stream] = timely::NewInput<uint64_t>(s);
      megaphone::Config mcfg;
      mcfg.num_bins = kBins;
      mcfg.chunk_bytes = chunk_bytes;
      mcfg.name = "PingPong";
      auto o = megaphone::Unary<DenseBin, uint64_t>(
          ctrl_stream, data_stream,
          [shift](const uint64_t& k) { return k << shift; },
          [kpb](const T&, DenseBin& st, std::vector<uint64_t>& recs, auto,
                auto&) {
            if (st.empty()) st.resize(kpb);
            for (uint64_t k : recs) st[k % kpb]++;
          },
          mcfg);
      return Handles{ctrl_in, data_in, o.probe, o.capture_bins};
    });
    megaphone::MigrationController<T>::Options mopts;
    mopts.strategy = megaphone::MigrationStrategy::kFluid;
    megaphone::MigrationController<T> ctl(h.ctrl, h.probe, w.index(), mopts);
    if (w.index() == 0) {
      for (uint64_t k = 0; k < kpb; ++k) h.data->Send(k);  // bin 0
    }
    uint64_t e = 0;
    auto round = [&] {
      ctl.Advance(e, e + 1);
      h.data->AdvanceTo(e + 1);
      w.StepUntil([&] { return !h.probe.LessThan(e + 1); });
      e++;
    };
    round();
    megaphone::Assignment cur = megaphone::MakeInitialAssignment(kBins, W);
    auto move_to = [&](uint32_t target) {
      if (cur[0] == target) return;
      megaphone::Assignment next = cur;
      next[0] = target;
      ctl.MigrateTo(cur, next);
      cur = next;
      do {
        round();
      } while (ctl.Migrating());
    };
    for (uint32_t a = 0; a < W; ++a) {
      for (uint32_t b = a + 1; b < W; ++b) {
        move_to(a);
        uint64_t t0 = NowNs();
        for (int i = 0; i < bounces; ++i) {
          move_to(b);
          move_to(a);
        }
        uint64_t ns = NowNs() - t0;
        if (w.index() == 0) {
          double migrations = 2.0 * bounces;
          out.push_back(PairResult{a, b,
                                   static_cast<double>(ns) * 1e-3 / migrations,
                                   MbPerS(static_cast<uint64_t>(
                                              migrations * static_cast<double>(
                                                               kpb * sizeof(uint64_t))),
                                          ns)});
        }
      }
    }
    ctl.Close(e + 1);
    h.data->Close();
    w.StepUntil([&] { return h.probe.Done(); });
    // The ball must come back whole: one count in each of its slots.
    std::vector<std::pair<uint32_t, std::vector<uint8_t>>> bins;
    h.capture(bins);
    for (auto& [b, bytes] : bins) {
      auto bin = megaphone::DecodeFromBytes<megaphone::Bin<DenseBin, uint64_t, T>>(bytes);
      uint64_t sum = 0;
      for (uint64_t c : bin.state.raw()) sum += c;
      if (b == 0 && sum != kpb) intact = false;
    }
  });
  if (!intact) throw std::runtime_error("ping-pong bin lost state");
  return out;
}

// ------------------------------------------------------------- state

struct StateTrials {
  Trials enumerate, absorb;
};

/// EnumerateChunks and AbsorbChunk at the workload's chunk bound over
/// `bins`, in MB/s of chunk payload.
template <typename State>
StateTrials StatePass(const std::vector<State>& bins, uint64_t chunk_bytes) {
  std::vector<std::vector<uint8_t>> chunks;
  std::vector<size_t> per_bin;  // chunks of each bin, in order
  uint64_t bytes = 0;
  for (const auto& s : bins) {
    size_t before = chunks.size();
    s.EnumerateChunks(chunk_bytes, [&](std::vector<uint8_t>&& c) {
      bytes += c.size();
      chunks.push_back(std::move(c));
    });
    per_bin.push_back(chunks.size() - before);
  }
  StateTrials st;
  st.enumerate = Repeat([&] {
    uint64_t n = 0;
    uint64_t t0 = NowNs();
    for (const auto& s : bins) {
      s.EnumerateChunks(chunk_bytes,
                        [&](std::vector<uint8_t>&& c) { n += c.size(); });
    }
    uint64_t t1 = NowNs();
    g_sink += n;
    return MbPerS(n, t1 - t0);
  });
  st.absorb = Repeat([&] {
    std::vector<State> dst(bins.size());
    size_t next = 0;
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < bins.size(); ++i) {
      for (size_t k = 0; k < per_bin[i]; ++k) {
        megaphone::Reader r(chunks[next++]);
        dst[i].AbsorbChunk(r);
      }
      dst[i].FinishAbsorb();
    }
    uint64_t t1 = NowNs();
    if (dst != bins) throw std::runtime_error("absorbed state differs");
    return MbPerS(bytes, t1 - t0);
  });
  return st;
}

// ------------------------------------------------------------- serde

template <typename V>
std::pair<Trials, Trials> SerdePass(const std::vector<V>& values) {
  std::vector<std::vector<uint8_t>> encoded(values.size());
  uint64_t bytes = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    encoded[i] = megaphone::EncodeToBytes(values[i]);
    bytes += encoded[i].size();
  }
  Trials enc = Repeat([&] {
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < values.size(); ++i) {
      encoded[i] = megaphone::EncodeToBytes(values[i]);
    }
    return MbPerS(bytes, NowNs() - t0);
  });
  Trials dec = Repeat([&] {
    std::vector<V> decoded(encoded.size());
    uint64_t t0 = NowNs();
    for (size_t i = 0; i < encoded.size(); ++i) {
      decoded[i] = megaphone::DecodeFromBytes<V>(encoded[i]);
    }
    uint64_t t1 = NowNs();
    g_sink += decoded.size();
    return MbPerS(bytes, t1 - t0);
  });
  return {enc, dec};
}

// --------------------------------------------------------------- net

struct NetResult {
  std::vector<double> rtt_us;
  std::vector<double> stream_mb_per_s;
  double queued_max = 0;
};

/// NetMesh::SendData between two forked processes: 64-byte ping-pongs,
/// then one-way streams of 64 KiB frames acknowledged at the end.
NetResult NetPass() {
  constexpr size_t kPing = 64, kFrame = 64 << 10, kAck = 16;
  constexpr int kPings = 2000, kFrames = 256, kStreams = kTrials;
  ProcReport unused;
  return RunTwoProcesses(1, unused, [&](const timely::Config& cfg,
                                        ProcReport&) {
    megaphone::net::MeshOptions o;
    o.processes = 2;
    o.process_index = cfg.process_index;
    o.workers_per_process = 1;
    o.addresses = cfg.addresses;
    o.listen_fd = cfg.listen_fd;
    megaphone::net::NetMesh mesh(o);
    const uint32_t me = cfg.process_index;
    std::atomic<uint64_t> replies{0};
    std::atomic<int> streamed{0};
    std::atomic<int> acks_sent{0};
    mesh.RegisterDataHandler(1, 0, [&](uint32_t, megaphone::Reader& r) {
      size_t n = r.remaining();
      if (me == 0) {
        replies++;
      } else if (n == kPing) {
        mesh.SendData(1, 0, 0, std::vector<uint8_t>(kPing));
      } else if (n == kFrame && ++streamed == kFrames) {
        streamed = 0;
        mesh.SendData(1, 0, 0, std::vector<uint8_t>(kAck));
        acks_sent++;
      }
    });
    NetResult res;
    if (me == 1) {
      while (acks_sent.load() < kStreams) std::this_thread::yield();
    } else {
      auto await = [&](uint64_t n) {
        while (replies.load() < n) std::this_thread::yield();
      };
      for (int i = 0; i < kPings; ++i) {
        uint64_t t0 = NowNs();
        mesh.SendData(1, 0, 1, std::vector<uint8_t>(kPing));
        await(static_cast<uint64_t>(i) + 1);
        res.rtt_us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
      }
      for (int s = 0; s < kStreams; ++s) {
        uint64_t t0 = NowNs();
        for (int k = 0; k < kFrames; ++k) {
          mesh.SendData(1, 0, 1, std::vector<uint8_t>(kFrame));
          res.queued_max = std::max(res.queued_max,
                                    static_cast<double>(mesh.QueuedBytes(1)));
        }
        await(kPings + static_cast<uint64_t>(s) + 1);
        res.stream_mb_per_s.push_back(MbPerS(uint64_t{kFrames} * kFrame,
                                             NowNs() - t0));
      }
    }
    mesh.Shutdown();
    return res;
  });
}

// ----------------------------------------------------------- nexmark

Trials GenPass(uint64_t seed) {
  nexmark::GeneratorConfig g;
  g.seed = seed;
  nexmark::Generator gen(g);
  constexpr uint64_t kEvents = 100'000;
  uint64_t base = 0;
  std::vector<nexmark::Event> buf;
  // As the nexmark-mesh loop calls it: a batch of events at a time into
  // a reused buffer.
  return Repeat([&] {
    uint64_t t0 = NowNs();
    for (uint64_t i = 0; i < kEvents; ++i) {
      if (buf.size() == 64) buf.clear();
      buf.push_back(gen.At(base + i));
    }
    uint64_t t1 = NowNs();
    base += kEvents;
    g_sink += buf.size();
    return static_cast<double>(t1 - t0) / static_cast<double>(kEvents);
  });
}

std::vector<nexmark::Event> Events(uint64_t seed, size_t n) {
  nexmark::GeneratorConfig g;
  g.seed = seed;
  nexmark::Generator gen(g);
  std::vector<nexmark::Event> v;
  for (uint64_t i = 0; i < n; ++i) v.push_back(gen.At(i));
  return v;
}

double PairMedian(const std::vector<PairResult>& v, bool cross,
                  uint32_t per_process, double PairResult::*field) {
  std::vector<double> x;
  for (const auto& p : v) {
    bool is_cross = p.a / per_process != p.b / per_process;
    if (is_cross == cross) x.push_back(p.*field);
  }
  return Median(x);
}

}  // namespace

void RunLayerPasses(const LayerShape& s, WorkloadResult& r) {
  const uint64_t domain = uint64_t{1} << s.log_domain;
  const int shift = 64 - static_cast<int>(s.log_domain);

  // Records, exchange values and state in the workload's shapes.
  std::vector<uint64_t> keys(1 << 20), exchange(keys.size());
  for (uint64_t i = 0; i < keys.size(); ++i) {
    keys[i] = KeyAt(s.seed, i, domain);
    exchange[i] = s.nexmark ? Mix(keys[i]) : keys[i] << shift;
  }
  if (s.nexmark) {
    std::vector<nexmark::Auction> auctions;
    std::vector<nexmark::Person> persons;
    for (auto& ev : Events(s.seed, 100'000)) {
      if (ev.kind == nexmark::Event::Kind::kAuction) auctions.push_back(ev.auction);
      if (ev.kind == nexmark::Event::Kind::kPerson) persons.push_back(ev.person);
    }
    Record(r, "timely.channel_ns_per_rec",
           ChannelPass(auctions, s.bundle_recs, s.workers), "ns");
    // Q3's bin state: persons by id, each with a few pending auctions.
    std::vector<Q3Map> bins(64);
    for (const auto& p : persons) {
      auto& [person, pending] = bins[Mix(p.id) % bins.size()][p.id];
      person = p;
      for (uint64_t j = 0; j < p.id % 3; ++j) pending.push_back(p.id * 3 + j);
    }
    StateTrials st = StatePass(bins, s.chunk_bytes);
    Record(r, "state.enumerate_mb_per_s", st.enumerate, "MB/s");
    Record(r, "state.absorb_mb_per_s", st.absorb, "MB/s");
    // Q3's event batches as they cross the mesh: persons and auctions in
    // the generator's proportions, 256 auctions a batch.
    using Batch = std::pair<std::vector<nexmark::Person>,
                            std::vector<nexmark::Auction>>;
    std::vector<Batch> batches;
    for (size_t i = 0; i + 256 <= auctions.size(); i += 256) {
      Batch b;
      b.first.assign(persons.begin() + static_cast<long>(i / 3),
                     persons.begin() + static_cast<long>((i + 256) / 3));
      b.second.assign(auctions.begin() + static_cast<long>(i),
                      auctions.begin() + static_cast<long>(i + 256));
      batches.push_back(std::move(b));
    }
    auto [enc, dec] = SerdePass(batches);
    Record(r, "serde.encode_mb_per_s", enc, "MB/s");
    Record(r, "serde.decode_mb_per_s", dec, "MB/s");
  } else {
    Record(r, "timely.channel_ns_per_rec",
           ChannelPass(keys, s.bundle_recs, s.workers), "ns");
    // Dense bins of the workload's size, about 8 MiB in all.
    const uint64_t kpb = s.bin_bytes / sizeof(uint64_t);
    std::vector<DenseBin> bins(std::max<uint64_t>(1, (8 << 20) / s.bin_bytes));
    for (size_t b = 0; b < bins.size(); ++b) {
      bins[b].resize(kpb);
      for (uint64_t j = 0; j < kpb; ++j) bins[b][j] = keys[(b * kpb + j) % keys.size()];
    }
    StateTrials st = StatePass(bins, s.chunk_bytes);
    Record(r, "state.enumerate_mb_per_s", st.enumerate, "MB/s");
    Record(r, "state.absorb_mb_per_s", st.absorb, "MB/s");
    // BinChunk frames of those bins, as they travel the state channel.
    std::vector<BinChunk> frames;
    for (size_t b = 0; b < bins.size(); ++b) {
      uint32_t seq = 0;
      bins[b].EnumerateChunks(s.chunk_bytes, [&](std::vector<uint8_t>&& c) {
        BinChunk f;
        f.target = 1;
        f.bin = static_cast<uint32_t>(b);
        f.seq = seq++;
        f.bytes = std::move(c);
        frames.push_back(std::move(f));
      });
    }
    auto [enc, dec] = SerdePass(frames);
    Record(r, "serde.encode_mb_per_s", enc, "MB/s");
    Record(r, "serde.decode_mb_per_s", dec, "MB/s");
  }
  Record(r, "megaphone.route_ns_per_rec", RoutePass(exchange, s), "ns");
  if (!r.layers.count("nexmark.gen_ns_per_event")) {
    Record(r, "nexmark.gen_ns_per_event", GenPass(s.seed), "ns");
  }

  // Migration ping-pong matrix, in one process and across the mesh.
  constexpr int kBounces = 10;
  auto local = PingPong(timely::Config{std::max(2u, s.workers)}, s.bin_bytes,
                        s.chunk_bytes, kBounces);
  ProcReport unused;
  auto mesh = RunTwoProcesses(2, unused, [&](const timely::Config& cfg,
                                             ProcReport&) {
    return PingPong(cfg, s.bin_bytes, s.chunk_bytes, kBounces);
  });
  for (const auto& p : local) {
    r.notes.push_back(Fmt("pingpong local w%.0f<->w%.0f  %.1f us/migration  %.1f MB/s",
                          p.a, p.b, p.us, p.mb_per_s));
  }
  for (const auto& p : mesh) {
    r.notes.push_back(Fmt("pingpong mesh  w%.0f<->w%.0f  %.1f us/migration  %.1f MB/s",
                          p.a, p.b, p.us, p.mb_per_s) +
                      (p.a / 2 != p.b / 2 ? " (cross-process)" : " (same process)"));
  }
  r.layers["megaphone.pingpong_us"] = PairMedian(local, false, 1u << 30, &PairResult::us);
  r.layers["megaphone.pingpong_mb_per_s"] =
      PairMedian(local, false, 1u << 30, &PairResult::mb_per_s);
  r.layers["megaphone.pingpong_mesh_us"] = PairMedian(mesh, true, 2, &PairResult::us);
  r.layers["megaphone.pingpong_mesh_mb_per_s"] =
      PairMedian(mesh, true, 2, &PairResult::mb_per_s);

  NetResult net = NetPass();
  r.layers["net.rtt_p50_us"] = Median(net.rtt_us);
  r.notes.push_back(Fmt("layer net.rtt_us p50 %.1f p99 %.1f max %.1f (n=%.0f)",
                        Median(net.rtt_us), Quantile(net.rtt_us, 0.99),
                        MaxOf(net.rtt_us), static_cast<double>(net.rtt_us.size())));
  Record(r, "net.stream_mb_per_s", Trials::Of(net.stream_mb_per_s), "MB/s");
  r.layers["net.queued_bytes_max"] = net.queued_max;
}

}  // namespace perfbench
