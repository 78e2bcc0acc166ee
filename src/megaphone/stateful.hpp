// Megaphone's migratable stateful operators (paper §3.4, §4).
//
// Every stateful operator L — Unary, Binary and StateMachine alike — is
// one core, detail::StatefulCore, realized as a pair of dataflow
// operators over any number of data inputs ("lanes") that share one
// binned state:
//
//   * F takes the lanes plus the control stream of configuration updates.
//     It routes each lane's records to the worker owning their bin *at the
//     record's timestamp*, buffering records whose time is still in
//     advance of the control frontier (the configuration there could still
//     change). F also initiates migrations: a configuration update at time
//     t is executed once the S output frontier reaches t — at that point
//     every record before t has been applied — by uninstalling the bin
//     from the co-located S and shipping it at time t on the state
//     channel. With Config::chunk_bytes set, the bin leaves as a sequence
//     of size-bounded BinChunk frames metered out across worker steps
//     under Config::chunk_bytes_per_step (flow control), interleaved with
//     data processing. Config::state_bytes_per_sec paces the same queue
//     at the state channel's bandwidth. F keeps its capability at t until
//     the last frame has gone out, so the frontier argument is unchanged.
//
//   * S hosts the bins (LaneBin: the state plus one pending map per lane).
//     It installs received state immediately — chunked state
//     incrementally, frame by frame, through the migratable-state layer
//     (src/state/) — stashes incoming records per (lane, time, bin), and
//     applies them in timestamp order once the time is in advance of
//     neither any data-input nor the state-input frontier, handing the
//     fold every lane's records for a (time, bin) at once. Post-dated
//     records scheduled by the user logic live inside the bin and migrate
//     with it.
//
// Because every lane shares the routing table, the bins and the state
// channel, the migration mechanism acts on all inputs at the same time.
//
// Capability discipline: F retains a capability at every buffered control
// or data time (so S frontiers cannot outrun a planned migration), and S
// retains one per distinct pending time (so its own output frontier cannot
// outrun unapplied records). Migration correctness then follows from the
// frontier conditions alone — there are no locks and no pauses, which is
// the paper's central claim.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "megaphone/bin.hpp"
#include "megaphone/control.hpp"
#include "timely/operator.hpp"
#include "timely/probe.hpp"
#include "timely/stream.hpp"

namespace megaphone {

/// Configuration of a Megaphone stateful operator.
struct Config {
  /// Number of bins; must be a power of two, fixed at construction
  /// (paper §4.2). 2^12 is the paper's sweet spot.
  uint32_t num_bins = 256;
  /// State-channel bandwidth in bytes per second (0 = unthrottled): each
  /// worker's F emits its queued chunk frames no faster than this, next
  /// to the per-step budget. See DESIGN.md substitutions.
  uint64_t state_bytes_per_sec = 0;
  /// Maximum payload bytes per state chunk frame. 0 = monolithic: each
  /// migrating bin ships as one frame, the pre-chunking behavior. With a
  /// bound, F ships every bin as a sequence of ~chunk_bytes frames and S
  /// installs them incrementally (src/state/), so the per-frame stall on
  /// worker and wire is bounded by the chunk size, not the bin size.
  uint64_t chunk_bytes = 0;
  /// Per-worker-step budget on chunk payload bytes leaving F — the flow
  /// control that interleaves state movement with data processing. 0 =
  /// default 4 * chunk_bytes (unbounded when chunking is off).
  uint64_t chunk_bytes_per_step = 0;
  /// Operator name (diagnostics).
  std::string name = "Stateful";
  /// Checkpoint restore: per-bin initial owner overriding the default
  /// `bin % workers` assignment. Must be empty or exactly `num_bins`
  /// entries, and may only be set on a routing table that has seen no
  /// updates yet — restored runs resume with the checkpointed assignment
  /// and must not migrate at the minimum timestamp.
  std::vector<uint32_t> initial_owner;
  /// Options every LogState bin backend of this operator is built with
  /// (spill and checkpoint directories, thresholds); others ignore them.
  state::LogStateOptions log_state;

  uint64_t ChunkStepBudget() const {
    if (chunk_bytes_per_step != 0) return chunk_bytes_per_step;
    return chunk_bytes == 0 ? 0 : 4 * chunk_bytes;
  }
};

/// Process-wide counters of state-chunk frames emitted by every F
/// instance; the bench harness snapshots them around migration windows to
/// report per-migration chunk traffic.
struct ChunkCounters {
  std::atomic<uint64_t> frames{0};
  std::atomic<uint64_t> bytes{0};
};
inline ChunkCounters& chunk_counters() {
  static ChunkCounters c;
  return c;
}

/// A record in flight from F to S, tagged with its destination worker and
/// bin. Carrying the bin id saves S from recomputing the key function on
/// every record. Member serde (usable whenever D itself is serializable)
/// lets the F→S channel span processes, so routed records reach bins
/// hosted by workers of other processes.
template <typename D>
struct Routed {
  uint32_t target = 0;
  BinId bin = 0;
  D payload{};

  // Gated so a non-serializable D keeps Routed<D> out of Serde entirely:
  // single-process dataflows over such types still compile, and only a
  // remote push trips the runtime "cannot cross process boundaries" check.
  void Serialize(Writer& w) const
    requires Serializable<D>
  {
    Encode(w, target);
    Encode(w, bin);
    Encode(w, payload);
  }
  static Routed Deserialize(Reader& r)
    requires Serializable<D>
  {
    Routed out;
    out.target = Decode<uint32_t>(r);
    out.bin = Decode<BinId>(r);
    out.payload = Decode<D>(r);
    return out;
  }
};

/// Same-thread F→S handoff for self-routed records. Co-located F and S
/// run on one worker thread (paper §3.4: they share the bin container
/// without synchronization), so bundles routed to the own worker skip the
/// channel, and their produced/consumed progress deltas — which would net
/// to zero inside the worker step's consolidated batch — are never staged
/// at all. S notes the input time instead, which grants the same
/// capability basis as a channel delivery.
template <typename D, typename T>
struct SelfInbox {
  std::vector<std::pair<T, std::vector<Routed<D>>>> bundles;
  std::vector<std::vector<Routed<D>>> pool;  // recycled group buffers

  std::vector<Routed<D>> TakeBuffer() {
    if (pool.empty()) return {};
    std::vector<Routed<D>> v = std::move(pool.back());
    pool.pop_back();
    return v;
  }
};

/// Per-bin load statistics snapshot taken from one worker's S instance:
/// the raw input to the adaptive migration controller (see adaptive.hpp).
/// `records` counts records applied per bin since the previous snapshot
/// (and resets on take); `state_bytes` and `resident` describe the bins
/// currently hosted by this worker.
struct BinStats {
  std::vector<uint64_t> records;      // applied per bin since last take
  std::vector<uint64_t> state_bytes;  // approx bytes per resident bin
  std::vector<uint8_t> resident;      // 1 if the bin is hosted here
};

/// Result of constructing a stateful operator: its output stream plus a
/// probe on the S output frontier. The probe is what controllers use to
/// await migration completion ("the migration at time t has completed once
/// the frontier has passed t").
template <typename R, typename T>
struct StatefulOutput {
  timely::Stream<R, T> stream;
  timely::ProbeHandle<T> probe;

  /// Snapshots this worker's per-bin load statistics into `out` and resets
  /// the applied-record counters. Call from the worker's own driver loop
  /// (same thread as S, like the checkpoint hooks below).
  std::function<void(BinStats&)> take_bin_stats;

  /// Checkpoint hooks over this worker's bin container. `capture_bins`
  /// appends every resident bin as (bin id, its SerializeCheckpoint bytes) —
  /// call it only at a frontier-aligned quiescent point (no stashed
  /// records, no in-flight migration). `restore_bins` stages such pairs
  /// for installation at S's next schedule, before any data is ingested;
  /// see BinsShared::restore_staging.
  std::function<void(std::vector<std::pair<uint32_t, std::vector<uint8_t>>>&)>
      capture_bins;
  std::function<void(std::vector<std::pair<uint32_t, std::vector<uint8_t>>>)>
      restore_bins;
};

namespace detail {

/// Schedules post-dated records for the bin currently being applied; they
/// are stored in the bin (and therefore migrate with it). `Schedule<I>`
/// post-dates onto lane I; the user-facing spellings are `ScheduleAt` for a
/// single-input operator and `Schedule1`/`Schedule2` for a binary one.
template <typename BinT, typename T>
class SchedulerImpl {
  template <size_t I>
  using Rec = std::tuple_element_t<I, typename BinT::Records>;

 public:
  SchedulerImpl(BinsShared<BinT, T>* shared, BinT* bin, BinId bin_id,
                const T* now, timely::OpCtx<T>* ctx, std::set<T>* held)
      : shared_(shared), bin_(bin), bin_id_(bin_id), now_(now), ctx_(ctx),
        held_(held) {}

  /// Presents `rec` to the operator again at time `t` on lane I; `t` must
  /// be strictly in the future.
  template <size_t I>
  void Schedule(const T& t, Rec<I> rec) {
    MEGA_CHECK(timely::InAdvanceOf(t, *now_) && !(t == *now_))
        << "post-dated records must be strictly in the future";
    std::get<I>(bin_->pending)[t].push_back(std::move(rec));
    shared_->RegisterPending(t, bin_id_);
    if (!held_->count(t)) {
      ctx_->Retain(t);
      held_->insert(t);
    }
  }

  void ScheduleAt(const T& t, Rec<0> rec)
    requires(BinT::kLanes == 1)
  {
    Schedule<0>(t, std::move(rec));
  }
  void Schedule1(const T& t, Rec<0> rec)
    requires(BinT::kLanes == 2)
  {
    Schedule<0>(t, std::move(rec));
  }
  // A template only so that Rec<1> is not formed for single-lane bins.
  template <size_t I = 1>
  void Schedule2(const T& t, Rec<I> rec)
    requires(BinT::kLanes == 2)
  {
    Schedule<I>(t, std::move(rec));
  }

 private:
  BinsShared<BinT, T>* shared_;
  BinT* bin_;
  BinId bin_id_;
  const T* now_;
  timely::OpCtx<T>* ctx_;
  std::set<T>* held_;
};

/// Picks the compaction horizon: the least frontier minimum, if every
/// frontier is nonempty (totally ordered timestamps assumed for
/// routing-table compaction, which holds for every dataflow in this
/// repository).
template <typename T>
std::optional<T> CompactionHorizon(
    std::initializer_list<const timely::Antichain<T>*> frontiers) {
  std::optional<T> horizon;
  for (const auto* f : frontiers) {
    if (f->empty()) return std::nullopt;
    const T& m = f->elements().front();
    if (!horizon || !timely::TimestampTraits<T>::LessEqual(*horizon, m)) {
      horizon = m;
    }
  }
  return horizon;
}

/// One bin mid-absorption at S: the partially installed bin plus the next
/// expected chunk sequence number (frames of one migration arrive in
/// order on the FIFO state channel).
template <typename BinT>
struct AbsorbingBin {
  std::unique_ptr<BinT> bin;
  uint32_t next_seq = 0;
};

/// Installs one received chunk frame into the partial-bin set, finalizing
/// residency — and registering the bin's pending times through `hold` —
/// at the last frame.
template <typename BinT, typename T, typename HoldFn>
void AbsorbChunkFrame(BinsShared<BinT, T>& shared,
                      std::map<BinId, AbsorbingBin<BinT>>& absorbing,
                      BinChunk& m, uint32_t worker, HoldFn hold) {
  MEGA_CHECK_EQ(m.target, worker);
  auto& ab = absorbing[m.bin];
  if (!ab.bin) {
    MEGA_CHECK(!shared.bins[m.bin])
        << "received state for an already-resident bin";
    ab.bin = shared.NewBin();
    ab.next_seq = 0;
  }
  MEGA_CHECK_EQ(m.seq, ab.next_seq) << "state chunk out of order";
  ab.next_seq++;
  Reader r(m.bytes);
  ab.bin->AbsorbChunk(r, m.last != 0);
  if (m.last != 0) {
    ab.bin->ForEachPendingTime([&](const T& tp) {
      shared.RegisterPending(tp, m.bin);
      hold(tp);
    });
    shared.bins[m.bin] = std::move(ab.bin);
    absorbing.erase(m.bin);
  }
}

/// S's per-lane record queue: a pooled flat stash per time, plus the
/// record buffer for bins whose only work at a time is post-dated records.
template <typename D, typename T>
struct LaneQueue {
  std::map<T, BinStash<D>> queue;
  BinStashPool<D> pool;
  std::vector<D> scratch;
};

/// F's output port carrying one lane's routed records to S.
template <typename D, typename T>
using RoutedPort = std::pair<timely::OutputHandle<Routed<D>, T>*,
                             timely::Stream<Routed<D>, T>>;

/// One data input of a stateful operator: its stream and its exchange
/// function `key(const D&) -> uint64_t` (the bin is the key's most
/// significant bits).
template <typename D, typename T, typename KeyFn>
struct Lane {
  using Record = D;
  timely::Stream<D, T> stream;
  KeyFn key;
};

/// Calls `fn(std::integral_constant<size_t, I>{})` for I = 0 .. N-1.
template <size_t N, typename Fn>
void ForLanes(Fn&& fn) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (fn(std::integral_constant<size_t, I>{}), ...);
  }(std::make_index_sequence<N>{});
}

/// The one stateful-operator core behind Unary, Binary and StateMachine:
/// an F/S operator pair over any number of data inputs ("lanes") sharing
/// one binned state, so that the migration mechanism acts on every input
/// at the same time (paper §3.4). `fold(time, state, recs_0, ...,
/// recs_{N-1}, emit, scheduler)` is invoked per (time, bin) with each
/// lane's records for that bin at that time (input records first, then
/// post-dated records).
template <typename S, typename R, typename T, typename Fold,
          typename... Lanes>
StatefulOutput<R, T> StatefulCore(timely::Stream<ControlInst, T> control,
                                  Fold fold, const Config& cfg,
                                  Lanes... lanes) {
  constexpr size_t N = sizeof...(Lanes);
  using BinT = LaneBin<S, T, typename Lanes::Record...>;
  using timely::OpCtx;
  using timely::OperatorBuilder;
  using timely::Pact;

  timely::Scope<T>& scope = *std::get<0>(std::tie(lanes...)).stream.scope();
  const uint32_t num_bins = cfg.num_bins;
  MEGA_CHECK((num_bins & (num_bins - 1)) == 0 && num_bins > 0)
      << "num_bins must be a power of two";

  auto shared =
      std::make_shared<BinsShared<BinT, T>>(num_bins, cfg.log_state);
  auto probe_slot = std::make_shared<timely::ProbeHandle<T>>();
  auto inboxes =
      std::make_shared<std::tuple<SelfInbox<typename Lanes::Record, T>...>>();

  // ------------------------------------------------------------------ F
  // Braced initialization fixes the port order: control, then the lanes.
  OperatorBuilder<T> fb(scope, cfg.name + "_F");
  auto* ctrl_in = fb.AddInput(control, Pact<ControlInst>::Broadcast());
  std::tuple data_ins{fb.AddInput(
      lanes.stream, Pact<typename Lanes::Record>::Pipeline())...};
  std::tuple<RoutedPort<typename Lanes::Record, T>...> routed{
      fb.template AddOutput<Routed<typename Lanes::Record>>()...};
  auto [state_out, state_stream] = fb.template AddOutput<BinChunk>();
  std::tuple keys{lanes.key...};

  struct FState {
    FState(uint32_t bins, uint32_t workers, uint32_t me,
           uint64_t state_bytes_per_sec)
        : cs(bins, workers, me, state_bytes_per_sec),
          route_scratch(std::vector<std::vector<
                            Routed<typename Lanes::Record>>>(workers)...) {}
    ControlState<T> cs;
    std::map<T, std::tuple<std::vector<typename Lanes::Record>...>> stash;
    // Per lane, per target worker.
    std::tuple<std::vector<std::vector<Routed<typename Lanes::Record>>>...>
        route_scratch;
    uint64_t steps = 0;
  };
  auto fs = std::make_shared<FState>(num_bins, scope.peers(), scope.worker(),
                                     cfg.state_bytes_per_sec);
  if (!cfg.initial_owner.empty()) {
    fs->cs.routing().ResetInitial(cfg.initial_owner);
  }

  fb.Build([=](OpCtx<T>& ctx) {
    // Routes a whole batch of lane i: records are grouped per destination
    // worker in pooled scratch buffers, then each group leaves as one
    // zero-copy bundle. In the steady state between migrations the owner
    // lookup is a flat array load per record.
    auto route = [&](auto i, const T& t, auto& recs) {
      using D = typename std::decay_t<decltype(recs)>::value_type;
      auto& per_target = std::get<i>(fs->route_scratch);
      const auto& key = std::get<i>(keys);
      const auto& routing = fs->cs.routing();
      if (const uint32_t* owners = routing.FlatOwnersAt(t)) {
        auto* groups = per_target.data();
        for (auto& r : recs) {
          BinId b = BinOf(key(r), num_bins);
          uint32_t w = owners[b];
          groups[w].push_back(Routed<D>{w, b, std::move(r)});
        }
      } else {
        for (auto& r : recs) {
          BinId b = BinOf(key(r), num_bins);
          uint32_t w = routing.WorkerAt(t, b);
          per_target[w].push_back(Routed<D>{w, b, std::move(r)});
        }
      }
      const uint32_t me = ctx.worker();
      for (uint32_t w = 0; w < per_target.size(); ++w) {
        if (per_target[w].empty()) continue;
        if (w == me) {
          // Same-thread handoff: S (scheduled after F in this very step)
          // drains the inbox; no channel, no progress counts.
          auto& inbox = std::get<i>(*inboxes);
          inbox.bundles.emplace_back(t, std::move(per_target[w]));
          per_target[w] = inbox.TakeBuffer();
        } else {
          std::get<i>(routed).first->SendBundle(t, w, per_target[w]);
        }
      }
    };

    // 1. Ingest configuration updates (retain a capability per time: F
    //    must be able to emit state at that time later).
    ctrl_in->ForEach([&](const T& t, std::vector<ControlInst>& us) {
      fs->cs.Enqueue(ctx, t, us);
    });

    // 2. Updates not in advance of the control frontier are final:
    //    integrate them into the routing table and queue migrations.
    fs->cs.IntegrateFinal(ctx, ctrl_in->frontier());

    // 3. Route data; buffer records whose time is in advance of the
    //    control frontier (their configuration is not yet certain).
    ForLanes<N>([&](auto i) {
      std::get<i>(data_ins)->ForEach([&](const T& t, auto& recs) {
        if (ctrl_in->frontier().LessEqual(t)) {
          auto [it, inserted] = fs->stash.try_emplace(t);
          if (inserted) ctx.Retain(t);
          auto& vec = std::get<i>(it->second);
          vec.insert(vec.end(), std::make_move_iterator(recs.begin()),
                     std::make_move_iterator(recs.end()));
        } else {
          route(i, t, recs);
        }
      });
    });

    // 4. Flush buffered records whose configuration has become final.
    while (!fs->stash.empty()) {
      auto it = fs->stash.begin();
      if (ctrl_in->frontier().LessEqual(it->first)) break;
      ForLanes<N>([&](auto i) {
        auto& recs = std::get<i>(it->second);
        if (!recs.empty()) route(i, it->first, recs);
      });
      ctx.Release(it->first);
      fs->stash.erase(it);
    }

    // 5. Initiate migrations whose time has been reached by the S output
    //    frontier: every record before that time has been applied. The
    //    extracted bins become queued chunk frames; the flush below meters
    //    them onto the state channel under the per-step byte budget and
    //    the channel's bandwidth, so a large bin never stalls a worker
    //    step for its full size.
    fs->cs.RunReadyMigrations(
        ctx,
        [&](const T& t) {
          MEGA_CHECK(probe_slot->valid());
          return !probe_slot->LessThan(t);
        },
        [&](const T&, BinId b, uint32_t target) {
          return ExtractBinChunks(*shared, b, target, cfg.chunk_bytes);
        });
    fs->cs.FlushChunks(ctx, cfg.ChunkStepBudget(),
                       [&](const T& t, BinChunk&& frame) {
                         chunk_counters().frames.fetch_add(
                             1, std::memory_order_relaxed);
                         chunk_counters().bytes.fetch_add(
                             frame.WireSize(), std::memory_order_relaxed);
                         state_out->Send(t, std::move(frame));
                       });

    // 6. Periodically drop routing-table versions behind every frontier.
    if ((++fs->steps & 63) == 0) {
      auto horizon = std::apply(
          [&](auto*... in) {
            return CompactionHorizon<T>(
                {&ctrl_in->frontier(), &in->frontier()...});
          },
          data_ins);
      if (horizon) fs->cs.routing().Compact(*horizon);
    }
  });

  // ------------------------------------------------------------------ S
  OperatorBuilder<T> sb(scope, cfg.name + "_S");
  auto s_data_ins = std::apply(
      [&](auto&... r) {
        return std::tuple{sb.AddInput(
            r.second, Pact<Routed<typename Lanes::Record>>::Route(
                          [](const auto& rec) { return rec.target; }))...};
      },
      routed);
  auto* s_state_in = sb.AddInput(
      state_stream,
      Pact<BinChunk>::Route([](const BinChunk& m) { return m.target; }));
  auto [out, out_stream] = sb.template AddOutput<R>();

  struct SState {
    std::tuple<LaneQueue<typename Lanes::Record, T>...> lanes;
    std::set<T> held;
    std::vector<BinId> bins_scratch;
    std::map<BinId, AbsorbingBin<BinT>> absorbing;
    std::vector<uint64_t> records_applied;  // per bin, since last stats take
  };
  auto ss = std::make_shared<SState>();
  ss->records_applied.assign(num_bins, 0);

  sb.Build([=](OpCtx<T>& ctx) {
    auto hold = [&](const T& t) {
      if (!ss->held.count(t)) {
        ctx.Retain(t);
        ss->held.insert(t);
      }
    };

    // 0. Install checkpoint-restored bins staged before stepping began:
    //    deserialize each whole-value payload and re-register its pending
    //    times under a capability hold — exactly as if the bin had just
    //    migrated in. Runs on S's first schedule, before any input.
    if (!shared->restore_staging.empty()) {
      for (auto& [rb, rbytes] : shared->restore_staging) {
        MEGA_CHECK(!shared->bins[rb]) << "restore into resident bin " << rb;
        Reader rr(rbytes);
        auto rbin = shared->NewBin();
        rbin->DeserializeInPlace(rr);
        rbin->ForEachPendingTime([&](const T& t) {
          shared->RegisterPending(t, rb);
          hold(t);
        });
        shared->bins[rb] = std::move(rbin);
      }
      shared->restore_staging.clear();
      shared->restore_staging.shrink_to_fit();
    }

    // 1. Install migrated state immediately (paper §3.4: "S immediately
    //    installs any received state") — chunk by chunk: each frame is
    //    absorbed on arrival, and the bin becomes resident (its pending
    //    times registered) at the final frame. Safe because records for
    //    the bin at ≥ t stay stashed until the state frontier passes t,
    //    which cannot happen before F releases t after the last frame.
    s_state_in->ForEach([&](const T&, std::vector<BinChunk>& ms) {
      for (auto& m : ms) {
        AbsorbChunkFrame(*shared, ss->absorbing, m, ctx.worker(), hold);
      }
    });

    // 2. Stash incoming records per lane and time, flat by bin (F already
    //    computed each record's bin): first bundles handed over by the
    //    co-located F this very step, then channel deliveries from remote
    //    workers.
    ForLanes<N>([&](auto i) {
      auto& lane = std::get<i>(ss->lanes);
      auto stash_records = [&](const T& t, auto& recs) {
        hold(t);
        auto it = lane.queue.find(t);
        if (it == lane.queue.end()) {
          it = lane.queue.emplace(t, lane.pool.Acquire(num_bins)).first;
        }
        auto* slots = it->second.by_bin.data();
        for (auto& r : recs) {
          MEGA_DCHECK(r.target == ctx.worker()) << "misrouted record";
          slots[r.bin].push_back(std::move(r.payload));
        }
      };
      auto& inbox = std::get<i>(*inboxes);
      if (!inbox.bundles.empty()) {
        for (auto& [t, recs] : inbox.bundles) {
          ctx.NoteInputTime(t);
          stash_records(t, recs);
          recs.clear();
          inbox.pool.push_back(std::move(recs));
        }
        inbox.bundles.clear();
      }
      std::get<i>(s_data_ins)->ForEach(stash_records);
    });

    // 3. Apply, in timestamp order, every time in advance of neither any
    //    data-input nor the state-input frontier.
    while (true) {
      std::optional<T> t;
      auto consider = [&](const T& cand) {
        if (!t || cand < *t) t = cand;
      };
      ForLanes<N>([&](auto i) {
        const auto& q = std::get<i>(ss->lanes).queue;
        if (!q.empty()) consider(q.begin()->first);
      });
      if (!shared->pending_bins.empty()) {
        consider(shared->pending_bins.begin()->first);
      }
      auto blocks = [&](const auto* in) {
        return in->frontier().LessEqual(*t);
      };
      if (!t || blocks(s_state_in) ||
          std::apply([&](auto*... in) { return (blocks(in) || ...); },
                     s_data_ins)) {
        break;
      }

      // Bins with work at *t: each lane's stashed input records (its
      // occupancy list, increasing) and/or pending post-dated records (an
      // ordered set). Merged, sorted and deduplicated for deterministic
      // application order only when more than one source contributed.
      std::tuple<BinStash<typename Lanes::Record>*...> stashes;
      auto& bins_at_t = ss->bins_scratch;
      bins_at_t.clear();
      int sources = 0;
      ForLanes<N>([&](auto i) {
        auto& q = std::get<i>(ss->lanes).queue;
        auto qit = q.find(*t);
        if (qit == q.end()) return;
        std::get<i>(stashes) = &qit->second;
        size_t before = bins_at_t.size();
        qit->second.AppendOccupied(bins_at_t);
        sources += bins_at_t.size() != before;
      });
      auto pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end() && !pit->second.empty()) {
        bins_at_t.insert(bins_at_t.end(), pit->second.begin(),
                         pit->second.end());
        ++sources;
      }
      if (sources > 1) {
        std::sort(bins_at_t.begin(), bins_at_t.end());
        bins_at_t.erase(std::unique(bins_at_t.begin(), bins_at_t.end()),
                        bins_at_t.end());
      }

      for (BinId b : bins_at_t) {
        auto& slot = shared->bins[b];
        if (!slot) slot = shared->NewBin();  // first touch
        // Per lane: the stashed records (or the lane's scratch buffer),
        // followed by the bin's post-dated records at *t.
        std::tuple<std::vector<typename Lanes::Record>*...> recs;
        size_t applied = 0;
        ForLanes<N>([&](auto i) {
          auto* stash = std::get<i>(stashes);
          auto*& v = std::get<i>(recs);
          if (stash && stash->Has(b)) {
            v = &stash->SlotRef(b);
          } else {
            v = &std::get<i>(ss->lanes).scratch;
            v->clear();
          }
          auto& pending = std::get<i>(slot->pending);
          auto pf = pending.find(*t);
          if (pf != pending.end()) {
            v->insert(v->end(), std::make_move_iterator(pf->second.begin()),
                      std::make_move_iterator(pf->second.end()));
            pending.erase(pf);
          }
          applied += v->size();
        });
        ss->records_applied[b] += applied;
        SchedulerImpl<BinT, T> sched(shared.get(), slot.get(), b, &*t, &ctx,
                                     &ss->held);
        std::apply(
            [&](auto*... rs) {
              fold(*t, slot->user_state(), *rs...,
                   [&](R r) { out->Send(*t, std::move(r)); }, sched);
              (rs->clear(), ...);  // slot capacity stays with the stash
            },
            recs);
      }
      ForLanes<N>([&](auto i) {
        auto& lane = std::get<i>(ss->lanes);
        if (!std::get<i>(stashes)) return;
        auto qit = lane.queue.find(*t);
        lane.pool.Recycle(std::move(qit->second));
        lane.queue.erase(qit);
      });
      pit = shared->pending_bins.find(*t);
      if (pit != shared->pending_bins.end()) shared->pending_bins.erase(pit);
      if (ss->held.count(*t)) {
        ctx.Release(*t);
        ss->held.erase(*t);
      }
    }

    // 4. Release capabilities whose pending work vanished because F
    //    extracted the bins holding it (the records migrated away).
    for (auto it = ss->held.begin(); it != ss->held.end();) {
      const T& t = *it;
      bool has_queue = std::apply(
          [&](const auto&... lane) { return (lane.queue.count(t) || ...); },
          ss->lanes);
      auto pit = shared->pending_bins.find(t);
      bool has_pending =
          pit != shared->pending_bins.end() && !pit->second.empty();
      if (pit != shared->pending_bins.end() && pit->second.empty()) {
        shared->pending_bins.erase(pit);
      }
      if (!has_queue && !has_pending) {
        ctx.Release(t);
        it = ss->held.erase(it);
      } else {
        ++it;
      }
    }
  });

  auto probe = timely::Probe(out_stream);
  *probe_slot = probe;
  StatefulOutput<R, T> result;
  result.stream = out_stream;
  result.probe = probe;
  result.take_bin_stats = [shared, ss, num_bins](BinStats& out) {
    out.records = std::move(ss->records_applied);
    ss->records_applied.assign(num_bins, 0);
    out.state_bytes.assign(num_bins, 0);
    out.resident.assign(num_bins, 0);
    for (BinId b = 0; b < shared->bins.size(); ++b) {
      if (!shared->bins[b]) continue;
      out.resident[b] = 1;
      out.state_bytes[b] = shared->bins[b]->ApproxBytes();
    }
  };
  result.capture_bins =
      [shared](std::vector<std::pair<uint32_t, std::vector<uint8_t>>>& out) {
        for (BinId b = 0; b < shared->bins.size(); ++b) {
          if (!shared->bins[b]) continue;
          Writer w;
          shared->bins[b]->SerializeCheckpoint(w);
          out.emplace_back(b, w.Take());
        }
      };
  result.restore_bins =
      [shared](std::vector<std::pair<uint32_t, std::vector<uint8_t>>> staged) {
        shared->restore_staging = std::move(staged);
      };
  return result;
}

}  // namespace detail

/// Builds a migratable unary stateful operator (paper Listing 1, `unary`).
///
///   * `S` — per-bin user state; default-constructible and serde-able.
///   * `R` — output record type.
///   * `control` — stream of configuration updates; broadcast to all
///     workers. Its frontier must be advanced by every worker for routing
///     to proceed (see MigrationController).
///   * `key_fn(const D&) -> uint64_t` — the exchange function; the bin is
///     its most significant bits.
///   * `fold(time, state, records, emit, scheduler)` — the operator logic,
///     invoked per (time, bin) with all records for that bin at that time
///     (input records first, then post-dated records), an `emit(R)`
///     callable, and a scheduler whose `ScheduleAt(t, rec)` post-dates a
///     record.
///
/// Migration is transparent to `fold`.
template <typename S, typename R, typename D, typename T, typename KeyFn,
          typename Fold>
StatefulOutput<R, T> Unary(timely::Stream<ControlInst, T> control,
                           timely::Stream<D, T> data, KeyFn key_fn, Fold fold,
                           const Config& cfg) {
  return detail::StatefulCore<S, R>(control, std::move(fold), cfg,
                                    detail::Lane<D, T, KeyFn>{data, key_fn});
}

/// Builds a migratable binary stateful operator (paper Listing 1,
/// `binary`): two data inputs share one binned state, and the migration
/// mechanism acts on both inputs at the same time (paper §3.4).
///
/// `fold(time, state, records1, records2, emit, scheduler)` receives both
/// inputs' records for the (time, bin) pair; `scheduler.Schedule1/2`
/// post-date records for either input.
template <typename S, typename R, typename D1, typename D2, typename T,
          typename KeyFn1, typename KeyFn2, typename Fold>
StatefulOutput<R, T> Binary(timely::Stream<ControlInst, T> control,
                            timely::Stream<D1, T> data1,
                            timely::Stream<D2, T> data2, KeyFn1 key_fn1,
                            KeyFn2 key_fn2, Fold fold, const Config& cfg) {
  return detail::StatefulCore<S, R>(
      control, std::move(fold), cfg,
      detail::Lane<D1, T, KeyFn1>{data1, key_fn1},
      detail::Lane<D2, T, KeyFn2>{data2, key_fn2});
}

/// Builds the simplest Megaphone interface (paper Listing 1,
/// `state_machine`): input pairs (key, val), per-key state, and
/// `fold(key, val, per_key_state, emit)` applied per record. The bin state
/// is a hash map from key to per-key state, as in the paper's "hash count"
/// workloads.
template <typename PerKey, typename R, typename K, typename V, typename T,
          typename KeyHash, typename Fold>
StatefulOutput<R, T> StateMachine(timely::Stream<ControlInst, T> control,
                                  timely::Stream<std::pair<K, V>, T> data,
                                  KeyHash key_hash, Fold fold,
                                  const Config& cfg) {
  using KV = std::pair<K, V>;
  using BinState = std::unordered_map<K, PerKey>;
  return Unary<BinState, R>(
      control, data, [key_hash](const KV& kv) { return key_hash(kv.first); },
      [fold](const T&, BinState& state, std::vector<KV>& recs, auto emit,
             auto&) {
        for (auto& [k, v] : recs) {
          fold(k, std::move(v), state[k], emit);
        }
      },
      cfg);
}

}  // namespace megaphone
