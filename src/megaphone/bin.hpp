// Bins: the unit of state migration.
//
// Megaphone groups keys into a fixed power-of-two number of bins
// (paper §4.2); a bin holds the user state for its keys plus all pending
// post-dated records ("the list of pending (val, time) records produced by
// the operator for future times", §3.4), so that a migration moves both.
//
// The user state inside a bin sits on the migratable-state layer
// (src/state/): a backend exposing whole-value serde *and* a chunk
// interface, so a bin can leave its worker either as one monolithic frame
// or as a sequence of size-bounded chunk frames (BinChunk) absorbed
// incrementally at the destination. One bin type, LaneBin, serves
// operators of any number of data inputs: it keeps one pending map per
// input, and its serde/chunk implementation (detail::SerializeParts and
// friends) is variadic over those maps.
//
// The F and S operator instances on the same worker share the bin
// container through a shared pointer — they run on the same thread, so no
// synchronization is needed, exactly as the paper describes.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/serde.hpp"
#include "megaphone/control.hpp"
#include "state/state.hpp"

namespace megaphone {

namespace detail {

/// Section tags inside a BinChunk payload.
constexpr uint8_t kSecWhole = 0;     // monolithic whole-bin encoding
constexpr uint8_t kSecState = 1;     // one backend state chunk
constexpr uint8_t kSecPending0 = 2;  // pending map i at tag kSecPending0+i

/// Whole-value serde of a bin: the state backend followed by each pending
/// map, in lane order.
template <typename Backend, typename... Pending>
void SerializeParts(Writer& w, const Backend& backend,
                    const Pending&... pending) {
  Encode(w, backend);
  (Encode(w, pending), ...);
}

/// The inverse of SerializeParts, decoding in place where the backend can
/// (LogState), so it keeps its options.
template <typename Backend, typename... Pending>
void DeserializeParts(Reader& r, Backend& backend, Pending&... pending) {
  if constexpr (requires { backend.DeserializeInPlace(r); }) {
    backend.DeserializeInPlace(r);
  } else {
    backend = Decode<Backend>(r);
  }
  ((pending = Decode<Pending>(r)), ...);
}

/// Chunked extraction of a bin: state sections from the backend's
/// enumerator, then each pending map's encoding sliced into bounded
/// sections. `max_bytes == 0` produces the monolithic form — one
/// frame holding a single whole-bin section.
template <typename Backend, typename... Pending>
void DrainPartsChunks(size_t max_bytes,
                      std::vector<std::vector<uint8_t>>& out,
                      const Backend& backend, const Pending&... pending) {
  state::ChunkBuilder cb(max_bytes, &out);
  if (max_bytes == 0) {
    Writer w;
    SerializeParts(w, backend, pending...);
    cb.AddSectionSliced(kSecWhole, w.Take());
  } else {
    backend.EnumerateChunks(max_bytes, [&](std::vector<uint8_t>&& sec) {
      cb.AddSection(kSecState, sec);
    });
    uint8_t tag = kSecPending0;
    auto add_pending = [&](const auto& p) {
      if (!p.empty()) cb.AddSectionSliced(tag, EncodeToBytes(p));
      ++tag;
    };
    (add_pending(pending), ...);
  }
  cb.Finish();
}

/// Incremental absorption of a bin. Pending-map sections accumulate into
/// `bufs` (one buffer per map) until the last frame, whose arrival
/// finalizes the backend and decodes the maps.
template <size_t N, typename Backend, typename... Pending>
void AbsorbPartsChunk(Reader& r, bool last,
                      std::array<std::vector<uint8_t>, N>& bufs,
                      Backend& backend, Pending&... pending) {
  static_assert(sizeof...(Pending) == N);
  state::ForEachSection(r, [&](uint8_t tag, Reader& sec) {
    if (tag == kSecWhole) {
      DeserializeParts(sec, backend, pending...);
    } else if (tag == kSecState) {
      backend.AbsorbChunk(sec);
      // Malformed wire input surfaces as SerdeError, never UB or abort.
      if (!sec.AtEnd()) {
        throw SerdeError("bin chunk: state section not fully absorbed");
      }
    } else {
      size_t i = tag - kSecPending0;
      if (i >= N) throw SerdeError("bin chunk: unknown section tag");
      size_t n = sec.remaining();
      size_t old = bufs[i].size();
      bufs[i].resize(old + n);
      sec.ReadBytes(bufs[i].data() + old, n);
    }
  });
  if (last) {
    backend.FinishAbsorb();
    size_t i = 0;
    auto finish_pending = [&](auto& p) {
      if (!bufs[i].empty()) {
        p = DecodeFromBytes<std::remove_reference_t<decltype(p)>>(bufs[i]);
        bufs[i].clear();
        bufs[i].shrink_to_fit();
      }
      ++i;
    };
    (finish_pending(pending), ...);
  }
}

}  // namespace detail

/// State and pending records of one bin of a stateful operator with one
/// data input (lane) per record type `Ds`. `pending` holds, per lane, the
/// post-dated records by time; the whole-value and chunk encodings are the
/// state followed by each lane's pending map, in lane order.
template <typename S, typename T, typename... Ds>
struct LaneBin {
  static_assert(sizeof...(Ds) > 0, "a bin needs at least one lane");
  using Backend = state::BackendFor<S>;
  using Records = std::tuple<Ds...>;
  static constexpr size_t kLanes = sizeof...(Ds);

  Backend state{};
  std::tuple<std::map<T, std::vector<Ds>>...> pending;

  /// The state reference the operator logic sees: the declared type S.
  S& user_state() { return state::BackendSel<S>::user(state); }

  template <typename Fn>
  void ForEachPendingTime(Fn fn) const {
    ForEachPendingMap([&](const auto& m) {
      for (const auto& [t, _] : m) fn(t);
    });
  }

  /// Cheap size estimate for load statistics: state entries (when the
  /// backend exposes a count) plus pending records, scaled by the mean
  /// record size over the lanes. Relative weight only — the adaptive
  /// controller compares bins against each other, it never bills exact
  /// bytes.
  uint64_t ApproxBytes() const {
    uint64_t n = 0;
    if constexpr (requires { state.size(); }) n = state.size();
    ForEachPendingMap([&](const auto& m) {
      for (const auto& [t, v] : m) n += v.size();
    });
    return n * ((sizeof(Ds) + ...) / kLanes);
  }

  void Serialize(Writer& w) const {
    std::apply(
        [&](const auto&... p) { detail::SerializeParts(w, state, p...); },
        pending);
  }
  /// The encoding checkpoint capture writes: Serialize's layout, with a
  /// LogState backend as its segment manifest. Migration never uses it,
  /// so a migrating bin always ships its bytes.
  void SerializeCheckpoint(Writer& w) const {
    if constexpr (requires { state.SerializeCheckpoint(w); }) {
      state.SerializeCheckpoint(w);
    } else {
      Encode(w, state);
    }
    ForEachPendingMap([&](const auto& m) { Encode(w, m); });
  }
  static LaneBin Deserialize(Reader& r) {
    LaneBin b;
    b.DeserializeInPlace(r);
    return b;
  }
  /// Decodes either encoding into this bin, keeping the backend's options.
  void DeserializeInPlace(Reader& r) {
    std::apply(
        [&](auto&... p) { detail::DeserializeParts(r, state, p...); },
        pending);
  }

  void DrainChunks(size_t max_bytes,
                   std::vector<std::vector<uint8_t>>& out) const {
    std::apply(
        [&](const auto&... p) {
          detail::DrainPartsChunks(max_bytes, out, state, p...);
        },
        pending);
  }
  void AbsorbChunk(Reader& r, bool last) {
    std::apply(
        [&](auto&... p) {
          detail::AbsorbPartsChunk(r, last, absorb_bufs_, state, p...);
        },
        pending);
  }

 private:
  template <typename Fn>
  void ForEachPendingMap(Fn fn) const {
    std::apply([&](const auto&... p) { (fn(p), ...); }, pending);
  }

  std::array<std::vector<uint8_t>, kLanes> absorb_bufs_;
};

/// The bin of a single-input operator.
template <typename S, typename D, typename T>
using Bin = LaneBin<S, T, D>;

/// The per-worker bin container shared between co-located F and S
/// instances. `bins[b] == nullptr` means bin b is not (or not yet)
/// resident on this worker; S creates bins lazily on first use.
///
/// `pending_bins` indexes, per time, the resident bins holding pending
/// records at that time — the "extended notificator" of §4.3, kept as an
/// ordered map so S can replay pending times in order and F can unregister
/// the times of a bin it extracts for migration.
template <typename BinT, typename T>
struct BinsShared {
  explicit BinsShared(uint32_t n, state::LogStateOptions opts = {})
      : bins(n), backend_opts(std::move(opts)) {}

  /// A fresh bin for first touch, migration absorb or checkpoint restore;
  /// a LogState backend is built from the operator's options.
  std::unique_ptr<BinT> NewBin() const {
    auto b = std::make_unique<BinT>();
    using B = typename BinT::Backend;
    if constexpr (std::is_constructible_v<B, const state::LogStateOptions&>) {
      b->state = B(backend_opts);
    }
    return b;
  }

  std::vector<std::unique_ptr<BinT>> bins;
  state::LogStateOptions backend_opts;  // every bin is built with these
  std::map<T, std::set<BinId>> pending_bins;
  /// Checkpoint-restore staging: (bin, whole-value bytes) deposited by
  /// StatefulOutput::restore_bins before stepping begins; S installs
  /// them (deserializing and re-registering pending times under its
  /// capability hold) at its first schedule, then clears this.
  std::vector<std::pair<BinId, std::vector<uint8_t>>> restore_staging;

  /// Registers that `bin` has pending records at time `t`. Returns true if
  /// `t` is newly pending for this worker (caller retains a capability).
  bool RegisterPending(const T& t, BinId bin) {
    auto [it, inserted] = pending_bins.emplace(t, std::set<BinId>{});
    it->second.insert(bin);
    return inserted;
  }

  /// Number of resident bins (for tests and load introspection).
  size_t ResidentBins() const {
    size_t n = 0;
    for (const auto& b : bins) {
      if (b) n++;
    }
    return n;
  }
};

/// Per-time stash of incoming records grouped by destination bin: a flat
/// vector indexed by BinId — the per-time bin queues of §4.3 without any
/// per-(time, bin) hashing. The record path is a single indexed push;
/// occupancy is recovered by scanning the (small, cache-resident) bin
/// index at apply time. Slots keep their capacity when cleared, and whole
/// stashes are recycled through BinStashPool, so the steady state
/// allocates nothing per (time, bin).
template <typename D>
struct BinStash {
  std::vector<std::vector<D>> by_bin;

  void EnsureBins(uint32_t n) {
    if (by_bin.size() < n) by_bin.resize(n);
  }

  bool Has(BinId b) const { return !by_bin[b].empty(); }

  /// Record vector of `b`.
  std::vector<D>& SlotRef(BinId b) { return by_bin[b]; }

  /// Appends every nonempty bin id to `out`, in increasing order.
  void AppendOccupied(std::vector<BinId>& out) const {
    for (BinId b = 0; b < by_bin.size(); ++b) {
      if (!by_bin[b].empty()) out.push_back(b);
    }
  }

  /// Clears every slot (keeping capacity).
  void Reset() {
    for (auto& v : by_bin) {
      if (!v.empty()) v.clear();
    }
  }
};

/// Free list of BinStash instances. Single-threaded: each S operator owns
/// one pool, and F/S co-located on a worker run on that worker's thread.
template <typename D>
class BinStashPool {
 public:
  BinStash<D> Acquire(uint32_t num_bins) {
    if (free_.empty()) {
      BinStash<D> s;
      s.EnsureBins(num_bins);
      return s;
    }
    BinStash<D> s = std::move(free_.back());
    free_.pop_back();
    s.EnsureBins(num_bins);
    return s;
  }

  void Recycle(BinStash<D>&& s) {
    s.Reset();
    free_.push_back(std::move(s));
  }

  size_t size() const { return free_.size(); }

 private:
  std::vector<BinStash<D>> free_;
};

namespace detail {

/// Extracts `bin` from the shared container for migration: unregisters its
/// pending times, drains it into chunk frames for `target` (monolithic
/// when `chunk_bytes == 0`), and clears the slot. Returns an empty vector
/// for non-resident bins — there is nothing to move; the target creates
/// the bin lazily. A resident bin always yields at least one frame (the
/// final one), so residency itself transfers even when the bin is empty.
template <typename BinT, typename T>
std::vector<BinChunk> ExtractBinChunks(BinsShared<BinT, T>& shared,
                                       BinId bin, uint32_t target,
                                       uint64_t chunk_bytes) {
  auto& slot = shared.bins[bin];
  if (!slot) return {};
  slot->ForEachPendingTime([&](const T& t) {
    auto it = shared.pending_bins.find(t);
    if (it != shared.pending_bins.end()) it->second.erase(bin);
    // Empty sets are left for S to erase and release its capability.
  });
  std::vector<std::vector<uint8_t>> payloads;
  slot->DrainChunks(static_cast<size_t>(chunk_bytes), payloads);
  slot.reset();
  if (payloads.empty()) payloads.emplace_back();  // residency-only bin
  std::vector<BinChunk> frames;
  frames.reserve(payloads.size());
  for (uint32_t i = 0; i < payloads.size(); ++i) {
    BinChunk c;
    c.target = target;
    c.bin = bin;
    c.seq = i;
    c.last = (i + 1 == payloads.size()) ? 1 : 0;
    c.bytes = std::move(payloads[i]);
    frames.push_back(std::move(c));
  }
  return frames;
}

}  // namespace detail

}  // namespace megaphone
