// User-facing dataflow inputs.
//
// Every worker creates an input handle during dataflow construction and
// holds a capability at its current epoch; the input stream's frontier is
// the minimum epoch across workers. Closing (or dropping) the handle
// releases the capability, which is what eventually completes the dataflow.
//
// Inputs are step-staged producers. Their flushes and capability moves
// apply to the local tracker replica at once, so probes see them with no
// step in between; the bundles they cover, and (in a multi-process run)
// their forward to peer replicas, wait for the start of the worker's next
// step, which forwards every input change of the round as one progress
// frame per peer and only then publishes the bundles.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "timely/operator.hpp"
#include "timely/stream.hpp"
#include "timely/worker.hpp"

namespace timely {

/// Worker-local handle feeding a dataflow input. Obtain via NewInput().
template <typename D, typename T>
class InputCore {
 public:
  InputCore(std::shared_ptr<OutputHandle<D, T>> out, uint32_t out_loc,
            DataflowInstance<T>* df)
      : out_(std::move(out)),
        out_loc_(out_loc),
        df_(df),
        epoch_(TimestampTraits<T>::Minimum()) {}

  ~InputCore() { Close(); }

  InputCore(const InputCore&) = delete;
  InputCore& operator=(const InputCore&) = delete;

  /// Sends one record at the current epoch.
  void Send(D item) {
    MEGA_CHECK(!closed_) << "Send on closed input";
    out_->Send(epoch_, std::move(item));
    df_->ApplyInputChanges();
  }

  /// Sends a batch of records at the current epoch.
  void SendBatch(std::vector<D>&& items) {
    MEGA_CHECK(!closed_) << "Send on closed input";
    out_->SendBatch(epoch_, std::move(items));
    df_->ApplyInputChanges();
  }

  /// Advances this worker's epoch to `t` (must be ≥ the current epoch),
  /// flushing buffered records and downgrading the capability.
  void AdvanceTo(const T& t) {
    MEGA_CHECK(!closed_) << "AdvanceTo on closed input";
    MEGA_CHECK(TimestampTraits<T>::LessEqual(epoch_, t))
        << "input epochs must be monotone";
    if (epoch_ == t) return;
    auto& changes = df_->input_changes();
    out_->StageFlush(changes);
    changes.push_back(Change<T>{out_loc_, t, +1});
    changes.push_back(Change<T>{out_loc_, epoch_, -1});
    df_->ApplyInputChanges();
    epoch_ = t;
  }

  /// Flushes and releases the capability; the input can send no more.
  /// Idempotent; also invoked by the destructor.
  void Close() {
    if (closed_) return;
    auto& changes = df_->input_changes();
    out_->StageFlush(changes);
    changes.push_back(Change<T>{out_loc_, epoch_, -1});
    df_->ApplyInputChanges();
    closed_ = true;
  }

  const T& epoch() const { return epoch_; }
  bool closed() const { return closed_; }

 private:
  std::shared_ptr<OutputHandle<D, T>> out_;
  uint32_t out_loc_;
  DataflowInstance<T>* df_;
  T epoch_;
  bool closed_ = false;
};

template <typename D, typename T>
using Input = std::shared_ptr<InputCore<D, T>>;

/// Creates a dataflow input; returns the worker-local handle and the
/// stream of records it feeds.
template <typename D, typename T>
std::pair<Input<D, T>, Stream<D, T>> NewInput(Scope<T>& scope) {
  uint32_t node = scope.ReserveNode("Input");
  uint32_t loc = scope.AddOutputPort(node);
  DataflowInstance<T>* df = scope.df();
  auto out = std::make_shared<OutputHandle<D, T>>(
      scope.worker(), scope.peers(), &df->input_changes(), nullptr);
  // Each worker contributes one capability at the minimum time; applied
  // after the tracker is finalized, before any worker proceeds.
  scope.AddInitialChange(loc, TimestampTraits<T>::Minimum(), +1);
  auto core = std::make_shared<InputCore<D, T>>(out, loc, df);
  df->AddInput(out.get());
  df->KeepAlive(out);
  return {core, Stream<D, T>(&scope, out.get(), loc)};
}

}  // namespace timely
