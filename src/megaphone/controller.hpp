// The migration controller: an external driver of the control stream.
//
// Megaphone deliberately leaves *when* to migrate to an external
// controller (paper §4.4 — DS2, Dhalion, or Chi could supply the stream).
// This controller implements the paper's evaluation protocol: it issues a
// strategy's batches in order, and a batch is complete once the S output
// frontier passes its timestamp.
//
// Migrations are prepared one batch ahead (paper §1: "prepared ahead of
// time to avoid runtime coordination"). With no drain gap, batch k+1 is
// issued at the first epoch after batch k's, as soon as batch k-1 has
// completed, so at most two batches are outstanding. This is safe without
// any coordination in F/S: F starts the migrations at `t` only once the S
// output frontier reaches `t`, and holds its capability at `t` until the
// last chunk at `t` has left, so batch k+1's extraction cannot begin
// before batch k is installed. A nonzero gap (§4.4) asks for an idle
// stretch after each batch instead: the controller then awaits each
// batch's completion and drains `gap` epochs before issuing the next.
//
// Every worker owns one controller instance and calls Advance() once per
// driver round; this keeps the control input's frontier ahead of the data
// frontier on every worker (a requirement for routing to proceed — see
// stateful.hpp). Only worker 0 actually emits the control records.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "megaphone/strategies.hpp"
#include "timely/input.hpp"
#include "timely/probe.hpp"

namespace megaphone {

/// Drives one control input for one worker. `T` must be an integral epoch
/// type (the evaluation uses nanoseconds or round counters).
template <typename T>
class MigrationController {
 public:
  struct Options {
    MigrationStrategy strategy = MigrationStrategy::kBatched;
    /// Bins per batch (kBatched only).
    size_t batch_size = 64;
    /// Epochs to wait after a batch completes before issuing the next one,
    /// letting the system drain enqueued records (paper §4.4). The gap is
    /// in timestamp units.
    T gap = 0;
  };

  MigrationController(timely::Input<ControlInst, T> control,
                      timely::ProbeHandle<T> probe, uint32_t worker,
                      Options options)
      : control_(std::move(control)), probe_(std::move(probe)),
        worker_(worker), options_(options) {}

  /// Schedules a migration described by its batch sequence. All workers
  /// must schedule identical migrations in the same order.
  void Migrate(std::deque<std::vector<ControlInst>> batches) {
    for (auto& b : batches) pending_batches_.push_back(std::move(b));
  }

  /// Convenience: plan and schedule the diff from `from` to `to` with the
  /// configured strategy.
  void MigrateTo(const Assignment& from, const Assignment& to) {
    Migrate(PlanBatches(options_.strategy, DiffAssignments(from, to), from,
                        options_.batch_size));
  }

  /// Called once per driver round, before data for epoch `now` is sent.
  /// Issues a due batch at `now` and advances the control epoch to `next`
  /// (which must satisfy now < next) so records at `now` can be routed.
  void Advance(const T& now, const T& next) {
    MEGA_CHECK_LT(now, next);
    control_->AdvanceTo(std::max(control_->epoch(), now));

    // Retire completed batches, oldest first: the S output frontier has
    // passed their timestamps.
    while (!in_flight_.empty() && !probe_.LessEqual(in_flight_.front())) {
      in_flight_.pop_front();
      not_before_ = SaturatingAdd(now, options_.gap);
      completed_batches_++;
    }

    const T at = control_->epoch();
    if (!pending_batches_.empty() && now >= not_before_ && CanIssueAt(at)) {
      if (worker_ == 0) {
        std::vector<ControlInst> batch = pending_batches_.front();
        control_->SendBatch(std::move(batch));
      }
      in_flight_.push_back(at);
      pending_batches_.pop_front();
    }

    control_->AdvanceTo(next);
  }

  /// Flushes all queued batches and closes the control input; call when
  /// the driver is done. Remaining batches are issued immediately at the
  /// final epoch (they will complete as the dataflow drains).
  void Close(const T& now) {
    control_->AdvanceTo(std::max(control_->epoch(), now));
    if (worker_ == 0) {
      while (!pending_batches_.empty()) {
        std::vector<ControlInst> batch = pending_batches_.front();
        control_->SendBatch(std::move(batch));
        pending_batches_.pop_front();
      }
    } else {
      pending_batches_.clear();
    }
    control_->Close();
  }

  /// True while batches remain queued or in flight.
  bool Migrating() const {
    return !in_flight_.empty() || !pending_batches_.empty();
  }
  size_t completed_batches() const { return completed_batches_; }
  size_t queued_batches() const { return pending_batches_.size(); }
  /// Time of the newest outstanding batch, if any.
  std::optional<T> in_flight_time() const {
    if (in_flight_.empty()) return std::nullopt;
    return in_flight_.back();
  }

 private:
  timely::Input<ControlInst, T> control_;
  timely::ProbeHandle<T> probe_;
  uint32_t worker_;
  Options options_;

  std::deque<std::vector<ControlInst>> pending_batches_;
  /// Issue times of the outstanding batches, oldest first (at most two).
  std::deque<T> in_flight_;
  T not_before_ = TimestampTraits_Minimum();
  size_t completed_batches_ = 0;

  /// Whether a batch may go out at control epoch `at`: always when none is
  /// outstanding; with no gap, also as a second one at a later epoch.
  bool CanIssueAt(const T& at) const {
    if (in_flight_.empty()) return true;
    return options_.gap == 0 && in_flight_.size() < 2 &&
           in_flight_.back() < at;
  }

  static T TimestampTraits_Minimum() {
    return timely::TimestampTraits<T>::Minimum();
  }

  /// `now + gap` with saturation: a gap near the epoch type's max must pin
  /// `not_before_` at max ("never again"), not wrap around and issue the
  /// next batch immediately.
  static T SaturatingAdd(const T& now, const T& gap) {
    if (now > std::numeric_limits<T>::max() - gap) {
      return std::numeric_limits<T>::max();
    }
    return now + gap;
  }
};

}  // namespace megaphone
