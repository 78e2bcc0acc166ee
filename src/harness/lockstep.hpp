// Migration schedules for every runner, and the lockstep protocol of the
// deterministic harnesses (paper §4.4, §5). The open-loop runners issue a
// schedule's steps by wall clock (count) or event time (NEXMark);
// Lockstep issues them by epoch and waits for every epoch to complete, so
// every worker's controller observes the same probe state at the same
// epoch and completed_batches is independent of wall time and of the
// process split.
#pragma once

#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {

/// One step of an open-loop runner's schedule: migrate to `to` once the
/// run is `at_ms` milliseconds past its measurement origin.
struct TimedMigration {
  uint64_t at_ms;
  Assignment to;
};

/// The configuration every deterministic harness shares.
struct DetRunConfig {
  uint32_t total_workers = 4;
  uint32_t num_bins;
  uint64_t epochs;
  /// Epoch at which every worker schedules the initial->imbalanced
  /// migration; >= epochs disables migration. Ignored when `schedule` is
  /// nonempty.
  uint64_t migrate_at_epoch;
  /// Optional explicit migration schedule: (epoch, target assignment)
  /// pairs in nondecreasing epoch order, overriding migrate_at_epoch —
  /// how the property tests drive *random* reconfiguration sequences.
  std::vector<std::pair<uint64_t, Assignment>> schedule;
  MigrationStrategy strategy = MigrationStrategy::kFluid;
  size_t batch_size = 1;
  /// State-chunk frame bound and per-step budget (0 = monolithic). The
  /// output digest must be byte-identical at every setting.
  uint64_t chunk_bytes = 0;
  uint64_t chunk_bytes_per_step = 0;

 protected:
  DetRunConfig(uint32_t bins, uint64_t num_epochs, uint64_t migrate_at)
      : num_bins(bins), epochs(num_epochs), migrate_at_epoch(migrate_at) {}
};

/// The result every deterministic harness shares; filled only in the
/// process hosting global worker 0 (`root`).
struct DetRunResult {
  std::vector<uint8_t> digest;
  size_t completed_batches = 0;
  bool root = false;
};

namespace detail {

/// Walks a schedule of (time, assignment) steps in nondecreasing time
/// order; `current` is the assignment the steps passed so far lead to.
template <typename Step>
struct ScheduleCursor {
  std::vector<Step> steps;
  Assignment current;
  size_t next = 0;

  /// Passes every remaining step whose time `due` accepts, planning each
  /// on `controller`; nullptr only replays them into `current`.
  template <typename T, typename Due>
  void Issue(MigrationController<T>* controller, Due due) {
    for (; next < steps.size(); ++next) {
      const auto& [at, to] = steps[next];
      if (!due(at)) break;
      if (controller != nullptr) controller->MigrateTo(current, to);
      current = to;
    }
  }
};

/// One worker's side of the lockstep protocol. Per epoch e the harness
/// calls Begin(e), injects e's records and calls End(e); Finish drains.
template <typename T, typename... D>
class Lockstep {
 public:
  /// `scheduled` = false issues no schedule: the run's migrations come
  /// from elsewhere (the adaptive policy).
  Lockstep(const DetRunConfig& cfg, bool scheduled, timely::Worker& w,
           timely::Input<ControlInst, T> ctrl, timely::ProbeHandle<T> probe,
           timely::Input<D, T>... inputs)
      : cfg_(cfg), w_(w), probe_(probe),
        controller_(std::move(ctrl), probe, w.index(),
                    {cfg.strategy, cfg.batch_size, /*gap=*/0}),
        schedule_{scheduled ? EffectiveSchedule(cfg) : Schedule{},
                  MakeInitialAssignment(cfg.num_bins, cfg.total_workers)},
        inputs_(std::move(inputs)...) {}

  /// Resumes at `epoch` from a checkpoint taken under `assignment`. The
  /// restored routing table already reflects earlier migrations, so they
  /// are only replayed, and must arrive at the checkpointed assignment.
  void Restore(uint64_t epoch, const Assignment& assignment) {
    schedule_.Issue<T>(nullptr, [epoch](uint64_t at) { return at < epoch; });
    MEGA_CHECK(schedule_.current == assignment)
        << "checkpoint assignment diverges from the replayed schedule";
    AdvanceInputs(epoch);
  }

  /// Issues epoch `e`'s scheduled migrations and advances the control
  /// input past `e`, so records at `e` can be routed.
  void Begin(uint64_t e) {
    schedule_.Issue(&controller_, [e](uint64_t at) { return at == e; });
    controller_.Advance(e, e + 1);
  }

  /// Advances the data inputs past `e` and steps until the probe passes.
  void End(uint64_t e) {
    AdvanceInputs(e + 1);
    w_.StepUntil([&] { return !probe_.LessThan(e + 1); });
  }

  /// Drains empty epochs until the migration has fully completed, closes
  /// every input, and on global worker 0 fills completed_batches and root.
  void Finish(DetRunResult& result) {
    uint64_t e = cfg_.epochs;
    for (; controller_.Migrating(); ++e) {
      controller_.Advance(e, e + 1);
      End(e);
    }
    if (w_.index() == 0) {
      result.completed_batches = controller_.completed_batches();
      result.root = true;
    }
    controller_.Close(e + 1);
    std::apply([](auto&... in) { (in->Close(), ...); }, inputs_);
  }

  MigrationController<T>& controller() { return controller_; }
  const Assignment& current() const { return schedule_.current; }

 private:
  using Schedule = std::vector<std::pair<uint64_t, Assignment>>;

  static Schedule EffectiveSchedule(const DetRunConfig& cfg) {
    if (!cfg.schedule.empty() || cfg.migrate_at_epoch >= cfg.epochs) {
      return cfg.schedule;
    }
    return {{cfg.migrate_at_epoch,
             MakeImbalancedAssignment(cfg.num_bins, cfg.total_workers)}};
  }

  void AdvanceInputs(uint64_t t) {
    std::apply([t](auto&... in) { (in->AdvanceTo(t), ...); }, inputs_);
  }

  const DetRunConfig& cfg_;
  timely::Worker& w_;
  timely::ProbeHandle<T> probe_;
  MigrationController<T> controller_;
  ScheduleCursor<std::pair<uint64_t, Assignment>> schedule_;
  std::tuple<timely::Input<D, T>...> inputs_;
};

}  // namespace detail
}  // namespace megaphone
