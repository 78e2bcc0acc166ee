// Edge cases of the MigrationController protocol: a stalled probe must
// never re-issue a batch and must bound how many go out (two without a
// gap, one with), the open-loop driver order must issue one batch per
// epoch, the configured gap must be enforced between batches, and Close
// with batches still queued must flush every remaining batch into the
// control stream.
//
// The probe is simulated: it watches an auxiliary input stream whose
// epoch the test advances by hand, which is exactly what the controller
// sees from the S output frontier in a real dataflow.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <vector>

#include "megaphone/megaphone.hpp"
#include "timely/timely.hpp"

namespace megaphone {
namespace {

using timely::OpCtx;
using timely::Pact;
using timely::Scope;
using timely::Worker;
using T = uint64_t;

struct Rig {
  timely::Input<ControlInst, T> ctrl;
  timely::Input<uint64_t, T> sim;  // drives the simulated S frontier
  timely::ProbeHandle<T> probe;
  std::shared_ptr<uint64_t> ctrl_records;  // records seen on ctrl stream
};

Rig BuildRig(Scope<T>& s) {
  auto [ctrl_in, ctrl_stream] = timely::NewInput<ControlInst>(s);
  auto [sim_in, sim_stream] = timely::NewInput<uint64_t>(s);
  auto probe = timely::Probe(sim_stream);
  auto seen = std::make_shared<uint64_t>(0);
  timely::OperatorBuilder<T> b(s, "CtrlSink");
  auto* in = b.AddInput(ctrl_stream, Pact<ControlInst>::Pipeline());
  b.Build([in, seen](OpCtx<T>&) {
    in->ForEach([&](const T&, std::vector<ControlInst>& us) {
      *seen += us.size();
    });
  });
  return Rig{ctrl_in, sim_in, probe, seen};
}

std::deque<std::vector<ControlInst>> FluidBatches(size_t n) {
  std::deque<std::vector<ControlInst>> batches;
  for (size_t i = 0; i < n; ++i) {
    batches.push_back({ControlInst{static_cast<BinId>(i), 0}});
  }
  return batches;
}

TEST(ControllerEdge, StalledProbeNeverDoubleIssues) {
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), {});
    controller.Migrate(FluidBatches(3));

    controller.Advance(0, 1);  // issues batch 0 at time 0
    controller.Advance(1, 2);  // prepared ahead: batch 1 at time 1
    EXPECT_EQ(controller.queued_batches(), 1u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 1u);

    // The probe never moves: with two batches outstanding, many more
    // rounds must not issue anything.
    for (uint64_t e = 2; e <= 21; ++e) {
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 1u);
      EXPECT_EQ(controller.completed_batches(), 0u);
      ASSERT_TRUE(controller.in_flight_time().has_value());
      EXPECT_EQ(*controller.in_flight_time(), 1u);  // the original issue
    }

    // Unstall: the batches complete in order, and the last one goes out
    // as soon as batch 0 has completed.
    rig.sim->AdvanceTo(1);
    controller.Advance(22, 23);
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 0u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 22u);

    rig.sim->AdvanceTo(2);
    controller.Advance(23, 24);
    EXPECT_EQ(controller.completed_batches(), 2u);
    EXPECT_TRUE(controller.Migrating());

    rig.sim->AdvanceTo(23);
    controller.Advance(24, 25);
    EXPECT_EQ(controller.completed_batches(), 3u);
    EXPECT_FALSE(controller.Migrating());

    controller.Close(25);
    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  EXPECT_EQ(*seen, 3u);  // each batch's single record, sent once
}

TEST(ControllerEdge, OpenLoopOrderIssuesOneBatchPerEpoch) {
  // Open-loop drivers advance the data input to `e` right after
  // Advance(e, e + 1), so the probe lags the control epoch by one round
  // and a batch issued at `e` is seen complete only at round e + 2.
  // Prepared one batch ahead, the plan still moves one batch per epoch.
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), {});
    controller.Migrate(FluidBatches(8));

    for (uint64_t e = 0; e <= 9; ++e) {
      controller.Advance(e, e + 1);
      if (e < 8) {
        ASSERT_TRUE(controller.in_flight_time().has_value());
        EXPECT_EQ(*controller.in_flight_time(), e)
            << "no batch issued at epoch " << e;
      }
      rig.sim->AdvanceTo(e);
      w.Step();
    }
    EXPECT_FALSE(controller.Migrating());
    EXPECT_EQ(controller.completed_batches(), 8u);

    controller.Close(10);
    rig.sim->Close();
  });
}

TEST(ControllerEdge, NonzeroGapKeepsAwaitThenDrain) {
  // A drain gap asks for an idle stretch after each batch, so it keeps
  // one batch outstanding: a stalled probe must never let a second out.
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    typename MigrationController<T>::Options opts;
    opts.gap = 1;
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), opts);
    controller.Migrate(FluidBatches(3));

    for (uint64_t e = 0; e <= 20; ++e) {
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 2u) << "issued at epoch " << e;
      EXPECT_EQ(controller.completed_batches(), 0u);
      ASSERT_TRUE(controller.in_flight_time().has_value());
      EXPECT_EQ(*controller.in_flight_time(), 0u);
    }

    rig.sim->AdvanceTo(1);       // batch 0 completes...
    controller.Advance(21, 22);  // ...and the gap holds the next back
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 2u);
    EXPECT_FALSE(controller.in_flight_time().has_value());

    controller.Advance(22, 23);  // gap over: 22 >= 21 + 1
    EXPECT_EQ(controller.queued_batches(), 1u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 22u);

    controller.Close(23);
    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  EXPECT_EQ(*seen, 3u);
}

TEST(ControllerEdge, GapIsEnforcedBetweenBatches) {
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    typename MigrationController<T>::Options opts;
    opts.gap = 3;
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), opts);
    controller.Migrate(FluidBatches(2));

    controller.Advance(0, 1);  // issues batch 0
    EXPECT_EQ(controller.queued_batches(), 1u);

    rig.sim->AdvanceTo(1);     // batch 0 completes...
    controller.Advance(1, 2);  // ...detected here; not_before_ = 1 + 3
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 1u) << "issued inside the gap";
    EXPECT_FALSE(controller.in_flight_time().has_value());

    for (uint64_t e = 2; e < 4; ++e) {  // still inside the gap
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 1u) << "issued at epoch " << e;
      EXPECT_FALSE(controller.in_flight_time().has_value());
    }

    controller.Advance(4, 5);  // gap over: 4 >= 1 + 3
    EXPECT_EQ(controller.queued_batches(), 0u);
    ASSERT_TRUE(controller.in_flight_time().has_value());
    EXPECT_EQ(*controller.in_flight_time(), 4u);

    rig.sim->AdvanceTo(5);
    controller.Advance(5, 6);
    EXPECT_EQ(controller.completed_batches(), 2u);
    controller.Close(6);
    rig.sim->Close();
  });
}

TEST(ControllerEdge, HugeGapSaturatesInsteadOfWrapping) {
  // A gap near the epoch type's max must pin not_before_ at max — the old
  // `now + gap` wrapped around, making the next batch due immediately.
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    typename MigrationController<T>::Options opts;
    opts.gap = std::numeric_limits<T>::max() - 1;
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), opts);
    controller.Migrate(FluidBatches(2));

    controller.Advance(0, 1);  // issues batch 0
    EXPECT_EQ(controller.queued_batches(), 1u);

    rig.sim->AdvanceTo(3);     // batch 0 completes...
    controller.Advance(3, 4);  // ...3 + (max-1) must saturate, not wrap
    EXPECT_EQ(controller.completed_batches(), 1u);
    EXPECT_EQ(controller.queued_batches(), 1u);
    EXPECT_FALSE(controller.in_flight_time().has_value());

    for (uint64_t e = 4; e <= 24; ++e) {  // the gap never elapses
      controller.Advance(e, e + 1);
      w.Step();
      EXPECT_EQ(controller.queued_batches(), 1u)
          << "gap wrapped: batch issued at epoch " << e;
      EXPECT_FALSE(controller.in_flight_time().has_value());
    }

    controller.Close(25);  // the held-back batch still flushes on Close
    EXPECT_EQ(controller.queued_batches(), 0u);
    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  EXPECT_EQ(*seen, 2u);
}

TEST(ControllerEdge, CloseFlushesQueuedBatches) {
  std::shared_ptr<uint64_t> seen;  // read after Execute fully drains
  timely::Execute(timely::Config{1}, [&](Worker& w) {
    auto rig = w.Dataflow<T>(BuildRig);
    MigrationController<T> controller(rig.ctrl, rig.probe, w.index(), {});
    controller.Migrate(FluidBatches(3));

    controller.Advance(0, 1);  // issues batch 0; probe stalls forever
    EXPECT_EQ(controller.queued_batches(), 2u);

    // Close with two batches still queued: they are all flushed into the
    // control stream at the final epoch.
    controller.Close(1);
    EXPECT_EQ(controller.queued_batches(), 0u);

    rig.sim->Close();
    seen = rig.ctrl_records;
  });
  // All three batches' records reached the control stream exactly once.
  EXPECT_EQ(*seen, 3u);
}

}  // namespace
}  // namespace megaphone
