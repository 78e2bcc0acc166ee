// Checkpoint/restore recovery: frontier-aligned per-bin checkpoints must
// (a) not perturb a run that never crashes, (b) allow a fresh process set
// to resume from the latest complete checkpoint with a byte-identical
// final digest, and (c) recover a 2x2 distributed run after one process
// is SIGKILLed mid-stream — the survivor reports a clean PeerDownError
// (no hang), and the re-launched run's digest equals the fault-free
// reference exactly.
#include <gtest/gtest.h>

#include <stdlib.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "harness/harness.hpp"
#include "harness/launcher.hpp"
#include "state/checkpoint.hpp"

namespace megaphone {
namespace {

// A config whose single batched migration completes quickly, so the
// checkpoint boundaries after it are quiescent (checkpoints are skipped
// while a migration is in flight).
DetCountConfig RecoveryConfig() {
  DetCountConfig cfg;
  cfg.total_workers = 4;
  cfg.num_bins = 32;
  cfg.domain = 1 << 10;
  cfg.records_per_epoch = 2048;
  cfg.epochs = 8;
  cfg.migrate_at_epoch = 2;
  cfg.strategy = MigrationStrategy::kBatched;
  cfg.batch_size = 32;  // whole plan in one batch
  cfg.seed = 42;
  return cfg;
}

std::string MakeCheckpointDir() {
  char tmpl[] = "/tmp/mega_ckpt_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  MEGA_CHECK(dir != nullptr) << "mkdtemp failed";
  return std::string(dir);
}

// LogState checkpoint manifests (lsck_* subdirectories) under `dir`.
size_t CountManifests(const std::string& dir) {
  size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().filename().string().rfind("lsck_", 0) == 0) ++n;
  }
  return n;
}

timely::Config FastFailure(timely::Config tc) {
  tc.heartbeat_ms = 50;
  tc.peer_deadline_ms = 2000;
  return tc;
}

// Checkpointing must be observation-only: the digest of a run with
// checkpoints enabled equals the digest without them, and a restore from
// the final checkpoint replays the tail to the same digest.
TEST(Recovery, SingleProcessCheckpointAndResume) {
  DetCountConfig cfg = RecoveryConfig();
  timely::Config single;
  single.workers = 4;

  DetCountResult plain = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(plain.root);
  ASSERT_FALSE(plain.digest.empty());

  cfg.checkpoint_dir = MakeCheckpointDir();
  cfg.checkpoint_every = 2;
  DetCountResult checked = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(checked.root);
  EXPECT_EQ(checked.digest, plain.digest)
      << "checkpointing perturbed the computation";
  EXPECT_EQ(checked.completed_batches, plain.completed_batches);

  // Boundaries land at epochs 2, 4, 6 (8 is the end and is not written);
  // 2 is skipped only if the migration is still in flight there.
  uint64_t latest = state::LatestCompleteEpoch(cfg.checkpoint_dir, 1);
  EXPECT_EQ(latest, 6u);

  DetCountConfig resume = cfg;
  resume.restore = true;
  DetCountResult resumed = RunDeterministicCount(resume, single);
  ASSERT_TRUE(resumed.root);
  EXPECT_EQ(resumed.start_epoch, latest);
  EXPECT_EQ(resumed.digest, plain.digest)
      << "resumed run diverged from the fault-free run";
}

// Restore on an empty directory degrades to a fresh run.
TEST(Recovery, RestoreWithoutCheckpointStartsFresh) {
  DetCountConfig cfg = RecoveryConfig();
  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);

  cfg.checkpoint_dir = MakeCheckpointDir();
  cfg.restore = true;
  DetCountResult out = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(out.root);
  EXPECT_EQ(out.start_epoch, 0u);
  EXPECT_EQ(out.digest, ref.digest);
}

// The headline drill: 2 processes x 2 workers, process 1 SIGKILLs itself
// at the top of epoch 5 (after the epoch-4 checkpoint is complete). The
// surviving process must abort with PeerDownError instead of hanging in
// the lockstep wait, and a fresh 2x2 launch with restore=true must land
// on the exact digest of a run that never crashed.
TEST(Recovery, KillOneProcessRecoversByteIdentical) {
  DetCountConfig cfg = RecoveryConfig();

  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);
  ASSERT_GT(ref.completed_batches, 0u) << "migration never ran";

  cfg.checkpoint_dir = MakeCheckpointDir();
  cfg.checkpoint_every = 2;

  // --- crash run -----------------------------------------------------
  {
    DetCountConfig crash = cfg;
    crash.die_at_epoch = 5;
    crash.die_process = 1;
    MultiProcess mp = LaunchLoopbackProcesses(2, 2);
    if (!mp.IsRoot()) {
      // The child is the process that dies; it never returns from the
      // raise(SIGKILL) inside the epoch loop. Reaching _exit(0) would
      // mean the kill did not happen — report that as a failure.
      RunDeterministicCount(crash, FastFailure(mp.config));
      ::_exit(9);
    }
    bool aborted = false;
    std::string reason;
    try {
      RunDeterministicCount(crash, FastFailure(mp.config));
    } catch (const timely::PeerDownError& e) {
      aborted = true;
      reason = e.what();
    }
    EXPECT_TRUE(aborted) << "survivor must report the dead peer";
    EXPECT_FALSE(reason.empty());
    EXPECT_NE(WaitForChildren(mp.children), 0)
        << "the child was SIGKILLed; a clean exit means the kill is broken";
  }

  uint64_t latest = state::LatestCompleteEpoch(cfg.checkpoint_dir, 2);
  ASSERT_GE(latest, 4u) << "epoch-4 checkpoint must exist before the crash";
  ASSERT_LT(latest, cfg.epochs);

  // --- recovery run --------------------------------------------------
  DetCountConfig rec = cfg;
  rec.restore = true;
  DetCountResult out = RunForked(2, 2, [&](const timely::Config& tc) {
    return RunDeterministicCount(rec, tc);
  });
  ASSERT_TRUE(out.root);
  EXPECT_EQ(out.start_epoch, latest);
  EXPECT_EQ(out.digest, ref.digest)
      << "post-recovery digest diverged from the fault-free run";
  EXPECT_EQ(out.distinct_keys, ref.distinct_keys);
}

// Migration ships a bin's bytes, never a checkpoint manifest. A
// spill-backend run with a checkpoint directory configured but no capture
// due (checkpoint_every > epochs) migrates its spilled bins monolithically
// (chunk_bytes 0): nothing may appear under the checkpoint directory — a
// manifest there would be a local path standing in for state a remote
// destination cannot read — and the digest must equal the MapState run.
TEST(Recovery, MonolithicMigrationOfSpilledBinsShipsBytes) {
  DetCountConfig cfg = RecoveryConfig();
  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);
  ASSERT_GT(ref.completed_batches, 0u) << "migration never ran";

  DetCountConfig lg = cfg;
  lg.backend = DetCountConfig::Backend::kLog;
  lg.state_dir = MakeCheckpointDir();
  lg.spill_memtable_bytes = 256;  // force segment traffic
  lg.chunk_bytes = 0;
  lg.checkpoint_dir = MakeCheckpointDir();
  lg.checkpoint_every = 1000;  // > epochs: no checkpoint is captured
  DetCountResult out = RunDeterministicCount(lg, single);
  ASSERT_TRUE(out.root);

  EXPECT_EQ(CountManifests(lg.checkpoint_dir), 0u)
      << "a migration published segment manifests instead of bin bytes";
  EXPECT_EQ(out.digest, ref.digest) << "LogState run diverged from MapState";
  EXPECT_EQ(out.completed_batches, ref.completed_batches);

  std::error_code ec;
  std::filesystem::remove_all(lg.state_dir, ec);
  std::filesystem::remove_all(lg.checkpoint_dir, ec);
}

// The complement: checkpoint capture of spilled bins does publish
// manifests, from bins created at first touch and from bins restored out
// of a checkpoint alike, and resuming from them reproduces the MapState
// digest.
TEST(Recovery, SpilledBinsCheckpointAsManifests) {
  DetCountConfig cfg = RecoveryConfig();
  cfg.migrate_at_epoch = cfg.epochs;  // no migration: bins stay put
  timely::Config single;
  single.workers = 4;
  DetCountResult ref = RunDeterministicCount(cfg, single);
  ASSERT_TRUE(ref.root);

  DetCountConfig lg = cfg;
  lg.backend = DetCountConfig::Backend::kLog;
  lg.state_dir = MakeCheckpointDir();
  lg.spill_memtable_bytes = 256;  // force segment traffic
  lg.checkpoint_dir = MakeCheckpointDir();
  lg.checkpoint_every = 2;
  DetCountResult out = RunDeterministicCount(lg, single);
  ASSERT_TRUE(out.root);
  EXPECT_EQ(out.digest, ref.digest);
  const size_t captured = CountManifests(lg.checkpoint_dir);
  EXPECT_GT(captured, 0u) << "spilled bins checkpointed inline";

  // Drop the epoch-6 checkpoint: the resume restores epoch 4, and its
  // epoch-6 capture comes from restored bins.
  ASSERT_TRUE(std::filesystem::remove(
      state::SegmentPath(lg.checkpoint_dir, 6, /*process=*/0)));
  lg.restore = true;
  DetCountResult resumed = RunDeterministicCount(lg, single);
  ASSERT_TRUE(resumed.root);
  EXPECT_EQ(resumed.start_epoch, 4u);
  EXPECT_EQ(resumed.digest, ref.digest);
  EXPECT_GT(CountManifests(lg.checkpoint_dir), captured)
      << "restored bins lost the operator's checkpoint directory";

  std::error_code ec;
  std::filesystem::remove_all(lg.state_dir, ec);
  std::filesystem::remove_all(lg.checkpoint_dir, ec);
}

// Segment files must be atomically published: a torn write (simulated by
// a stray .tmp and a truncated file) never counts as a checkpoint, and a
// truncated segment fails with SerdeError, not UB.
TEST(Recovery, TornSegmentsAreRejected) {
  std::string dir = MakeCheckpointDir();

  state::CheckpointSegment seg;
  seg.epoch = 4;
  seg.assignment = {0, 1, 2, 3};
  seg.workers[0].emplace_back(7, std::vector<uint8_t>{1, 2, 3});
  state::WriteSegment(dir, /*process=*/0, seg);
  EXPECT_EQ(state::LatestCompleteEpoch(dir, 1), 4u);

  // A .tmp leftover for a later epoch is not a checkpoint.
  { FILE* f = fopen((dir + "/ckpt_e6_p0.bin.tmp").c_str(), "wb"); fclose(f); }
  EXPECT_EQ(state::LatestCompleteEpoch(dir, 1), 4u);

  // With 2 processes required, one segment is incomplete.
  EXPECT_EQ(state::LatestCompleteEpoch(dir, 2), 0u);

  // Truncating the valid segment makes it unloadable — cleanly.
  std::string path = state::SegmentPath(dir, 4, 0);
  EXPECT_EQ(truncate(path.c_str(), 10), 0);
  EXPECT_THROW(state::LoadSegment(path), SerdeError);
}

}  // namespace
}  // namespace megaphone
