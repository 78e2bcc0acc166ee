// Dataflow node interfaces.
#pragma once

#include <cstdint>
#include <vector>

#include "timely/progress.hpp"

namespace timely {

template <typename T>
class DataflowInstance;

/// A worker-local operator instance. Workers repeatedly call Schedule on
/// every node of a dataflow; each node drains its inputs, runs user
/// logic, and stages its outputs and progress changes into the step.
/// After every node has been scheduled the dataflow applies the step's
/// consolidated progress batch once, then calls CommitStep so staged
/// bundles become visible (the safety order: counts first).
template <typename T>
class NodeBase {
 public:
  virtual ~NodeBase() = default;
  /// Returns true if the node did any work (used for idle backoff).
  virtual bool Schedule(DataflowInstance<T>& df) = 0;
  /// Publishes bundles staged by Schedule; runs after the step's progress
  /// batch has been applied. Returns true if anything moved.
  virtual bool CommitStep() { return false; }
};

/// Step-scoped flushing protocol implemented by output handles. A node
/// first *stages* every non-empty buffer (bundles move out of the
/// buffers, produced counts append to a change batch), then the batch is
/// applied to the tracker in one consolidated call, and only then are
/// staged bundles *committed* (made visible in channels) — the safety
/// order, with one tracker acquisition per step instead of one per
/// buffer plus one per step. Dataflow inputs follow the same protocol
/// across the step boundary: their batch is applied at once and their
/// bundles are committed at the start of the worker's next step.
template <typename T>
class StepFlushable {
 public:
  virtual ~StepFlushable() = default;
  /// Moves non-empty buffers into the staging area; appends their
  /// produced counts to `changes`. Returns true if anything was staged.
  virtual bool StageFlush(std::vector<Change<T>>& changes) = 0;
  /// Publishes staged bundles to their channels. Must be called after
  /// their produced counts have been applied (and, in a multi-process
  /// run, forwarded). Returns true if anything was published.
  virtual bool CommitFlush() = 0;
};

}  // namespace timely
