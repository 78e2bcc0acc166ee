// Migration strategies: turning a reconfiguration into a sequence of
// timed control batches (paper §3.3).
//
// To migrate from configuration C1 to C2 a user reveals the diff as
// control records:
//   * all-at-once — every change at one common time (the partial
//     pause-and-resume of existing systems);
//   * fluid       — one bin per batch;
//   * batched     — B bins per batch;
//   * optimized   — batches grouped by bipartite matching so that no two
//     migrations in a batch share a source or destination worker
//     (paper §4.4), reducing steps without raising the maximum latency.
//
// MigrationController (controller.hpp) issues the batches of a plan one
// epoch apart, each as soon as the batch two before it has completed, so
// at most two are outstanding. That is safe because F starts the
// migrations at `t` only once the S output frontier reaches `t`, and the
// frontier cannot pass `t` before the batch at `t` is installed; a drain
// gap instead awaits each batch's completion before the next.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <set>
#include <vector>

#include "common/check.hpp"
#include "megaphone/control.hpp"

namespace megaphone {

enum class MigrationStrategy {
  kAllAtOnce,
  kFluid,
  kBatched,
  kOptimized,
};

inline const char* StrategyName(MigrationStrategy s) {
  switch (s) {
    case MigrationStrategy::kAllAtOnce: return "all-at-once";
    case MigrationStrategy::kFluid: return "fluid";
    case MigrationStrategy::kBatched: return "batched";
    case MigrationStrategy::kOptimized: return "optimized";
  }
  return "?";
}

/// A full assignment of bins to workers.
using Assignment = std::vector<uint32_t>;

/// The engine's initial assignment: bin i on worker i % W.
inline Assignment MakeInitialAssignment(uint32_t num_bins, uint32_t workers) {
  Assignment a(num_bins);
  for (uint32_t b = 0; b < num_bins; ++b) a[b] = InitialOwner(b, workers);
  return a;
}

/// The paper's evaluation reconfiguration (§5): half of the bins owned by
/// the first half of the workers move to the corresponding worker in the
/// second half (25% of total state), producing an imbalanced assignment.
inline Assignment MakeImbalancedAssignment(uint32_t num_bins,
                                           uint32_t workers) {
  Assignment a = MakeInitialAssignment(num_bins, workers);
  MEGA_CHECK_GE(workers, 2u);
  uint32_t half = workers / 2;
  // Move every other bin of each lower-half worker to its upper-half
  // counterpart (per-worker alternation, so every source worker loses
  // half of its bins).
  std::vector<uint32_t> seen(workers, 0);
  for (uint32_t b = 0; b < num_bins; ++b) {
    if (a[b] < half) {
      if (seen[a[b]]++ % 2 == 0) a[b] = a[b] + half;
    }
  }
  return a;
}

/// The control records revealing the change from `from` to `to`.
inline std::vector<ControlInst> DiffAssignments(const Assignment& from,
                                                const Assignment& to) {
  MEGA_CHECK_EQ(from.size(), to.size());
  std::vector<ControlInst> moves;
  for (uint32_t b = 0; b < from.size(); ++b) {
    if (from[b] != to[b]) moves.push_back(ControlInst{b, to[b]});
  }
  return moves;
}

/// Splits `moves` into the batch sequence a strategy issues. `from` is the
/// assignment before the migration (needed to know each move's source
/// worker for the optimized grouping); `batch_size` applies to kBatched.
inline std::deque<std::vector<ControlInst>> PlanBatches(
    MigrationStrategy strategy, const std::vector<ControlInst>& moves,
    const Assignment& from, size_t batch_size) {
  std::deque<std::vector<ControlInst>> batches;
  switch (strategy) {
    case MigrationStrategy::kAllAtOnce: {
      if (!moves.empty()) batches.emplace_back(moves);
      break;
    }
    case MigrationStrategy::kFluid: {
      for (const auto& m : moves) batches.push_back({m});
      break;
    }
    case MigrationStrategy::kBatched: {
      MEGA_CHECK_GT(batch_size, 0u);
      for (size_t i = 0; i < moves.size(); i += batch_size) {
        batches.emplace_back(
            moves.begin() + static_cast<long>(i),
            moves.begin() +
                static_cast<long>(std::min(i + batch_size, moves.size())));
      }
      break;
    }
    case MigrationStrategy::kOptimized: {
      // Greedy bipartite matching rounds: within a batch every worker
      // appears at most once as a source and at most once as a
      // destination, so batched migrations do not contend on any worker.
      std::vector<ControlInst> remaining = moves;
      Assignment current = from;
      while (!remaining.empty()) {
        std::vector<ControlInst> batch;
        std::set<uint32_t> used_src, used_dst;
        std::vector<ControlInst> deferred;
        for (const auto& m : remaining) {
          uint32_t src = current[m.bin];
          if (!used_src.count(src) && !used_dst.count(m.worker)) {
            used_src.insert(src);
            used_dst.insert(m.worker);
            batch.push_back(m);
          } else {
            deferred.push_back(m);
          }
        }
        for (const auto& m : batch) current[m.bin] = m.worker;
        batches.push_back(std::move(batch));
        remaining = std::move(deferred);
      }
      break;
    }
  }
  return batches;
}

}  // namespace megaphone
