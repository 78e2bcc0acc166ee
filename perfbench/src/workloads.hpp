// The benchmark's workloads and its layer passes.
#pragma once

#include <cstdint>

#include "loop.hpp"

namespace perfbench {

WorkloadResult RunCountSteady(const RunOptions& opt);
WorkloadResult RunCountMigrate(const RunOptions& opt);
WorkloadResult RunNexmarkMesh(const RunOptions& opt);

/// The data shapes of one workload, for the isolated layer passes.
struct LayerShape {
  uint64_t seed = 1;
  uint32_t workers = 2;      // in-process ping-pong matrix width
  uint32_t num_bins = 4096;  // routing-table size
  uint32_t log_domain = 16;  // count keys: 2^log_domain
  bool nexmark = false;      // records are Q3 events, state is Q3's map
  size_t bundle_recs = 0;    // records per channel bundle
  uint64_t bin_bytes = 0;    // one dense bin (ping-pong, state, serde)
  uint64_t chunk_bytes = 64 << 10;
  megaphone::Assignment balanced;
  megaphone::Assignment imbalanced;
};

/// Runs every layer pass on the workload's shapes and adds the per-layer
/// metrics (and the ping-pong matrix as notes) to `r`. Forks; call only
/// while the process has no other threads.
void RunLayerPasses(const LayerShape& shape, WorkloadResult& r);

}  // namespace perfbench
