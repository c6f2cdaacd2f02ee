// Sequences of joins (§5.2.7, Figure 16): a fact table with N foreign keys
// joined against N dimension tables. Following the paper, the fact side
// carries physical tuple identifiers, and each foreign key is materialized
// (gathered through the current identifiers) *right before* its join, so no
// unused foreign key is ever materialized. The i-th join processes
// (FK_i, ID, P_1, ..., P_{i-1}) ⋈ D_i, accumulating one dimension payload
// column per join.

#ifndef GPUJOIN_JOIN_PIPELINE_H_
#define GPUJOIN_JOIN_PIPELINE_H_

#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "join/join.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::join {

/// Per-join resilience inside a pipeline: each constituent join runs on the
/// shared degradation ladder (common/resilience.h) with the partition-bit
/// rung only — a resource failure retries it with more partition bits (for
/// the radix-partitioned algorithms) instead of failing the whole pipeline,
/// and a transient fault re-runs it. The intermediate fact-side state
/// survives a failed join attempt — RunJoin releases its own working state
/// on error — so a retry sees the exact inputs of the failed attempt. The
/// budget applies per join; a retry that cannot change anything (radix
/// bits already at the ceiling) ends that join's ladder early.
using PipelineResilience = LadderBudget;

struct PipelineRunResult {
  /// The fully joined table: last join key, all dim payloads, fact ids.
  Table output;
  uint64_t final_rows = 0;
  double total_seconds = 0;
  /// (|F| + sum |D_i|) / total simulated seconds (Figure 16's metric).
  double throughput_tuples_per_sec = 0;
  /// Per-join phase breakdowns, in execution order.
  std::vector<PhaseBreakdown> per_join;
  /// Degradation steps taken by the resilience hook (empty when disabled or
  /// never triggered).
  std::vector<DegradationStep> degradation;
};

/// Joins `fact` (whose first N columns are the foreign keys FK_1..FK_N)
/// against dims[0..N-1]; dims[i] joins on its column 0 against FK_i+1.
/// Passing `resilience` runs each join on the degradation ladder.
Result<PipelineRunResult> RunJoinPipeline(vgpu::Device& device, JoinAlgo algo,
                                          const Table& fact,
                                          const std::vector<Table>& dims,
                                          const JoinOptions& options = {},
                                          const PipelineResilience* resilience =
                                              nullptr);

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_PIPELINE_H_
