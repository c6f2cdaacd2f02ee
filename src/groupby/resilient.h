// Resilient grouped aggregation: RunGroupByResilient wraps RunGroupBy in the
// shared degradation ladder (common/resilience.h), ordered by footprint:
//
//   1. Attempt with the requested strategy and options.
//   2. HASH-GLOBAL falls back to HASH-PARTITIONED (the global table is the
//      memory hog; partitioning bounds per-partition state).
//   3. HASH-PARTITIONED retries with more radix bits.
//   4. Final fallback to SORT-BASED (lowest footprint: one transformed copy).
//   5. A clean structured ResourceExhausted error carrying the ladder.
//
// Transient faults re-run the current rung, and failed attempts must restore
// the device's live-byte watermark (RunLadder checks both).

#ifndef GPUJOIN_GROUPBY_RESILIENT_H_
#define GPUJOIN_GROUPBY_RESILIENT_H_

#include <cstdint>
#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "groupby/groupby.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::groupby {

struct GroupByResilienceOptions : LadderBudget {
  /// Base options for every attempt (the ladder only bumps
  /// radix_bits_override on top of these).
  GroupByOptions groupby;
};

struct ResilientGroupByResult {
  /// The groups, downloaded to host.
  HostTable output;
  uint64_t output_rows = 0;
  /// Attempts consumed (1 = first try succeeded, no degradation).
  int attempts = 0;
  /// Strategy that finally completed (== requested when no fallback fired).
  GroupByAlgo algo_used = GroupByAlgo::kHashGlobal;
  /// One entry per ladder step taken; empty on a clean first-attempt run.
  std::vector<DegradationStep> degradation;
};

/// Groups host table `input` (keys in column 0) by `spec`, degrading along
/// the ladder above instead of failing on ResourceExhausted/OutOfMemory.
/// The input is uploaded once, before the first attempt; every attempt
/// aggregates that one copy. Non-resource errors (an upload failure
/// included) propagate immediately.
Result<ResilientGroupByResult> RunGroupByResilient(
    vgpu::Device& device, GroupByAlgo algo, const HostTable& input,
    const GroupBySpec& spec, const GroupByResilienceOptions& options = {});

}  // namespace gpujoin::groupby

#endif  // GPUJOIN_GROUPBY_RESILIENT_H_
