// Resilient join execution: RunJoinResilient wraps RunJoin in the shared
// degradation ladder (common/resilience.h) so a device-resident OOM (real or
// injected) degrades a query instead of failing it outright. Its rungs:
//
//   1. In-memory attempt with the caller's options.
//   2. For the radix-partitioned implementations, retries with more
//      partition bits (smaller per-partition working state).
//   3. Out-of-core fallback: host-side radix fragmentation with derived
//      fragment_bits, escalated on repeated failure.
//   4. A clean structured ResourceExhausted error carrying the full
//      degradation log.
//
// Transient faults re-run the current rung, and every failed attempt must
// leave the device exactly as it found it (RunLadder checks both).

#ifndef GPUJOIN_JOIN_RESILIENT_H_
#define GPUJOIN_JOIN_RESILIENT_H_

#include <cstdint>
#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "join/join.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::join {

struct ResilienceOptions : LadderBudget {
  /// Base options for every in-memory attempt (the retry ladder only bumps
  /// radix_bits_override on top of these).
  JoinOptions join;
};

struct ResilientJoinResult {
  HostTable output;
  uint64_t output_rows = 0;
  /// Attempts consumed (1 = first try succeeded, no degradation).
  int attempts = 0;
  bool used_out_of_core = false;
  /// One entry per ladder step taken; empty on a clean first-attempt run.
  std::vector<DegradationStep> degradation;
};

/// Joins host tables r and s (keys in column 0), degrading along the ladder
/// above instead of failing on ResourceExhausted/OutOfMemory. Non-resource
/// errors (bad inputs, internal faults) propagate immediately.
Result<ResilientJoinResult> RunJoinResilient(vgpu::Device& device,
                                             JoinAlgo algo, const HostTable& r,
                                             const HostTable& s,
                                             const ResilienceOptions& options = {});

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_RESILIENT_H_
