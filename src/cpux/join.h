// Vectorized CPU join engines for the cpux backend.
//
// Three engines cover the library's five join algorithms:
//   kNphj           -> global linear-probe hash join (build r, probe s)
//   kPhjUm, kPhjOm  -> radix-partitioned hash join (co-partition, per-
//                      partition probe tables in shared slabs)
//   kSmjUm, kSmjOm  -> sort-merge join (parallel chunk sort + merge)
//
// All engines follow the count-then-fill discipline: a parallel pass counts
// matches per fixed-size chunk (or per partition), a serial prefix turns
// counts into disjoint output ranges, and a parallel pass fills them — so
// every tracked allocation happens on the coordinator thread in a
// deterministic order (replayable fault injection) and the output is
// bit-identical at any thread count.
//
// Output schema matches the device joins: [key, r payloads..., s payloads...].

#ifndef GPUJOIN_CPUX_JOIN_H_
#define GPUJOIN_CPUX_JOIN_H_

#include <cstdint>

#include "common/status.h"
#include "cpux/context.h"
#include "join/join.h"
#include "storage/table.h"

namespace gpujoin::cpux {

struct CpuxOptions {
  /// Partition bits for the radix engines (< 1 = derive from build size).
  int radix_bits_override = -1;
};

/// Host wall-clock phase breakdown, mirroring join::PhaseBreakdown's
/// transform / match / materialize split.
struct CpuxPhases {
  double transform_wall_s = 0;    // Partition / sort / build-side prep.
  double match_wall_s = 0;        // Build + probe (count and fill passes).
  double materialize_wall_s = 0;  // Payload gathers into the output table.
};

struct CpuxRunResult {
  HostTable output;
  uint64_t output_rows = 0;
  CpuxPhases phases;
  /// End-to-end host wall seconds (the number routed against vgpu's
  /// simulated seconds).
  double wall_seconds = 0;
  /// Total CPU seconds across all threads (coordinator delta + pool
  /// workers), the "cores burned" complement to wall_seconds.
  double cpu_seconds = 0;
  /// Peak tracked cpux bytes during the run.
  uint64_t peak_bytes = 0;
  double throughput_tuples_per_sec = 0;
};

/// Runs r JOIN s on key column 0 with the engine mapped from `algo`.
/// Inputs must be integer tables (no string columns) with non-negative
/// keys and fewer than 2^32 - 1 rows each.
Result<CpuxRunResult> RunJoin(Context& ctx, join::JoinAlgo algo,
                              const HostTable& r, const HostTable& s,
                              const CpuxOptions& options = {});

}  // namespace gpujoin::cpux

#endif  // GPUJOIN_CPUX_JOIN_H_
