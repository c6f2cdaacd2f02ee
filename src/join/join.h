// Public join API: the five join implementations the paper evaluates
// (§5.1 "Implementations"), executed end-to-end (transformation, match
// finding, materialization) on a simulated device, with the per-phase time
// breakdown and memory accounting the paper reports.
//
//   SMJ-UM  sort-merge join, unoptimized materialization (GFUR, §3.1)
//   SMJ-OM  sort-merge join, optimized materialization  (GFTR, §4.2)
//   PHJ-UM  partitioned hash join, bucket chaining       (GFUR, §3.2)
//   PHJ-OM  partitioned hash join, dense radix partition (GFTR, §4.3)
//   NPHJ    non-partitioned (global hash table) join — the cuDF baseline
//
// Conventions: column 0 of each table is the join key (4- or 8-byte int,
// non-negative); the remaining columns are payloads. The output schema is
// T(k, r_1..r_n, s_1..s_m). A relation with a single payload column takes
// the paper's "narrow" path on that side: the payload rides along the
// transform and is emitted during match finding (no materialization phase
// contribution).

#ifndef GPUJOIN_JOIN_JOIN_H_
#define GPUJOIN_JOIN_JOIN_H_

#include <array>
#include <cstdint>

#include "common/status.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::join {

enum class JoinAlgo {
  kSmjUm,
  kSmjOm,
  kPhjUm,
  kPhjOm,
  kNphj,
};

inline constexpr std::array<JoinAlgo, 5> kAllJoinAlgos = {
    JoinAlgo::kSmjUm, JoinAlgo::kSmjOm, JoinAlgo::kPhjUm, JoinAlgo::kPhjOm,
    JoinAlgo::kNphj};

/// "SMJ-UM", "PHJ-OM", ... (paper naming).
const char* JoinAlgoName(JoinAlgo algo);
/// Two-letter short name used in the paper's figures: SU, SO, PU, PO, NP.
const char* JoinAlgoShortName(JoinAlgo algo);

struct JoinOptions {
  /// R's keys are unique (primary keys). Affects only the charged Merge
  /// Path setup cost (§3.1); correctness is M:N in all cases.
  bool pk_fk = true;
  /// Override the partitioned joins' total radix bits (default: derived
  /// from the shared-memory hash-table capacity).
  int radix_bits_override = -1;
  /// GFTR ablation: transform ALL payload columns in the transformation
  /// phase (early-materialization style) instead of Algorithm 1's lazy
  /// one-column-at-a-time schedule. Same results, but all transformed
  /// payloads are resident simultaneously — more peak memory (§4.1).
  /// Ignored by the GFUR implementations and NPHJ.
  bool eager_transform = false;
};

/// Simulated seconds per phase (Figure 1 / 9 / 10 breakdowns).
struct PhaseBreakdown {
  double transform_s = 0;
  double match_s = 0;
  double materialize_s = 0;
  double total_s() const { return transform_s + match_s + materialize_s; }
};

struct JoinRunResult {
  Table output;
  PhaseBreakdown phases;
  uint64_t output_rows = 0;
  /// Peak simulated device memory during the join, including the resident
  /// input relations (Table 5).
  uint64_t peak_mem_bytes = 0;
  /// (|R| + |S|) / total simulated time — the paper's throughput metric.
  double throughput_tuples_per_sec = 0;
  /// KernelStats delta accumulated by this run (Table 4 counters for the
  /// whole query: sector efficiency, L2 hit rate, DRAM traffic).
  vgpu::KernelStats stats;
};

/// Runs an inner equi-join of r and s (on column 0 of each) end-to-end.
/// Requirements: key columns have the same type; keys are non-negative.
Result<JoinRunResult> RunJoin(vgpu::Device& device, JoinAlgo algo, const Table& r,
                              const Table& s, const JoinOptions& options = {});

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_JOIN_H_
