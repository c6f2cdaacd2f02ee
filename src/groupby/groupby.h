// Grouped aggregation on the simulated GPU — the second half of the target
// paper's title. Three algorithm families mirroring the join design space:
//
//   HASH-GLOBAL       one global-memory hash table updated with atomics
//                     (cuDF-style). Wins when the group count is small
//                     enough that the table lives in cache; suffers from
//                     random access and atomic contention otherwise. A
//                     dense key range that fits the table's slot count is
//                     direct-mapped instead: accumulators indexed by
//                     key - min, no key array, no probing.
//   HASH-PARTITIONED  radix-partition the input so each partition's groups
//                     fit a shared-memory table (the GFTR insight applied
//                     to aggregation: all aggregate columns are transformed
//                     with the keys), then aggregate locally and emit
//                     densely. Flat cost in the group count.
//   SORT-BASED        sort (key, column) pairs, then a segmented reduction
//                     over equal-key runs. Robust but pays the sort; with
//                     non-negative keys it sorts only the bits below the
//                     maximum key's bit width.
//
// Every strategy starts with one key scan (stats::EstimateKeyStats) in an
// "estimate" phase: the distinct count sizes the tables and partitions, the
// key range picks the direct-mapped table and the bounded sort.
//
// Conventions: column 0 of the input is the group key; aggregates reference
// payload columns by index. All aggregate outputs are int64 (SUM/COUNT are
// widened; AVG is an integer mean, floor(sum/count)).

#ifndef GPUJOIN_GROUPBY_GROUPBY_H_
#define GPUJOIN_GROUPBY_GROUPBY_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/join.h"
#include "stats/estimator.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::groupby {

enum class GroupByAlgo {
  kHashGlobal,
  kHashPartitioned,
  kSortBased,
};

inline constexpr std::array<GroupByAlgo, 3> kAllGroupByAlgos = {
    GroupByAlgo::kHashGlobal, GroupByAlgo::kHashPartitioned,
    GroupByAlgo::kSortBased};

const char* GroupByAlgoName(GroupByAlgo algo);

enum class AggOp {
  kSum,
  kCount,
  kMin,
  kMax,
  kAvg,
};

const char* AggOpName(AggOp op);

struct AggSpec {
  /// Input column index (>= 1; column 0 is the group key). Ignored for
  /// kCount.
  int column = 1;
  AggOp op = AggOp::kSum;
};

struct GroupBySpec {
  std::vector<AggSpec> aggregates;
};

struct GroupByOptions {
  /// Override the partitioned variant's radix bits (default: derived from
  /// the shared-memory accumulator capacity).
  int radix_bits_override = -1;
};

struct GroupByRunResult {
  /// Output schema: group key, then one int64 column per aggregate.
  Table output;
  join::PhaseBreakdown phases;  // transform / aggregate (match) / emit.
  uint64_t num_groups = 0;
  uint64_t peak_mem_bytes = 0;
  /// Input tuples per simulated second.
  double throughput_tuples_per_sec = 0;
  /// KernelStats delta accumulated by this run (Table 4 counters).
  vgpu::KernelStats stats;
};

/// Slots of HASH-GLOBAL's open-addressing table for an estimated group
/// count: 3x headroom against estimation error and clustering, rounded up
/// to a power of two.
uint64_t HashGlobalSlots(uint64_t estimated_groups);

/// Slots of HASH-GLOBAL's direct-mapped accumulator array: the key range
/// max - min + 1 when it is at most HashGlobalSlots(keys.distinct), else 0
/// (the table is hashed). Never more slots than the hashed table would get.
uint64_t DirectMapSlots(const stats::KeyStats& keys);

/// Runs a grouped aggregation of `input` grouped by column 0.
Result<GroupByRunResult> RunGroupBy(vgpu::Device& device, GroupByAlgo algo,
                                    const Table& input, const GroupBySpec& spec,
                                    const GroupByOptions& options = {});

}  // namespace gpujoin::groupby

#endif  // GPUJOIN_GROUPBY_GROUPBY_H_
