// Group-by algorithm selection — the aggregation-side analog of the join
// decision trees (Figure 18): the global hash table wins while it is
// cache-resident and the key distribution keeps its atomics spread; once
// the table outgrows the L2 or a hot group serializes the atomics, the
// partition-based aggregation (flat in the group count) takes over.

#ifndef GPUJOIN_GROUPBY_PLANNER_H_
#define GPUJOIN_GROUPBY_PLANNER_H_

#include <cstdint>
#include <string>

#include "groupby/groupby.h"
#include "vgpu/device.h"

namespace gpujoin::groupby {

struct GroupByFeatures {
  uint64_t rows = 0;
  /// Estimated distinct group count (stats::KeyStats::distinct).
  uint64_t estimated_groups = 0;
  /// Key range from the same scan (stats::KeyStats). Unknown while
  /// key_min > key_max, which prices the hashed global table.
  int64_t key_min = 1;
  int64_t key_max = 0;
  /// Estimated key-skew Zipf factor (0 = uniform).
  double zipf_theta = 0.0;
  /// Number of aggregate accumulators per group.
  int num_aggregates = 1;
};

GroupByAlgo ChooseGroupByAlgo(const vgpu::Device& device,
                              const GroupByFeatures& features);

std::string ExplainGroupByChoice(const vgpu::Device& device,
                                 const GroupByFeatures& features);

}  // namespace gpujoin::groupby

#endif  // GPUJOIN_GROUPBY_PLANNER_H_
