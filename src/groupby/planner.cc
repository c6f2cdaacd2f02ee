#include "groupby/planner.h"

namespace gpujoin::groupby {

namespace {

/// Slots of the direct-mapped table GB-HASH-GLOBAL would run, 0 when it
/// would hash.
uint64_t DirectSlots(const GroupByFeatures& f) {
  return DirectMapSlots({f.estimated_groups, f.key_min, f.key_max});
}

/// Bytes of the global table GB-HASH-GLOBAL would run. Each slot holds 8-byte
/// accumulators plus a count cell. The direct-mapped table has one slot per
/// key in the range; the hashed one adds a key per slot and is doubled for
/// the open-addressing load factor.
uint64_t GlobalTableBytes(const GroupByFeatures& f) {
  const uint64_t accs = 8 * static_cast<uint64_t>(f.num_aggregates) + 8;
  const uint64_t direct = DirectSlots(f);
  if (direct > 0) return direct * accs;
  return f.estimated_groups * (8 + accs) * 2;
}

constexpr double kSkewThreshold = 1.0;

}  // namespace

GroupByAlgo ChooseGroupByAlgo(const vgpu::Device& device,
                              const GroupByFeatures& features) {
  if (features.zipf_theta > kSkewThreshold) {
    // Hot groups serialize the global table's atomics; partitioning keeps
    // the contention inside shared memory where it is an order of
    // magnitude cheaper.
    return GroupByAlgo::kHashPartitioned;
  }
  if (GlobalTableBytes(features) <= device.config().l2_bytes / 2) {
    // Cache-resident table: random updates are L2 hits; no transform cost.
    return GroupByAlgo::kHashGlobal;
  }
  // Large group counts: pay the 2-pass partition, aggregate locally.
  return GroupByAlgo::kHashPartitioned;
}

std::string ExplainGroupByChoice(const vgpu::Device& device,
                                 const GroupByFeatures& features) {
  std::string out = "groupby features: rows=" + std::to_string(features.rows);
  out += " groups~" + std::to_string(features.estimated_groups);
  out += " zipf~" + std::to_string(features.zipf_theta);
  out += " aggs=" + std::to_string(features.num_aggregates);
  out += DirectSlots(features) > 0 ? " global=direct(" : " global=hashed(";
  out += std::to_string(GlobalTableBytes(features)) + "B)";
  out += " -> ";
  const GroupByAlgo choice = ChooseGroupByAlgo(device, features);
  out += GroupByAlgoName(choice);
  if (features.zipf_theta > kSkewThreshold) {
    out += " (skewed keys: global atomics on hot groups serialize)";
  } else if (choice == GroupByAlgo::kHashGlobal) {
    out += " (table fits L2: random updates stay on chip)";
  } else {
    out += " (table exceeds L2: partition so groups fit shared memory)";
  }
  return out;
}

}  // namespace gpujoin::groupby
