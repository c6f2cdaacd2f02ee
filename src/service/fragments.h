// Fragment decomposition for the multi-tenant scheduler (DESIGN.md §13).
//
// A query admitted by the QueryService is decomposed host-side into an
// ordered list of independent fragments — the schedulable unit the
// deficit-weighted round-robin interleaves across queries. Decomposition
// reuses the out-of-core shard substrate: inputs are stably radix-
// partitioned by key on the host (join::PartitionHostByKeyRadix), so
//   * a join fragment is one co-fragment pair (r_i, s_i) — equal keys land
//     in the same fragment, so fragment joins are independent and their
//     concatenation in fixed fragment order is the full join;
//   * a group-by fragment is one key partition — groups never span
//     fragments, so per-fragment aggregation results concatenate in
//     fragment order into the full aggregation.
// Each fragment runs upload → operate → download and leaves the device at
// its entry watermark, so fragment turns of different queries can nest:
// higher-priority turns run at a fragment's seams and leave it exactly as
// they found it, and fragment results never depend on the simulated
// clock.
//
// A plan with fragment_bits == 0 is a single fragment aliasing the
// caller's tables — byte-for-byte the pre-scheduler execution path.

#ifndef GPUJOIN_SERVICE_FRAGMENTS_H_
#define GPUJOIN_SERVICE_FRAGMENTS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/table.h"

namespace gpujoin::service {

/// One schedulable unit: the host-side co-inputs of a fragment.
struct FragmentUnit {
  /// Join: build side. Group-by: the input partition.
  const HostTable* r = nullptr;
  /// Join: probe side. Group-by: unused (nullptr).
  const HostTable* s = nullptr;
  /// Position in the plan's fixed merge order (the radix digit).
  int index = 0;
};

/// An ordered fragment list plus the owned partition storage the units
/// point into. Move-only: units alias owned_* elements.
class FragmentPlan {
 public:
  FragmentPlan() = default;
  FragmentPlan(FragmentPlan&&) = default;
  FragmentPlan& operator=(FragmentPlan&&) = default;
  FragmentPlan(const FragmentPlan&) = delete;
  FragmentPlan& operator=(const FragmentPlan&) = delete;

  const std::vector<FragmentUnit>& units() const { return units_; }
  int fragment_bits() const { return fragment_bits_; }
  /// True when the inputs were actually partitioned: fragment uploads and
  /// downloads are then charged to the PCIe model like the out-of-core
  /// stream (a single-fragment plan adds no transfer charges, preserving
  /// bit-identity with direct execution).
  bool fragmented() const { return fragment_bits_ > 0; }

  /// Single fragment aliasing the caller's tables (`s` may be null).
  static FragmentPlan Single(const HostTable& r, const HostTable* s);
  /// 2^bits co-fragment pairs for a join; pairs with an empty build or
  /// probe side produce no rows and are dropped from the unit list. A split
  /// (bits > 0) of a string-keyed table is InvalidArgument.
  static Result<FragmentPlan> ForJoin(const HostTable& r, const HostTable& s,
                                      int bits);
  /// 2^bits key partitions for a group-by; empty partitions are dropped.
  static Result<FragmentPlan> ForGroupBy(const HostTable& input, int bits);

 private:
  std::vector<HostTable> owned_r_;
  std::vector<HostTable> owned_s_;
  std::vector<FragmentUnit> units_;
  int fragment_bits_ = 0;
};

/// Scheduler fragmentation policy: 0 (single fragment) while the admission
/// estimate `need_bytes` stays within `target_fraction` of the budget,
/// otherwise just enough bits that an average fragment's share of the
/// estimate fits the target, capped at `max_bits`. Pure host arithmetic —
/// deterministic for a given (need, budget, policy).
int DeriveScheduleFragmentBits(uint64_t need_bytes, uint64_t budget_bytes,
                               double target_fraction, int max_bits);

}  // namespace gpujoin::service

#endif  // GPUJOIN_SERVICE_FRAGMENTS_H_
