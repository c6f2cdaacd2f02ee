#include "service/fragments.h"

#include <utility>

#include "join/out_of_core.h"

namespace gpujoin::service {

FragmentPlan FragmentPlan::Single(const HostTable& r, const HostTable* s) {
  FragmentPlan plan;
  plan.fragment_bits_ = 0;
  plan.units_.push_back(FragmentUnit{&r, s, 0});
  return plan;
}

Result<FragmentPlan> FragmentPlan::ForJoin(const HostTable& r,
                                           const HostTable& s, int bits) {
  if (bits <= 0) return Single(r, &s);
  FragmentPlan plan;
  plan.fragment_bits_ = bits;
  GPUJOIN_ASSIGN_OR_RETURN(plan.owned_r_, join::PartitionHostByKeyRadix(r, bits));
  GPUJOIN_ASSIGN_OR_RETURN(plan.owned_s_, join::PartitionHostByKeyRadix(s, bits));
  const int fanout = 1 << bits;
  for (int f = 0; f < fanout; ++f) {
    // An empty side means the co-fragment pair contributes no join rows.
    if (plan.owned_r_[f].num_rows() == 0 || plan.owned_s_[f].num_rows() == 0) {
      continue;
    }
    plan.units_.push_back(FragmentUnit{&plan.owned_r_[f], &plan.owned_s_[f], f});
  }
  return plan;
}

Result<FragmentPlan> FragmentPlan::ForGroupBy(const HostTable& input,
                                              int bits) {
  if (bits <= 0) return Single(input, nullptr);
  FragmentPlan plan;
  plan.fragment_bits_ = bits;
  GPUJOIN_ASSIGN_OR_RETURN(plan.owned_r_,
                           join::PartitionHostByKeyRadix(input, bits));
  const int fanout = 1 << bits;
  for (int f = 0; f < fanout; ++f) {
    if (plan.owned_r_[f].num_rows() == 0) continue;
    plan.units_.push_back(FragmentUnit{&plan.owned_r_[f], nullptr, f});
  }
  return plan;
}

int DeriveScheduleFragmentBits(uint64_t need_bytes, uint64_t budget_bytes,
                               double target_fraction, int max_bits) {
  if (max_bits <= 0 || target_fraction <= 0 || budget_bytes == 0) return 0;
  const double target = static_cast<double>(budget_bytes) * target_fraction;
  if (target <= 0) return 0;
  int bits = 0;
  while (bits < max_bits &&
         static_cast<double>(need_bytes) / static_cast<double>(1u << bits) >
             target) {
    ++bits;
  }
  return bits;
}

}  // namespace gpujoin::service
