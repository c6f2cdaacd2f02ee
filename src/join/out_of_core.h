// Out-of-core joins: inputs larger than the device memory are radix-
// partitioned on the host into co-fragments, and fragment pairs are
// streamed through the device one at a time (upload over the PCIe model,
// in-memory join, download of the partial result). The paper treats
// out-of-memory joins as orthogonal related work [35, 55, 60]; this module
// makes the library usable beyond the in-memory regime with the same five
// join implementations.

#ifndef GPUJOIN_JOIN_OUT_OF_CORE_H_
#define GPUJOIN_JOIN_OUT_OF_CORE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "join/join.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::join {

struct OutOfCoreOptions {
  JoinOptions join;
  /// Host-side fragment count as log2 (0 = derive from the device capacity:
  /// the largest fragment pair plus working space must fit).
  int fragment_bits = 0;
  /// Fraction of device memory a fragment pair may plan to use (join
  /// intermediates need the rest).
  double device_budget_fraction = 0.2;
};

struct OutOfCoreRunResult {
  HostTable output;
  uint64_t output_rows = 0;
  int fragments = 0;
  /// Simulated device seconds (kernels + PCIe transfers).
  double device_seconds = 0;
  /// Native wall-clock seconds spent in host-side partitioning/merging.
  double host_seconds = 0;
  uint64_t bytes_transferred = 0;
};

/// Host-side stable partition of a table by the low `bits` radix digits of
/// column 0 (the key). Returns 2^bits per-fragment tables; rows with equal
/// keys always land in the same fragment, and row order inside a fragment
/// follows the input order. A string payload column is split as the codes
/// Table::FromHost would give the whole table, so fragment results carry
/// the same codes as an unsplit run. A string key has no radix digits
/// shared across tables: InvalidArgument.
Result<std::vector<HostTable>> PartitionHostByKeyRadix(const HostTable& t,
                                                       int bits);

/// One fragment of a plan: the host-side co-inputs it runs on.
struct FragmentUnit {
  /// Join: build side. Group-by: the input partition.
  const HostTable* r = nullptr;
  /// Join: probe side. Group-by: unused (nullptr).
  const HostTable* s = nullptr;
  /// Position in the plan's fixed merge order (the radix digit).
  int index = 0;
};

/// Inputs split by key radix into independent fragments, in the fixed
/// order their results concatenate. Equal keys share a fragment, so a join
/// fragment is one co-fragment pair (r_i, s_i) and a group-by fragment one
/// key partition whose groups span no other fragment. The out-of-core
/// stream and the service scheduler both run their fragments from a plan.
/// Move-only: units alias the owned partitions.
class FragmentPlan {
 public:
  FragmentPlan() = default;
  FragmentPlan(FragmentPlan&&) = default;
  FragmentPlan& operator=(FragmentPlan&&) = default;
  FragmentPlan(const FragmentPlan&) = delete;
  FragmentPlan& operator=(const FragmentPlan&) = delete;

  const std::vector<FragmentUnit>& units() const { return units_; }
  int fragment_bits() const { return fragment_bits_; }
  /// True when the inputs were actually partitioned (bits > 0). A
  /// single-fragment plan aliases the caller's tables.
  bool fragmented() const { return fragment_bits_ > 0; }

  /// 2^bits co-fragment pairs for a join; pairs with an empty build or
  /// probe side produce no rows and are dropped from the unit list. bits
  /// <= 0 is one unit aliasing `r` and `s`. A split of a string-keyed
  /// table is InvalidArgument.
  static Result<FragmentPlan> ForJoin(const HostTable& r, const HostTable& s,
                                      int bits) {
    return Split(r, &s, bits);
  }
  /// 2^bits key partitions for a group-by; empty partitions are dropped.
  static Result<FragmentPlan> ForGroupBy(const HostTable& input, int bits) {
    return Split(input, nullptr, bits);
  }

 private:
  static Result<FragmentPlan> Split(const HostTable& r, const HostTable* s,
                                    int bits);

  std::vector<HostTable> owned_r_;
  std::vector<HostTable> owned_s_;
  std::vector<FragmentUnit> units_;
  int fragment_bits_ = 0;
};

/// The fewest fragment bits in [min_bits, max_bits] that bring an average
/// fragment of `bytes` within `budget_bytes` (a non-positive budget gives
/// min_bits). The out-of-core stream asks for [1, 16] against a fraction of
/// device memory, the service scheduler for [0, 6] against a fraction of
/// its admission budget. Pure host arithmetic.
int DeriveFragmentBits(uint64_t bytes, double budget_bytes, int min_bits,
                       int max_bits);

/// Joins host tables r and s (keys in column 0) through a device that may
/// be (much) smaller than the inputs.
Result<OutOfCoreRunResult> RunOutOfCoreJoin(vgpu::Device& device, JoinAlgo algo,
                                            const HostTable& r,
                                            const HostTable& s,
                                            const OutOfCoreOptions& options = {});

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_OUT_OF_CORE_H_
