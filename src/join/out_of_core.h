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
/// shared across tables: InvalidArgument. Shared by the out-of-core join
/// stream and the scheduler's fragment decomposition (service/fragments.cc).
Result<std::vector<HostTable>> PartitionHostByKeyRadix(const HostTable& t,
                                                       int bits);

/// Derives the fragment count (as log2) so that the average co-fragment
/// pair fits `device_budget_fraction` of the device's global memory; join
/// intermediates need the rest. Result is in [1, 16]. This is the same
/// policy RunOutOfCoreJoin applies when `fragment_bits == 0`, exposed so
/// resilient wrappers can derive and then escalate it.
int DeriveFragmentBits(const vgpu::Device& device, const HostTable& r,
                       const HostTable& s, double device_budget_fraction);

/// Joins host tables r and s (keys in column 0) through a device that may
/// be (much) smaller than the inputs.
Result<OutOfCoreRunResult> RunOutOfCoreJoin(vgpu::Device& device, JoinAlgo algo,
                                            const HostTable& r,
                                            const HostTable& s,
                                            const OutOfCoreOptions& options = {});

}  // namespace gpujoin::join

#endif  // GPUJOIN_JOIN_OUT_OF_CORE_H_
