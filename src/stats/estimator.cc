#include "stats/estimator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/bit_util.h"
#include "prim/hash.h"

namespace gpujoin::stats {

MemoryEstimate EstimateJoinMemory(const HostTable& r, const HostTable& s) {
  MemoryEstimate est;
  const uint64_t r_bytes = r.device_bytes();
  const uint64_t s_bytes = s.device_bytes();
  est.input_bytes = r_bytes + s_bytes;
  // Partitioned hash join peak: partitioned copies of both inputs coexist
  // with the originals during scatter, plus per-partition hash tables (~2x
  // the build keys for the open-addressing load factor) and the match list
  // (two RowId arrays bounded by |S|).
  const uint64_t match_list = 2 * s.num_rows() * sizeof(uint32_t);
  est.working_bytes = r_bytes + s_bytes + 2 * r_bytes + match_list;
  // Every probe row matches once: key + all payloads of both sides.
  const uint64_t row_width =
      (r.num_rows() > 0 ? r_bytes / std::max<uint64_t>(r.num_rows(), 1) : 0) +
      (s.num_rows() > 0 ? s_bytes / std::max<uint64_t>(s.num_rows(), 1) : 0);
  est.output_bytes = s.num_rows() * row_width;
  return est;
}

MemoryEstimate EstimateGroupByMemory(const HostTable& input,
                                     int num_aggregates) {
  MemoryEstimate est;
  const uint64_t in_bytes = input.device_bytes();
  est.input_bytes = in_bytes;
  // Hash-partitioned peak: a transformed/partitioned copy of the input plus
  // the aggregation hash table (~2x keys+aggregates at worst-case group
  // count). Sort-based fits under the same bound (one transformed copy).
  const uint64_t n = input.num_rows();
  const uint64_t table_row =
      sizeof(int64_t) * (1 + static_cast<uint64_t>(std::max(num_aggregates, 1)));
  est.working_bytes = in_bytes + 2 * n * table_row;
  // Worst case: every row is its own group.
  est.output_bytes = n * table_row;
  return est;
}

Result<KeyStats> EstimateKeyStats(vgpu::Device& device,
                                  const DeviceColumn& column,
                                  int precision_bits) {
  if (precision_bits < 4 || precision_bits > 18) {
    return Status::InvalidArgument("EstimateKeyStats: precision out of [4,18]");
  }
  KeyStats result;
  result.min = std::numeric_limits<int64_t>::max();
  result.max = std::numeric_limits<int64_t>::min();
  const uint64_t m = uint64_t{1} << precision_bits;
  std::vector<uint8_t> registers(m, 0);
  const uint64_t n = column.size();
  {
    vgpu::KernelScope ks(device, "hll_sketch");
    device.LoadSeq(column.addr(), n,
                   static_cast<uint32_t>(DataTypeSize(column.type())));
    // Hash plus the running min/max: register work that hides under the
    // read, which bounds this kernel.
    device.Compute(bit_util::CeilDiv(n, device.config().warp_size) * 2);
    // Register updates live in shared memory per block, merged once.
    device.SharedAccess(bit_util::CeilDiv(n, device.config().warp_size));
    for (uint64_t i = 0; i < n; ++i) {
      const int64_t v = column.Get(i);
      result.min = std::min(result.min, v);
      result.max = std::max(result.max, v);
      const uint64_t h = prim::Murmur3Fmix64(static_cast<uint64_t>(v));
      const uint64_t idx = h >> (64 - precision_bits);
      const uint64_t rest = h << precision_bits;
      const uint8_t rank = rest == 0
                               ? static_cast<uint8_t>(65 - precision_bits)
                               : static_cast<uint8_t>(__builtin_clzll(rest) + 1);
      registers[idx] = std::max(registers[idx], rank);
    }
  }
  // Standard HLL estimate with the small-range (linear counting) correction.
  double sum = 0;
  uint64_t zeros = 0;
  for (uint8_t r : registers) {
    sum += std::ldexp(1.0, -r);
    if (r == 0) ++zeros;
  }
  const double md = static_cast<double>(m);
  const double alpha =
      m >= 128 ? 0.7213 / (1.0 + 1.079 / md) : (m == 64 ? 0.709 : 0.697);
  double estimate = alpha * md * md / sum;
  if (estimate <= 2.5 * md && zeros > 0) {
    estimate = md * std::log(md / static_cast<double>(zeros));
  }
  result.distinct =
      static_cast<uint64_t>(std::max(1.0, std::llround(estimate) * 1.0));
  return result;
}

Result<double> EstimateMatchRatio(vgpu::Device& device,
                                  const DeviceColumn& build_keys,
                                  const DeviceColumn& probe_keys,
                                  uint64_t sample_size) {
  if (sample_size == 0) {
    return Status::InvalidArgument("EstimateMatchRatio: sample_size == 0");
  }
  const uint64_t nb = build_keys.size();
  const uint64_t np = probe_keys.size();
  if (nb == 0 || np == 0) {
    return Status::InvalidArgument("EstimateMatchRatio: empty keys");
  }
  std::unordered_set<int64_t> build;
  build.reserve(nb);
  {
    vgpu::KernelScope ks(device, "match_ratio_build");
    device.LoadSeq(build_keys.addr(), nb,
                   static_cast<uint32_t>(DataTypeSize(build_keys.type())));
    for (uint64_t i = 0; i < nb; ++i) build.insert(build_keys.Get(i));
  }
  const uint64_t samples = std::min(sample_size, np);
  uint64_t hits = 0;
  {
    vgpu::KernelScope ks(device, "match_ratio_probe");
    uint64_t addrs[32];
    const uint64_t stride = np / samples;
    for (uint64_t s = 0; s < samples; s += 32) {
      const uint32_t lanes = static_cast<uint32_t>(std::min<uint64_t>(32, samples - s));
      for (uint32_t l = 0; l < lanes; ++l) {
        const uint64_t idx = (s + l) * stride;
        addrs[l] = probe_keys.addr(idx);
        if (build.count(probe_keys.Get(idx)) > 0) ++hits;
      }
      device.Load({addrs, lanes},
                  static_cast<uint32_t>(DataTypeSize(probe_keys.type())));
    }
  }
  return static_cast<double>(hits) / static_cast<double>(samples);
}

}  // namespace gpujoin::stats
