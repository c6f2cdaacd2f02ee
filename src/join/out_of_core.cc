#include "join/out_of_core.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "common/bit_util.h"
#include "obs/trace.h"

namespace gpujoin::join {

Result<std::vector<HostTable>> PartitionHostByKeyRadix(const HostTable& t,
                                                       int bits) {
  if (!t.columns.empty() && t.columns[0].is_string()) {
    return Status::InvalidArgument("PartitionHostByKeyRadix: string key column '" +
                                   t.columns[0].name + "' cannot be split");
  }
  // String columns split as the dictionary codes a whole-table upload
  // assigns (first sight in row order).
  std::vector<std::vector<int64_t>> codes(t.columns.size());
  for (size_t c = 0; c < t.columns.size(); ++c) {
    if (!t.columns[c].is_string()) continue;
    DictionaryEncoder dict;
    for (const std::string& v : t.columns[c].strings) {
      codes[c].push_back(dict.Encode(v));
    }
  }
  const uint32_t fanout = 1u << bits;
  const uint64_t n = t.num_rows();
  std::vector<uint64_t> counts(fanout, 0);
  for (uint64_t i = 0; i < n; ++i) {
    ++counts[bit_util::RadixDigit(t.columns[0].values[i], 0, bits)];
  }
  std::vector<HostTable> frags(fanout);
  for (uint32_t f = 0; f < fanout; ++f) {
    frags[f].name = t.name + "_f" + std::to_string(f);
    frags[f].columns.resize(t.columns.size());
    for (size_t c = 0; c < t.columns.size(); ++c) {
      frags[f].columns[c].name = t.columns[c].name;
      frags[f].columns[c].type = t.columns[c].type;
      frags[f].columns[c].values.reserve(counts[f]);
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    const uint32_t f = bit_util::RadixDigit(t.columns[0].values[i], 0, bits);
    for (size_t c = 0; c < t.columns.size(); ++c) {
      const std::vector<int64_t>& src =
          t.columns[c].is_string() ? codes[c] : t.columns[c].values;
      frags[f].columns[c].values.push_back(src[i]);
    }
  }
  return frags;
}

Result<FragmentPlan> FragmentPlan::Split(const HostTable& r,
                                         const HostTable* s, int bits) {
  FragmentPlan plan;
  if (bits <= 0) {
    plan.units_.push_back(FragmentUnit{&r, s, 0});
    return plan;
  }
  plan.fragment_bits_ = bits;
  GPUJOIN_ASSIGN_OR_RETURN(plan.owned_r_, PartitionHostByKeyRadix(r, bits));
  if (s != nullptr) {
    GPUJOIN_ASSIGN_OR_RETURN(plan.owned_s_, PartitionHostByKeyRadix(*s, bits));
  }
  for (int f = 0; f < (1 << bits); ++f) {
    // An empty side contributes no join rows (or no groups).
    if (plan.owned_r_[f].num_rows() == 0 ||
        (s != nullptr && plan.owned_s_[f].num_rows() == 0)) {
      continue;
    }
    plan.units_.push_back(FragmentUnit{
        &plan.owned_r_[f], s != nullptr ? &plan.owned_s_[f] : nullptr, f});
  }
  return plan;
}

int DeriveFragmentBits(uint64_t bytes, double budget_bytes, int min_bits,
                       int max_bits) {
  if (budget_bytes <= 0) return min_bits;
  int bits = min_bits;
  while (bits < max_bits &&
         static_cast<double>(bytes) / static_cast<double>(1u << bits) >
             budget_bytes) {
    ++bits;
  }
  return bits;
}

Result<OutOfCoreRunResult> RunOutOfCoreJoin(vgpu::Device& device, JoinAlgo algo,
                                            const HostTable& r,
                                            const HostTable& s,
                                            const OutOfCoreOptions& options) {
  if (r.columns.empty() || s.columns.empty() || r.num_rows() == 0 ||
      s.num_rows() == 0) {
    return Status::InvalidArgument("RunOutOfCoreJoin: bad inputs");
  }
  if (options.device_budget_fraction <= 0 || options.device_budget_fraction > 1) {
    return Status::InvalidArgument("RunOutOfCoreJoin: bad budget fraction");
  }

  // Pick the fragment count: the average co-fragment pair must fit the
  // device budget (join working state takes the rest of the capacity).
  int bits = options.fragment_bits;
  if (bits <= 0) {
    bits = DeriveFragmentBits(
        r.device_bytes() + s.device_bytes(),
        static_cast<double>(device.config().global_mem_bytes) *
            options.device_budget_fraction,
        1, 16);
  }
  if (bits > 20) {
    return Status::InvalidArgument("RunOutOfCoreJoin: fragment_bits too large");
  }

  OutOfCoreRunResult res;
  res.fragments = 1 << bits;
  obs::TraceSpan query_span(
      device, "query", std::string("out_of_core:") + JoinAlgoName(algo));
  query_span.Annotate("fragments", std::to_string(res.fragments));
  const double dev_t0 = device.ElapsedSeconds();
  const auto host_t0 = std::chrono::steady_clock::now();

  GPUJOIN_ASSIGN_OR_RETURN(FragmentPlan plan,
                           FragmentPlan::ForJoin(r, s, bits));

  double host_partition_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - host_t0)
                                .count();

  // Output accumulator (schema = key + R payloads + S payloads).
  HostTable out;
  out.name = "out_of_core_join_result";

  double host_merge_s = 0;
  for (const FragmentUnit& u : plan.units()) {
    // Fragment boundary: a cancel request or deadline trip stops the stream
    // before the next fragment's upload is charged.
    GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
    obs::TraceSpan frag_span(device, "fragment",
                             "fragment_" + std::to_string(u.index));
    const uint64_t up_bytes = u.r->device_bytes() + u.s->device_bytes();
    device.ChargeHostTransfer(vgpu::TransferDirection::kHostToDevice, up_bytes);
    res.bytes_transferred += up_bytes;

    GPUJOIN_ASSIGN_OR_RETURN(Table rd, Table::FromHost(device, *u.r));
    GPUJOIN_ASSIGN_OR_RETURN(Table sd, Table::FromHost(device, *u.s));
    GPUJOIN_ASSIGN_OR_RETURN(JoinRunResult jr,
                             RunJoin(device, algo, rd, sd, options.join));

    const HostTable part = jr.output.ToHost();
    const uint64_t down_bytes = part.device_bytes();
    device.ChargeHostTransfer(vgpu::TransferDirection::kDeviceToHost,
                              down_bytes);
    res.bytes_transferred += down_bytes;

    const auto merge_t0 = std::chrono::steady_clock::now();
    AppendRows(out, part);
    host_merge_s += std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - merge_t0)
                        .count();
  }

  // The final fragment's download may itself trip the deadline.
  GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
  res.output_rows = out.num_rows();
  res.output = std::move(out);
  res.device_seconds = device.ElapsedSeconds() - dev_t0;
  res.host_seconds = host_partition_s + host_merge_s;
  return res;
}

}  // namespace gpujoin::join
