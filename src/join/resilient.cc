#include "join/resilient.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "join/out_of_core.h"
#include "join/transform.h"
#include "obs/trace.h"
#include "prim/hash_join.h"

namespace gpujoin::join {

namespace {

/// The partition-bit count attempt 1 would use, mirroring JoinDriver's
/// sizing so the retry rung escalates from the actual starting point.
int InitialPartitionBits(const vgpu::Device& device, const HostTable& r,
                         const JoinOptions& opts) {
  return r.columns[0].type == DataType::kInt32
             ? SizePartitions<int32_t>(device, r.num_rows(),
                                       opts.radix_bits_override)
                   .radix_bits
             : SizePartitions<int64_t>(device, r.num_rows(),
                                       opts.radix_bits_override)
                   .radix_bits;
}

}  // namespace

Result<ResilientJoinResult> RunJoinResilient(vgpu::Device& device,
                                             JoinAlgo algo, const HostTable& r,
                                             const HostTable& s,
                                             const ResilienceOptions& options) {
  if (r.columns.empty() || s.columns.empty()) {
    return Status::InvalidArgument("RunJoinResilient: tables need a key column");
  }

  ResilientJoinResult res;
  obs::TraceSpan query_span(
      device, "query", std::string("resilient_join:") + JoinAlgoName(algo));
  // In-memory attempts escalate partition bits while the algorithm can use
  // them; then the out-of-core stream escalates its fragment count
  // (oopts.fragment_bits stays 0 while the ladder is in memory).
  JoinOptions jopts = options.join;
  int bits = InitialPartitionBits(device, r, options.join);
  OutOfCoreOptions oopts;
  oopts.join = options.join;

  const auto span_label = [&](int n) {
    return (oopts.fragment_bits == 0 ? "in_memory_" : "out_of_core_") +
           std::to_string(n);
  };
  const auto attempt = [&]() -> Status {
    if (oopts.fragment_bits == 0) {
      // Upload, join, download; the RAII tables free all device state.
      GPUJOIN_ASSIGN_OR_RETURN(Table rd, Table::FromHost(device, r));
      GPUJOIN_ASSIGN_OR_RETURN(Table sd, Table::FromHost(device, s));
      GPUJOIN_ASSIGN_OR_RETURN(JoinRunResult jr,
                               RunJoin(device, algo, rd, sd, jopts));
      res.output = jr.output.ToHost();
      res.output_rows = jr.output_rows;
      return Status::OK();
    }
    GPUJOIN_ASSIGN_OR_RETURN(OutOfCoreRunResult oc,
                             RunOutOfCoreJoin(device, algo, r, s, oopts));
    res.output = std::move(oc.output);
    res.output_rows = oc.output_rows;
    res.used_out_of_core = true;
    return Status::OK();
  };
  const auto escalate = [&](const Status& failure,
                            int n) -> std::optional<DegradationStep> {
    const bool radix = algo == JoinAlgo::kPhjUm || algo == JoinAlgo::kPhjOm;
    if (oopts.fragment_bits == 0 && radix && bits < 16) {
      bits = std::min(bits + 2, 16);
      jopts.radix_bits_override = bits;
      return DegradationStep{
          "retry_more_partition_bits",
          "attempt " + std::to_string(n) + " failed (" + failure.message() +
              "); retrying in-memory with radix_bits=" + std::to_string(bits)};
    }
    if (oopts.fragment_bits >= 20) return std::nullopt;
    oopts.fragment_bits =
        oopts.fragment_bits == 0
            ? DeriveFragmentBits(
                  r.device_bytes() + s.device_bytes(),
                  static_cast<double>(device.config().global_mem_bytes) *
                      oopts.device_budget_fraction,
                  1, 16)
            : std::min(oopts.fragment_bits + 2, 20);
    return DegradationStep{"out_of_core_fallback",
                           "in-memory failed (" + failure.message() +
                               "); streaming fragment pairs with fragment_bits=" +
                               std::to_string(oopts.fragment_bits)};
  };
  const Ladder ladder{.op = "join", .caller = "RunJoinResilient",
                      .subject = JoinAlgoName(algo), .budget = options,
                      .span_label = span_label, .attempt = attempt,
                      .escalate = escalate};
  GPUJOIN_ASSIGN_OR_RETURN(res.attempts,
                           RunLadder(device, ladder, &res.degradation));
  return res;
}

}  // namespace gpujoin::join
