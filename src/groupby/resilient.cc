#include "groupby/resilient.h"

#include <algorithm>
#include <optional>
#include <string>

#include "obs/trace.h"

namespace gpujoin::groupby {

Result<ResilientGroupByResult> RunGroupByResilient(
    vgpu::Device& device, GroupByAlgo algo, const HostTable& host_input,
    const GroupBySpec& spec, const GroupByResilienceOptions& options) {
  GPUJOIN_ASSIGN_OR_RETURN(Table input, Table::FromHost(device, host_input));
  ResilientGroupByResult res;
  GroupByRunResult run;
  obs::TraceSpan query_span(
      device, "query",
      std::string("resilient_groupby:") + GroupByAlgoName(algo));
  res.algo_used = algo;
  GroupByOptions gopts = options.groupby;

  const auto span_label = [&](int n) {
    return "attempt_" + std::to_string(n) + ":" +
           GroupByAlgoName(res.algo_used);
  };
  const auto attempt = [&]() -> Status {
    GPUJOIN_ASSIGN_OR_RETURN(
        run, RunGroupBy(device, res.algo_used, input, spec, gopts));
    return Status::OK();
  };
  // Rungs by footprint: global table -> partitioned -> more bits -> sort.
  const auto escalate = [&](const Status& failure,
                            int) -> std::optional<DegradationStep> {
    if (res.algo_used == GroupByAlgo::kHashGlobal) {
      res.algo_used = GroupByAlgo::kHashPartitioned;
      return DegradationStep{"algo_fallback",
                             "GB-HASH-GLOBAL failed (" + failure.message() +
                                 "); falling back to GB-HASH-PART"};
    }
    if (res.algo_used != GroupByAlgo::kHashPartitioned) return std::nullopt;
    const int bits = gopts.radix_bits_override;
    if (bits < 16) {
      gopts.radix_bits_override = std::min(bits <= 0 ? 8 : bits + 2, 16);
      return DegradationStep{"retry_more_partition_bits",
                             "GB-HASH-PART failed (" + failure.message() +
                                 "); retrying with radix_bits=" +
                                 std::to_string(gopts.radix_bits_override)};
    }
    res.algo_used = GroupByAlgo::kSortBased;
    return DegradationStep{"algo_fallback",
                           "GB-HASH-PART failed (" + failure.message() +
                               "); falling back to GB-SORT"};
  };
  const Ladder ladder{.op = "groupby", .caller = "RunGroupByResilient",
                      .subject = GroupByAlgoName(algo), .budget = options,
                      .span_label = span_label, .attempt = attempt,
                      .escalate = escalate};
  GPUJOIN_ASSIGN_OR_RETURN(res.attempts,
                           RunLadder(device, ladder, &res.degradation));
  res.output = run.output.ToHost();
  res.output_rows = run.num_groups;
  return res;
}

}  // namespace gpujoin::groupby
