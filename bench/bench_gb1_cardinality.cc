// GB1 (designed; see DESIGN.md §0): grouped-aggregation throughput vs the
// number of groups. The generator's keys are a dense range from 0, so the
// global table is direct-mapped and the sort covers only the significant
// key bits (DESIGN.md §17). Expected shape: the global table wins while its
// accumulators stay near the cache, then degrades under random access; the
// partitioned variant is flat and best at high cardinalities; sort-based
// grows by one 8-bit pass per 8 key bits.

#include "bench_common.h"
#include "groupby/groupby.h"

using namespace gpujoin;         // NOLINT(build/namespaces)
using namespace gpujoin::bench;  // NOLINT(build/namespaces)

int main() {
  harness::PrintBanner("GB1", "group-by cardinality sweep (SUM of one column)");
  vgpu::Device device = harness::MakeBenchDevice();

  RunReporter rep(device, RunReporter::Kind::kGroupBy, {"groups"});
  const uint64_t n = harness::ScaleTuples();
  for (int g_log2 : {4, 8, 12, 16, 18, 20}) {
    const uint64_t groups = std::min(n, uint64_t{1} << g_log2);
    workload::GroupByWorkloadSpec spec;
    spec.rows = n;
    spec.num_groups = groups;
    auto host = workload::GenerateGroupByInput(spec);
    GPUJOIN_CHECK_OK(host.status());
    auto input = Table::FromHost(device, *host);
    GPUJOIN_CHECK_OK(input.status());
    groupby::GroupBySpec gs;
    gs.aggregates = {{1, groupby::AggOp::kSum}};
    for (groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
      device.FlushL2();
      auto res = RunGroupBy(device, algo, *input, gs);
      GPUJOIN_CHECK_OK(res.status());
      rep.Add({std::to_string(groups)}, algo, *res);
    }
  }
  rep.Print();
  gpujoin::harness::PrintSimSummary();
  return 0;
}
