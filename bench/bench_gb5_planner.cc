// GB5 (designed): validates the group-by planner (cache-residency +
// skew heuristic driven by the HyperLogLog estimate) against measured
// results over a cardinality x skew grid, reporting best-pick rate and
// regret — the aggregation-side analog of the Figure 18 validation.

#include <cstdio>

#include "bench_common.h"
#include "groupby/groupby.h"
#include "groupby/planner.h"
#include "stats/estimator.h"

using namespace gpujoin;         // NOLINT(build/namespaces)
using namespace gpujoin::bench;  // NOLINT(build/namespaces)

int main() {
  harness::PrintBanner("GB5", "group-by planner validation");
  vgpu::Device device = harness::MakeBenchDevice();

  harness::TablePrinter tp({"groups", "zipf", "estimate", "planner", "best",
                            "regret%"});
  int hits = 0, total = 0;
  double total_regret = 0;
  for (int g_log2 : {4, 10, 14, 18}) {
    for (double zipf : {0.0, 1.5}) {
      workload::GroupByWorkloadSpec spec;
      spec.rows = harness::ScaleTuples();
      spec.num_groups = uint64_t{1} << g_log2;
      spec.zipf_theta = zipf;
      auto host = workload::GenerateGroupByInput(spec);
      GPUJOIN_CHECK_OK(host.status());
      auto input = Table::FromHost(device, *host);
      GPUJOIN_CHECK_OK(input.status());
      groupby::GroupBySpec gs;
      gs.aggregates = {{1, groupby::AggOp::kSum}};

      groupby::GroupByFeatures f;
      f.rows = spec.rows;
      auto keys = stats::EstimateKeyStats(device, input->column(0));
      GPUJOIN_CHECK_OK(keys.status());
      f.estimated_groups = keys->distinct;
      f.key_min = keys->min;
      f.key_max = keys->max;
      f.zipf_theta = zipf;
      const groupby::GroupByAlgo choice = ChooseGroupByAlgo(device, f);

      double best = 1e30, chosen = 0;
      groupby::GroupByAlgo best_algo = choice;
      for (groupby::GroupByAlgo algo : groupby::kAllGroupByAlgos) {
        device.FlushL2();
        auto res = RunGroupBy(device, algo, *input, gs);
        GPUJOIN_CHECK_OK(res.status());
        RecordRun(device,
                  {{"groups", std::to_string(spec.num_groups)},
                   {"zipf", harness::TablePrinter::Fmt(zipf, 2)}},
                  groupby::GroupByAlgoName(algo), res->phases,
                  res->throughput_tuples_per_sec / 1e6, res->peak_mem_bytes,
                  res->num_groups, res->stats);
        const double t = res->phases.total_s();
        if (t < best) {
          best = t;
          best_algo = algo;
        }
        if (algo == choice) chosen = t;
      }
      const double regret = 100.0 * (chosen - best) / best;
      total_regret += regret;
      ++total;
      if (choice == best_algo) ++hits;
      tp.AddRow({std::to_string(spec.num_groups),
                 harness::TablePrinter::Fmt(zipf, 2), std::to_string(keys->distinct),
                 GroupByAlgoName(choice), GroupByAlgoName(best_algo),
                 harness::TablePrinter::Fmt(regret, 1)});
    }
  }
  tp.Print();
  std::printf("planner best-pick rate %d/%d, mean regret %.1f%%\n", hits, total,
              total_regret / total);
  gpujoin::harness::PrintSimSummary();
  return 0;
}
