// HYB-1: the CPU/GPU crossover behind the cost-based operator router.
//
// At each scale the same PHJ-OM join (R(n) ⋈ S(2n)) and partitioned
// group-by (n rows, n/64 groups) run three ways:
//   cpux  — the vectorized CPU backend, measured host wall seconds (min of
//           several reps; the host clock is noisy, the sim clock is not),
//   vgpu  — the simulated device, simulated seconds including both PCIe
//           transfers and kernel-launch overheads,
//   auto  — the cost-based router, which must land on the winning side.
// Small inputs are dominated by the GPU's fixed costs (PCIe round-trips,
// kernel launches), large inputs by the CPU's per-tuple rate — the Figure 8
// style cross-system comparison applied inside one engine.
//
// GPUJOIN_HYB1_ASSERT=1 turns the expected shape into hard failures:
// cpux wins by >=2x at the smallest scale, vgpu wins at the largest, and
// the router's pick is within 5% of the best measured backend everywhere.
// GPUJOIN_BACKEND forces every "auto" row onto one backend (the assertions
// are skipped when forced). The cpux pool and the router's cost model use
// one worker whatever GPUJOIN_SIM_THREADS says, so the routing, and with it
// every row of the report, is the same at every simulation fan-out.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ops/router.h"

using namespace gpujoin;         // NOLINT(build/namespaces)
using namespace gpujoin::bench;  // NOLINT(build/namespaces)

namespace {

/// Measured seconds per backend for one (scale, operator) cell, plus the
/// router's pure decision for it.
struct Measured {
  double cpux_s = 0;
  double vgpu_s = 0;
  ops::Backend decided = ops::Backend::kVgpu;
};

struct ScaleResult {
  int scale = 0;
  Measured join;
  Measured gb;
};

void AddRow(RunReporter& rep, int scale, const char* op,
            const std::string& algo, const ops::OperatorRunResult& r,
            uint64_t input_tuples, std::string backend) {
  // cpux rows carry host wall seconds through the same cycle-denominated
  // JSON fields; the "backend" field names the clock (see obs/metrics.h).
  // Their sim counters stay zero: r.stats is the vgpu run's delta only.
  rep.Add({std::to_string(scale), op}, algo, r.phases,
          input_tuples / std::max(r.seconds, 1e-12) / 1e6, r.peak_mem_bytes,
          r.output_rows, r.stats, std::move(backend));
}

int CheckCrossover(const std::vector<ScaleResult>& results) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    if (!ok) {
      std::fprintf(stderr, "HYB1 ASSERT FAILED: %s\n", what.c_str());
      ++failures;
    }
  };
  const auto cell = [](const ScaleResult& sr, bool is_join) -> const Measured& {
    return is_join ? sr.join : sr.gb;
  };
  for (const bool is_join : {true, false}) {
    const char* op = is_join ? "join" : "groupby";
    const Measured& lo = cell(results.front(), is_join);
    check(lo.cpux_s * 2 <= lo.vgpu_s,
          std::string(op) + " scale " + std::to_string(results.front().scale) +
              ": cpux (" + std::to_string(lo.cpux_s) +
              " s) not 2x faster than vgpu (" + std::to_string(lo.vgpu_s) +
              " s)");
    check(lo.decided == ops::Backend::kCpux,
          std::string(op) + " smallest scale: router picked " +
              ops::BackendName(lo.decided) + ", expected cpux");
    if (results.size() > 1) {
      const Measured& hi = cell(results.back(), is_join);
      check(hi.vgpu_s <= hi.cpux_s,
            std::string(op) + " scale " + std::to_string(results.back().scale) +
                ": vgpu (" + std::to_string(hi.vgpu_s) +
                " s) did not beat cpux (" + std::to_string(hi.cpux_s) + " s)");
      check(hi.decided == ops::Backend::kVgpu,
            std::string(op) + " largest scale: router picked " +
                ops::BackendName(hi.decided) + ", expected vgpu");
    }
    for (const ScaleResult& sr : results) {
      const Measured& m = cell(sr, is_join);
      const double best = std::min(m.cpux_s, m.vgpu_s);
      const double routed =
          m.decided == ops::Backend::kCpux ? m.cpux_s : m.vgpu_s;
      check(routed <= best * 1.05,
            std::string(op) + " scale " + std::to_string(sr.scale) +
                ": routed backend " + ops::BackendName(m.decided) + " (" +
                std::to_string(routed) + " s) not within 5% of best (" +
                std::to_string(best) + " s)");
    }
  }
  return failures;
}

}  // namespace

int main() {
  harness::PrintBanner("HYB1 crossover",
                       "cpux/vgpu crossover and cost-based routing");
  vgpu::Device device = harness::MakeBenchDevice();
  // The worker count the committed baseline was recorded with.
  constexpr int kCpuxThreads = 1;
  const bool assert_crossover = [] {
    const char* v = std::getenv("GPUJOIN_HYB1_ASSERT");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
  }();

  ops::RouterOptions ropts;
  ropts.cpux_threads = kCpuxThreads;
  ropts = ops::RouterOptions::FromEnv(ropts);
  const bool forced = ropts.force != ops::Backend::kAuto;

  ops::CpuxProvider cpux(kCpuxThreads);
  ops::VgpuProvider vgpu(device);
  ops::Router router(device, ropts);

  std::vector<int> scales;
  for (const int s : {8, 10, 12, 14, 16, 18}) {
    if (s <= harness::ScaleLog2()) scales.push_back(s);
  }
  if (scales.empty()) scales.push_back(harness::ScaleLog2());

  RunReporter rep(device, RunReporter::Kind::kJoin, {"scale", "op"});
  std::vector<ScaleResult> results;

  for (const int scale : scales) {
    ScaleResult sr;
    sr.scale = scale;
    const uint64_t n = 1ull << scale;
    // Fixed-cost regimes hide rate differences, and sub-100us timings are
    // at the mercy of scheduler noise: take the min of many more reps at
    // the small scales (they are nearly free there anyway).
    const int reps = scale <= 10 ? 25 : scale <= 12 ? 7 : 3;

    // --- Join: R(n) ⋈ S(2n), PHJ-OM, one payload column per side. ---
    workload::JoinWorkloadSpec jspec;
    jspec.r_rows = n;
    jspec.s_rows = 2 * n;
    auto jw = workload::GenerateJoinInput(jspec);
    GPUJOIN_CHECK_OK(jw.status());
    ops::JoinOp jop;
    jop.algo = join::JoinAlgo::kPhjOm;
    jop.r = &jw->r;
    jop.s = &jw->s;
    const uint64_t jtuples = jspec.r_rows + jspec.s_rows;
    const std::string jalgo = join::JoinAlgoName(jop.algo);

    ops::OperatorRunResult jcpu;
    for (int i = 0; i < reps; ++i) {
      auto r = cpux.RunJoin(jop);
      GPUJOIN_CHECK_OK(r.status());
      if (i == 0 || r->seconds < jcpu.seconds) jcpu = std::move(*r);
    }
    auto jgpu = vgpu.RunJoin(jop);
    GPUJOIN_CHECK_OK(jgpu.status());
    auto jauto = router.RunJoin(jop);
    GPUJOIN_CHECK_OK(jauto.status());

    sr.join.cpux_s = jcpu.seconds;
    sr.join.vgpu_s = jgpu->seconds;
    sr.join.decided = ops::RouteJoin(jop, device.config(), ropts).backend;
    AddRow(rep, scale, "join", jalgo, jcpu, jtuples, "cpux");
    AddRow(rep, scale, "join", jalgo, *jgpu, jtuples, "vgpu");
    AddRow(rep, scale, "join", jalgo, *jauto, jtuples,
           std::string("auto:") + ops::BackendName(jauto->backend));

    // --- Group-by: n rows, n/64 groups, SUM+COUNT, HASH-PARTITIONED. ---
    workload::GroupByWorkloadSpec gspec;
    gspec.rows = n;
    gspec.num_groups = std::max<uint64_t>(n / 64, 4);
    auto gin = workload::GenerateGroupByInput(gspec);
    GPUJOIN_CHECK_OK(gin.status());
    ops::GroupByOp gop;
    gop.algo = groupby::GroupByAlgo::kHashPartitioned;
    gop.spec.aggregates = {{1, groupby::AggOp::kSum},
                           {1, groupby::AggOp::kCount}};
    gop.input = &*gin;
    const std::string galgo = groupby::GroupByAlgoName(gop.algo);

    ops::OperatorRunResult gcpu;
    for (int i = 0; i < reps; ++i) {
      auto r = cpux.RunGroupBy(gop);
      GPUJOIN_CHECK_OK(r.status());
      if (i == 0 || r->seconds < gcpu.seconds) gcpu = std::move(*r);
    }
    auto ggpu = vgpu.RunGroupBy(gop);
    GPUJOIN_CHECK_OK(ggpu.status());
    auto gauto = router.RunGroupBy(gop);
    GPUJOIN_CHECK_OK(gauto.status());

    sr.gb.cpux_s = gcpu.seconds;
    sr.gb.vgpu_s = ggpu->seconds;
    sr.gb.decided = ops::RouteGroupBy(gop, device.config(), ropts).backend;
    AddRow(rep, scale, "groupby", galgo, gcpu, gspec.rows, "cpux");
    AddRow(rep, scale, "groupby", galgo, *ggpu, gspec.rows, "vgpu");
    AddRow(rep, scale, "groupby", galgo, *gauto, gspec.rows,
           std::string("auto:") + ops::BackendName(gauto->backend));

    results.push_back(sr);
  }

  rep.Print();
  std::printf("router decisions (scale: join / groupby):\n");
  for (const ScaleResult& sr : results) {
    std::printf("  2^%-2d  %-4s / %-4s   join cpux %s ms vs vgpu %s ms   "
                "gb cpux %s ms vs vgpu %s ms\n",
                sr.scale, ops::BackendName(sr.join.decided),
                ops::BackendName(sr.gb.decided), Ms(sr.join.cpux_s).c_str(),
                Ms(sr.join.vgpu_s).c_str(), Ms(sr.gb.cpux_s).c_str(),
                Ms(sr.gb.vgpu_s).c_str());
  }

  int failures = 0;
  if (assert_crossover) {
    if (forced) {
      std::printf("GPUJOIN_BACKEND forces %s: crossover assertions skipped\n",
                  ops::BackendName(ropts.force));
    } else {
      failures = CheckCrossover(results);
      if (failures == 0) {
        std::printf("HYB1 crossover assertions passed\n");
      } else {
        std::printf("HYB1 crossover assertions FAILED (%d)\n", failures);
      }
    }
  }

  harness::PrintSimSummary();
  return failures == 0 ? 0 : 1;
}
