// Figure 8: CPU- vs GPU-based narrow joins (one payload column per
// relation, |S| = 2|R|, 100% match) across input sizes. The paper reports
// the GPU-based partitioned implementations up to 34.5x faster than the
// CPU radix join and up to 4x faster than the cuDF-style non-partitioned
// hash join (NPHJ), with PHJ-* ahead of SMJ-* on narrow inputs.
//
// The CPU baseline is the cpux backend's radix-partitioned hash join
// (PHJ-OM) on one thread, run natively and timed with the wall clock; its
// row is recorded with backend "cpux" so no simulated-cycle band applies to
// it. The GPU implementations run on the simulated device. Absolute CPU/GPU
// ratios are hardware-dependent; the ordering is the reproduced claim.

#include <cstdio>

#include "bench_common.h"
#include "cpux/join.h"

using namespace gpujoin;         // NOLINT(build/namespaces)
using namespace gpujoin::bench;  // NOLINT(build/namespaces)

int main() {
  harness::PrintBanner("Figure 8", "narrow join throughput, CPU vs GPU");
  vgpu::Device device = harness::MakeBenchDevice();

  RunReporter rep(device, RunReporter::Kind::kJoin, {"|R| x |S| (tuples)"});
  cpux::Context cpu_ctx(/*threads=*/1);
  for (int shift = 3; shift >= 0; --shift) {
    const uint64_t r_rows = harness::ScaleTuples() >> shift;
    const uint64_t s_rows = 2 * r_rows;
    workload::JoinWorkloadSpec spec;
    spec.r_rows = r_rows;
    spec.s_rows = s_rows;
    auto w = workload::GenerateJoinInput(spec);
    GPUJOIN_CHECK_OK(w.status());
    const std::string label =
        std::to_string(r_rows) + " x " + std::to_string(s_rows);

    // CPU baseline (cpux PHJ-OM, one thread): host wall seconds per phase,
    // peak tracked host bytes, empty simulator counters.
    auto cpu = cpux::RunJoin(cpu_ctx, join::JoinAlgo::kPhjOm, w->r, w->s);
    GPUJOIN_CHECK_OK(cpu.status());
    join::PhaseBreakdown cpu_phases;
    cpu_phases.transform_s = cpu->phases.transform_wall_s;
    cpu_phases.match_s = cpu->phases.match_wall_s;
    cpu_phases.materialize_s = cpu->phases.materialize_wall_s;
    rep.Add({label}, "cpux PHJ-OM", cpu_phases,
            cpu->throughput_tuples_per_sec / 1e6, cpu->peak_bytes,
            cpu->output_rows, vgpu::KernelStats{}, "cpux");

    auto up = harness::Upload(device, *w);
    GPUJOIN_CHECK_OK(up.status());
    for (join::JoinAlgo algo : join::kAllJoinAlgos) {
      const auto res = MustJoin(device, algo, up->r, up->s);
      rep.Add({label}, algo, res);
    }
  }
  rep.Print();
  gpujoin::harness::PrintSimSummary();
  return 0;
}
