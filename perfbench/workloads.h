// The benchmark's workloads. Each one generates its inputs from the seed,
// builds devices and uploads in Setup(), runs every query once per Pass(),
// and computes its host oracles once per input in Oracles().

#ifndef GPUJOIN_PERFBENCH_WORKLOADS_H_
#define GPUJOIN_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "digest.h"
#include "vgpu/device.h"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates inputs from `seed`, constructs devices and cpux contexts,
  /// uploads, and warms up. Calling it again replaces the previous state.
  virtual void Setup(Meter& meter, uint64_t seed) = 0;
  /// Called before each pass, outside the timed section.
  virtual void BeforePass(int /*pass*/) {}
  /// Runs every query once. Fills queries, stats, sim_total_cycles,
  /// sim_digest and extra; main.cc fills the timing fields.
  virtual PassResult Pass(Meter& meter) = 0;
  /// Expected output digest per input, indexed by QueryRecord::oracle.
  virtual std::vector<RowDigest> Oracles() = 0;
  /// Devices whose profilers the per-kernel metrics read.
  virtual std::vector<gpujoin::vgpu::Device*> Devices() = 0;
};

std::unique_ptr<Workload> MakeTpcJoin();
std::unique_ptr<Workload> MakeGroupBySweep();
std::unique_ptr<Workload> MakeServiceMix();

/// Simulated milliseconds of each entry point for the same PHJ-OM query
/// (|R| = 2^20, |S| = 2^21, two payload columns per side), keyed
/// run_join / resilient / provider / service_1frag / service_default.
std::vector<std::pair<std::string, double>> EntryPointProbe(Meter& meter,
                                                            uint64_t seed);

}  // namespace perfbench

#endif  // GPUJOIN_PERFBENCH_WORKLOADS_H_
