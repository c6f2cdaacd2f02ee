// Cost-based CPU/GPU operator router.
//
// For every operator the router compares two deterministic cost estimates —
// projected cpux host seconds against projected vgpu simulated seconds
// (transfers and launch overheads included) — and executes on the cheaper
// backend. Small inputs route to the CPU, whose fixed costs are nanoseconds
// rather than the GPU's PCIe round-trips and kernel launches; large inputs
// route to the GPU, whose per-tuple rate dwarfs the CPU's. The crossover
// this produces is measured by bench_hyb1_crossover and is the Figure 8
// style cross-system comparison applied inside one engine.
//
// The estimates are pure functions of tuple counts, byte estimates
// (stats::EstimateJoinMemory / EstimateGroupByMemory), the device config,
// and calibrated constants (kCost in router.cc) — never of wall time — so
// the same query gets the same plan on every run and at every
// GPUJOIN_SIM_THREADS setting.
//
// Cross-backend OOM fallback: when the chosen backend exhausts its ladder
// with ResourceExhausted/OutOfMemory, the router reruns the operator on the
// other backend (one new rung below the per-backend degradation ladders),
// recording a "backend_fallback" DegradationStep and trace instant.

#ifndef GPUJOIN_OPS_ROUTER_H_
#define GPUJOIN_OPS_ROUTER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "ops/operator.h"
#include "stats/estimator.h"
#include "vgpu/device.h"
#include "vgpu/device_config.h"

namespace gpujoin::ops {

struct RouterOptions {
  /// kAuto = cost-based choice; anything else forces that backend.
  Backend force = Backend::kAuto;
  /// Worker threads assumed/used for the cpux backend.
  int cpux_threads = 1;

  /// Optional backend-health guard (service::BackendHealth), consulted
  /// AFTER the cost/force choice. When set and it reports the chosen
  /// backend quarantined, the router hedges the fragment to the surviving
  /// backend with reason "quarantined" — unless the survivor is itself
  /// quarantined or ineligible (strings/rows can only run on vgpu), in
  /// which case the original choice stands and the service-layer retry
  /// path owns the fault. Deterministic: the guard reads breaker state
  /// driven purely by the simulated clock.
  std::function<bool(Backend)> quarantined;

  /// `base` with GPUJOIN_BACKEND (auto|cpu|cpux|vgpu|gpu) applied to
  /// `force` when set; unset or unparsable leaves `base` untouched.
  static RouterOptions FromEnv(RouterOptions base);
  static RouterOptions FromEnv();
};

/// GPUJOIN_BACKEND, or `fallback` when the variable is unset. An invalid
/// spelling is an InvalidArgument error.
Result<Backend> BackendFromEnv(Backend fallback);

/// One routing decision (also recorded in trace spans and EXPLAIN).
struct RouteDecision {
  Backend backend = Backend::kVgpu;
  /// Projected seconds per backend (comparable clocks; see operator.h).
  double cpux_seconds = 0;
  double vgpu_seconds = 0;
  stats::MemoryEstimate memory;
  /// "cost", "forced", "quarantined" (hedged off an unhealthy backend),
  /// or an eligibility guard ("strings", "rows").
  std::string reason;
};

/// Pure routing decisions (no execution, no side effects).
RouteDecision RouteJoin(const JoinOp& op, const vgpu::DeviceConfig& config,
                        const RouterOptions& options);
RouteDecision RouteGroupBy(const GroupByOp& op,
                           const vgpu::DeviceConfig& config,
                           const RouterOptions& options);

/// Executes operators on the backend RouteJoin/RouteGroupBy picks, with
/// tracing and the cross-backend OOM fallback. Owns the cpux provider;
/// borrows the device.
class Router {
 public:
  explicit Router(vgpu::Device& device, const RouterOptions& options = {});

  Result<OperatorRunResult> RunJoin(const JoinOp& op);
  Result<OperatorRunResult> RunGroupBy(const GroupByOp& op);

  /// A fact ⋈ dims[0..N-1] pipeline (join/pipeline.h's shape) over host
  /// tables, routing every constituent join independently. Stage i joins
  /// dims[i] (key in column 0) against fact foreign-key column i. The
  /// output carries the last join key first, then the accumulated payload
  /// columns; `seconds` sums each stage's chosen-backend seconds.
  struct PipelineRunResult {
    HostTable output;
    uint64_t final_rows = 0;
    double seconds = 0;
    std::vector<Backend> stage_backends;
  };
  Result<PipelineRunResult> RunJoinPipeline(
      const HostTable& fact, const std::vector<HostTable>& dims,
      join::JoinAlgo algo, const join::JoinOptions& options = {});

  /// Decisions in execution order (one per operator run so far).
  const std::vector<RouteDecision>& decisions() const { return decisions_; }

  const RouterOptions& options() const { return options_; }
  CpuxProvider& cpux_provider() { return cpux_; }
  VgpuProvider& vgpu_provider() { return vgpu_; }

 private:
  Result<OperatorRunResult> Dispatch(Backend backend, const JoinOp* join_op,
                                     const GroupByOp* groupby_op);
  Result<OperatorRunResult> RunRouted(const RouteDecision& decision,
                                      const JoinOp* join_op,
                                      const GroupByOp* groupby_op,
                                      const std::string& span_name);

  vgpu::Device* device_;
  RouterOptions options_;
  VgpuProvider vgpu_;
  CpuxProvider cpux_;
  std::vector<RouteDecision> decisions_;
};

}  // namespace gpujoin::ops

#endif  // GPUJOIN_OPS_ROUTER_H_
