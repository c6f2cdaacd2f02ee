#include "ops/operator.h"

#include <initializer_list>
#include <utility>

#include "cpux/groupby.h"
#include "cpux/join.h"
#include "groupby/resilient.h"
#include "join/resilient.h"
#include "obs/registry.h"

namespace gpujoin::ops {

const char* BackendName(Backend b) {
  switch (b) {
    case Backend::kAuto:
      return "auto";
    case Backend::kCpux:
      return "cpux";
    case Backend::kVgpu:
      return "vgpu";
  }
  return "?";
}

Result<Backend> ParseBackend(const std::string& s) {
  if (s == "auto") return Backend::kAuto;
  if (s == "cpu" || s == "cpux") return Backend::kCpux;
  if (s == "gpu" || s == "vgpu") return Backend::kVgpu;
  return Status::InvalidArgument(
      "unknown backend '" + s + "' (expected auto|cpu|cpux|vgpu|gpu)");
}

namespace {

Status ValidateJoinOp(const JoinOp& op) {
  if (op.r == nullptr || op.s == nullptr) {
    return Status::InvalidArgument("join operator missing input table(s)");
  }
  return Status::OK();
}

Status ValidateGroupByOp(const GroupByOp& op) {
  if (op.input == nullptr) {
    return Status::InvalidArgument("groupby operator missing input table");
  }
  return Status::OK();
}

/// One vgpu operator end to end: PCIe-charged uploads of `uploads` (one
/// transfer setup each), `body` — a resilient device operator from host
/// tables to a host result — and a PCIe-charged download of its output.
template <typename Body>
Result<OperatorRunResult> RunOnDevice(vgpu::Device& dev, const char* op,
                                      std::initializer_list<uint64_t> uploads,
                                      const Body& body) {
  dev.ResetPeakMemory();
  const uint64_t launches0 = dev.kernels_launched();
  const vgpu::KernelStats stats0 = dev.total_stats();
  const double t0 = dev.ElapsedSeconds();
  for (const uint64_t bytes : uploads) {
    dev.ChargeHostTransfer(vgpu::TransferDirection::kHostToDevice, bytes);
  }
  const double t_up = dev.ElapsedSeconds();
  GPUJOIN_ASSIGN_OR_RETURN(auto run, body());
  const double t_run = dev.ElapsedSeconds();
  dev.ChargeHostTransfer(vgpu::TransferDirection::kDeviceToHost,
                         run.output.device_bytes());
  const double t_down = dev.ElapsedSeconds();

  OperatorRunResult res;
  res.output = std::move(run.output);
  res.output_rows = run.output_rows;
  res.backend = Backend::kVgpu;
  res.seconds = t_down - t0;
  res.peak_mem_bytes = dev.memory_stats().peak_bytes;
  res.phases.transform_s = t_up - t0;
  res.phases.match_s = t_run - t_up;
  res.phases.materialize_s = t_down - t_run;
  res.stats = dev.total_stats();
  res.stats.Sub(stats0);
  res.attempts = run.attempts;
  res.degradation = std::move(run.degradation);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.CounterAdd("ops_executed_total", {{"op", op}, {"backend", "vgpu"}});
  reg.CounterAdd("vgpu_kernel_launches_total", {{"op", op}},
                 dev.kernels_launched() - launches0);
  return res;
}

/// A cpux engine run as the provider-neutral result.
OperatorRunResult FromCpux(cpux::CpuxRunResult run) {
  OperatorRunResult res;
  res.output = std::move(run.output);
  res.output_rows = run.output_rows;
  res.backend = Backend::kCpux;
  res.seconds = run.wall_seconds;
  res.host_cpu_seconds = run.cpu_seconds;
  res.peak_mem_bytes = run.peak_bytes;
  res.phases.transform_s = run.phases.transform_wall_s;
  res.phases.match_s = run.phases.match_wall_s;
  res.phases.materialize_s = run.phases.materialize_wall_s;
  return res;
}

}  // namespace

Result<OperatorRunResult> VgpuProvider::RunJoin(const JoinOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateJoinOp(op));
  join::ResilienceOptions ropts;
  ropts.join = op.options;
  return RunOnDevice(
      *device_, "join", {op.r->device_bytes(), op.s->device_bytes()}, [&] {
        return join::RunJoinResilient(*device_, op.algo, *op.r, *op.s, ropts);
      });
}

Result<OperatorRunResult> VgpuProvider::RunGroupBy(const GroupByOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateGroupByOp(op));
  groupby::GroupByResilienceOptions ropts;
  ropts.groupby = op.options;
  return RunOnDevice(*device_, "groupby", {op.input->device_bytes()}, [&] {
    return groupby::RunGroupByResilient(*device_, op.algo, *op.input, op.spec,
                                        ropts);
  });
}

Result<OperatorRunResult> CpuxProvider::RunJoin(const JoinOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateJoinOp(op));
  cpux::CpuxOptions copts;
  copts.radix_bits_override = op.options.radix_bits_override;
  GPUJOIN_ASSIGN_OR_RETURN(cpux::CpuxRunResult run,
                           cpux::RunJoin(*ctx_, op.algo, *op.r, *op.s, copts));
  RecordRun("join", run.wall_seconds);
  return FromCpux(std::move(run));
}

Result<OperatorRunResult> CpuxProvider::RunGroupBy(const GroupByOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateGroupByOp(op));
  cpux::CpuxOptions copts;
  copts.radix_bits_override = op.options.radix_bits_override;
  GPUJOIN_ASSIGN_OR_RETURN(
      cpux::CpuxRunResult run,
      cpux::RunGroupBy(*ctx_, op.algo, *op.input, op.spec, copts));
  RecordRun("groupby", run.wall_seconds);
  return FromCpux(std::move(run));
}

void CpuxProvider::RecordRun(const char* op, double wall_seconds) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.CounterAdd("ops_executed_total", {{"op", op}, {"backend", "cpux"}});
  // Host wall time is not replay-stable: keep it behind the host flag so
  // METRICS exports stay diffable across GPUJOIN_SIM_THREADS.
  reg.HostHistogramObserve("cpux_op_host_seconds", {{"op", op}}, wall_seconds);
  const Status leaks = ctx_->CheckNoLeaks();
  reg.CounterAdd("cpux_leak_check_total",
                 {{"outcome", leaks.ok() ? "clean" : "leak"}});
}

}  // namespace gpujoin::ops
