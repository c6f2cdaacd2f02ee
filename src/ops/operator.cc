#include "ops/operator.h"

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

}  // namespace

Result<OperatorRunResult> VgpuProvider::RunJoin(const JoinOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateJoinOp(op));
  vgpu::Device& dev = *device_;
  dev.ResetPeakMemory();
  const uint64_t launches0 = dev.kernels_launched();
  const vgpu::KernelStats stats0 = dev.total_stats();
  const double t0 = dev.ElapsedSeconds();

  // Upload both inputs over the simulated link (one transfer setup each).
  dev.ChargeHostTransfer(vgpu::TransferDirection::kHostToDevice,
                         op.r->device_bytes());
  dev.ChargeHostTransfer(vgpu::TransferDirection::kHostToDevice,
                         op.s->device_bytes());
  const double t_up = dev.ElapsedSeconds();

  join::ResilienceOptions ropts;
  ropts.join = op.options;
  GPUJOIN_ASSIGN_OR_RETURN(
      join::ResilientJoinResult run,
      join::RunJoinResilient(dev, op.algo, *op.r, *op.s, ropts));
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
  reg.CounterAdd("ops_executed_total", {{"op", "join"}, {"backend", "vgpu"}});
  reg.CounterAdd("vgpu_kernel_launches_total", {{"op", "join"}},
                 dev.kernels_launched() - launches0);
  return res;
}

Result<OperatorRunResult> VgpuProvider::RunGroupBy(const GroupByOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateGroupByOp(op));
  vgpu::Device& dev = *device_;
  dev.ResetPeakMemory();
  const uint64_t launches0 = dev.kernels_launched();
  const vgpu::KernelStats stats0 = dev.total_stats();
  const double t0 = dev.ElapsedSeconds();

  dev.ChargeHostTransfer(vgpu::TransferDirection::kHostToDevice,
                         op.input->device_bytes());
  GPUJOIN_ASSIGN_OR_RETURN(Table input, Table::FromHost(dev, *op.input));
  const double t_up = dev.ElapsedSeconds();

  groupby::GroupByResilienceOptions ropts;
  ropts.groupby = op.options;
  GPUJOIN_ASSIGN_OR_RETURN(
      groupby::ResilientGroupByResult run,
      groupby::RunGroupByResilient(dev, op.algo, input, op.spec, ropts));
  const double t_run = dev.ElapsedSeconds();

  OperatorRunResult res;
  res.output = run.run.output.ToHost();
  dev.ChargeHostTransfer(vgpu::TransferDirection::kDeviceToHost,
                         res.output.device_bytes());
  const double t_down = dev.ElapsedSeconds();

  res.output_rows = run.run.num_groups;
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
  reg.CounterAdd("ops_executed_total",
                 {{"op", "groupby"}, {"backend", "vgpu"}});
  reg.CounterAdd("vgpu_kernel_launches_total", {{"op", "groupby"}},
                 dev.kernels_launched() - launches0);
  return res;
}

Result<OperatorRunResult> CpuxProvider::RunJoin(const JoinOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateJoinOp(op));
  cpux::CpuxOptions copts;
  copts.radix_bits_override = op.options.radix_bits_override;
  GPUJOIN_ASSIGN_OR_RETURN(cpux::CpuxRunResult run,
                           cpux::RunJoin(*ctx_, op.algo, *op.r, *op.s, copts));

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
  RecordRun("join", run.wall_seconds);
  return res;
}

Result<OperatorRunResult> CpuxProvider::RunGroupBy(const GroupByOp& op) {
  GPUJOIN_RETURN_IF_ERROR(ValidateGroupByOp(op));
  cpux::CpuxOptions copts;
  copts.radix_bits_override = op.options.radix_bits_override;
  GPUJOIN_ASSIGN_OR_RETURN(
      cpux::CpuxRunResult run,
      cpux::RunGroupBy(*ctx_, op.algo, *op.input, op.spec, copts));

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
  RecordRun("groupby", run.wall_seconds);
  return res;
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
