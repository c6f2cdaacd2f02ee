#include "common/resilience.h"

#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"
#include "vgpu/device.h"

namespace gpujoin {

namespace {

uint64_t KernelFaults(const vgpu::Device& device) {
  return device.fault_injector().injected_kernel_faults() +
         device.watchdog_trips();
}

}  // namespace

Result<int> RunLadder(vgpu::Device& device, const Ladder& ladder,
                      std::vector<DegradationStep>* log) {
  if (ladder.budget.max_attempts < 1) {
    return Status::InvalidArgument(ladder.caller +
                                   ": max_attempts must be >= 1");
  }
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  // The inputs a ladder runs on stay resident: the watermark includes them.
  const uint64_t baseline_live = device.memory_stats().live_bytes;
  const uint64_t faults0 = device.memory_stats().injected_failures;
  const uint64_t kfaults0 = KernelFaults(device);
  const size_t log0 = log->size();
  // Every step, whatever the rung: backoff, lifecycle seam, then the log
  // entry, its trace instant and its counter.
  const auto take_step = [&](double delay_cycles,
                             DegradationStep step) -> Status {
    device.AdvanceClock(delay_cycles);
    GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device));
    obs::TraceInstant(device, "degradation:" + step.action, step.detail);
    reg.CounterAdd("resilient_degradations_total",
                   {{"op", ladder.op}, {"action", step.action}});
    log->push_back(std::move(step));
    return Status::OK();
  };

  int attempt = 1;
  int transient_retries = 0;
  Status last_error;
  while (true) {
    Status st;
    {
      obs::TraceSpan attempt_span(device, "attempt", ladder.span_label(attempt));
      st = ladder.attempt();
    }
    if (st.ok()) {
      // A query that completes despite injected faults survived them.
      const uint64_t absorbed =
          device.memory_stats().injected_failures - faults0;
      if (absorbed > 0) {
        reg.CounterAdd("vgpu_faults_survived_total", {{"op", ladder.op}},
                       absorbed);
      }
      const uint64_t kernel_absorbed = KernelFaults(device) - kfaults0;
      if (kernel_absorbed > 0) {
        reg.CounterAdd("vgpu_kernel_faults_survived_total",
                       {{"op", ladder.op}}, kernel_absorbed);
      }
      return attempt;
    }
    const bool transient = st.IsUnavailable();
    if (!transient && st.code() != StatusCode::kResourceExhausted &&
        st.code() != StatusCode::kOutOfMemory) {
      return st;
    }
    // A failed attempt must roll the device back to its entry watermark; a
    // mismatch is a leak (or double free) in the error path and is promoted
    // to an Internal error — degrading further would hide it.
    const uint64_t live = device.memory_stats().live_bytes;
    reg.CounterAdd("vgpu_leak_check_total",
                   {{"op", ladder.op},
                    {"outcome", live == baseline_live ? "clean" : "leak"}});
    if (live != baseline_live) {
      return Status::Internal(
          ladder.caller + ": failed attempt left " + std::to_string(live) +
          " live bytes (entry watermark " + std::to_string(baseline_live) +
          ")\n" + device.LeakReport());
    }

    if (transient) {
      // Transient rung: the work fits, the backend hiccuped. Clear the
      // sticky fault and re-run the SAME rung; once the budget is spent,
      // propagate the retryable fault so the service layer can hedge.
      obs::TraceInstant(device, "transient_fault", st.message());
      reg.CounterAdd("resilient_transient_faults_total", {{"op", ladder.op}});
      device.ClearTransientFault();
      if (++transient_retries >= ladder.budget.backoff.max_attempts) {
        return Status::Unavailable(
            st.message() + " (attempt " + std::to_string(transient_retries) +
            "; ladder transient-retry budget exhausted)");
      }
      GPUJOIN_RETURN_IF_ERROR(take_step(
          ladder.budget.backoff.DelayCycles(transient_retries),
          {"transient_retry", "transient fault (" + st.message() +
                                  "); retrying same rung, retry " +
                                  std::to_string(transient_retries)}));
      continue;
    }

    obs::TraceInstant(device, "resource_failure", st.message());
    reg.CounterAdd("resilient_resource_failures_total", {{"op", ladder.op}});
    last_error = st;
    if (attempt >= ladder.budget.max_attempts) break;
    std::optional<DegradationStep> next = ladder.escalate(st, attempt);
    if (!next.has_value()) break;
    GPUJOIN_RETURN_IF_ERROR(
        take_step(ladder.budget.backoff.DelayCycles(attempt), std::move(*next)));
    ++attempt;
  }

  std::string steps;
  for (size_t i = log0; i < log->size(); ++i) {
    steps += "  - " + (*log)[i].action + ": " + (*log)[i].detail + "\n";
  }
  return Status::ResourceExhausted(
      ladder.caller + ": " + ladder.subject + " failed after " +
      std::to_string(attempt) + " attempt(s); last error: " +
      last_error.message() +
      (steps.empty() ? std::string("; no degradation rung applicable")
                     : "\ndegradation ladder:\n" + steps));
}

}  // namespace gpujoin
