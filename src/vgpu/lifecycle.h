// Query lifecycle control for the simulated device: cooperative
// cancellation, simulated-cycle deadlines, and the preemption hook a
// scheduler uses to run higher-priority work at the query's seams.
//
// A LifecycleControl is installed on a Device for the duration of one query
// (non-owning, like KernelObserver). The device consults it at every kernel
// boundary (BeginKernel), after every clock advance (EndKernel /
// ChargeHostTransfer / AdvanceClock), and on every allocation attempt. When
// the control trips — the CancelToken was signalled, or the simulated clock
// passed the deadline — its status turns into a sticky structured
// kCancelled / kDeadlineExceeded error that the query layer observes at the
// next cooperative seam (an allocation, or an explicit LifecycleStatus()
// check between kernels / fragments) and propagates up through the same
// error paths the fault injector exercises, so cancellation at any point
// leaves zero outstanding allocations and a reusable device.
//
// Everything here is deterministic: deadlines are simulated cycles, the
// cancel-at-kernel test knob counts kernel launches, and no wall clock is
// ever read — the same query with the same deadline trips at the same
// kernel on every run, and a control with no deadline/token never perturbs
// simulated results (it is read-only with respect to the simulation).

#ifndef GPUJOIN_VGPU_LIFECYCLE_H_
#define GPUJOIN_VGPU_LIFECYCLE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>

#include "common/status.h"

namespace gpujoin::vgpu {

/// Shared cancellation flag. Copyable handle over shared state, so a caller
/// can keep one end and hand the other to a running query (or to a
/// QueryService submission). Signalling is one-way and idempotent.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  /// Requests cancellation. The first reason sticks; later calls are no-ops.
  void RequestCancel(std::string reason = "cancel requested") {
    if (!state_->cancelled) {
      state_->cancelled = true;
      state_->reason = std::move(reason);
    }
  }

  bool cancel_requested() const { return state_->cancelled; }
  const std::string& reason() const { return state_->reason; }

  /// True when two handles share the same underlying state.
  bool SameTokenAs(const CancelToken& other) const {
    return state_ == other.state_;
  }

 private:
  struct State {
    bool cancelled = false;
    std::string reason;
  };
  std::shared_ptr<State> state_;
};

/// Absolute simulated-cycle deadline. Infinite by default.
struct Deadline {
  double cycles = std::numeric_limits<double>::infinity();

  static Deadline Never() { return Deadline{}; }
  /// A deadline `budget` cycles after `now` (both simulated cycles).
  static Deadline AfterCycles(double now, double budget) {
    return Deadline{now + budget};
  }
  bool armed() const {
    return cycles != std::numeric_limits<double>::infinity();
  }
};

/// Per-query lifecycle state consulted by the Device. Install with
/// Device::set_lifecycle (or the RAII LifecycleScope); the control must
/// outlive its installation. Plain value state, no locks — the simulator is
/// single-threaded by design.
class LifecycleControl {
 public:
  LifecycleControl() = default;
  LifecycleControl(CancelToken token, Deadline deadline)
      : token_(std::move(token)), deadline_(deadline) {}

  CancelToken& token() { return token_; }
  const CancelToken& token() const { return token_; }
  void set_token(CancelToken token) { token_ = std::move(token); }

  const Deadline& deadline() const { return deadline_; }
  void set_deadline(Deadline deadline) { deadline_ = deadline; }

  /// Test/harness knob (GPUJOIN_CANCEL_AT_KERNEL): trip the token when the
  /// Nth kernel (1-based, counted since installation or Rearm) launches.
  /// 0 = disarmed. This is how the cancellation sweep hits every kernel
  /// boundary deterministically.
  void set_cancel_at_kernel(uint64_t nth) { cancel_at_kernel_ = nth; }
  uint64_t cancel_at_kernel() const { return cancel_at_kernel_; }

  // --- Work-conserving preemption ---
  //
  // A scheduler installs a hook that runs higher-priority work nested on
  // the same device. The device calls it at the first preemption seam at
  // or after the armed point: a kernel boundary (before the bracket
  // opens), or inside a host transfer / clock advance exactly at the
  // armed cycle. The hook runs with no control installed and returns with
  // the device exactly as it found it apart from the clock; the
  // interrupted query then continues where it stopped. Cancel and deadline
  // are evaluated as usual once the control is back.

  /// Installs (or, with an empty function, removes) the preemption hook.
  void set_preempt_hook(std::function<void()> hook) {
    preempt_hook_ = std::move(hook);
  }

  /// Arms the hook for the first seam at or after `cycles` (absolute).
  /// Infinity (the default) disarms. The scheduler arms this with the
  /// arrival time of the next higher-priority query.
  void set_preempt_at_cycles(double cycles) { preempt_at_cycles_ = cycles; }
  double preempt_at_cycles() const { return preempt_at_cycles_; }

  /// Test knob mirroring cancel_at_kernel: runs the hook when the Nth
  /// kernel (1-based, counted since installation or Rearm) is about to
  /// launch. 0 = disarmed. Lets tests preempt at every kernel seam.
  void set_preempt_at_kernel(uint64_t nth) { preempt_at_kernel_ = nth; }

  /// True when the device should run the hook now: a hook is installed,
  /// and the clock reached the armed point or (`launching_kernel`) the
  /// next launch is the knob's kernel.
  bool PreemptDue(double elapsed_cycles, bool launching_kernel) const {
    if (!preempt_hook_) return false;
    if (launching_kernel && preempt_at_kernel_ != 0 &&
        kernels_launched_ + 1 == preempt_at_kernel_) {
      return true;
    }
    return elapsed_cycles >= preempt_at_cycles_;
  }

  /// Runs the hook once. Both triggers are disarmed first, so the hook
  /// fires again only if it re-arms them.
  void RunPreemptHook() {
    preempt_at_cycles_ = std::numeric_limits<double>::infinity();
    preempt_at_kernel_ = 0;
    preempt_hook_();
  }

  /// Kernels launched while this control was installed.
  uint64_t kernels_launched() const { return kernels_launched_; }

  /// Sticky status: OK until the control trips, then the structured
  /// kCancelled / kDeadlineExceeded error (first trip wins).
  const Status& status() const { return status_; }
  bool tripped() const { return !status_.ok(); }

  /// Clears the trip state, the kernel counter, and the preemption hook
  /// and its triggers for reuse by a new query (the token and deadline are
  /// caller state and are left untouched).
  void Rearm() {
    status_ = Status::OK();
    kernels_launched_ = 0;
    preempt_hook_ = nullptr;
    preempt_at_cycles_ = std::numeric_limits<double>::infinity();
    preempt_at_kernel_ = 0;
  }

  // --- Device-side hooks (called by vgpu::Device; not for query code) ---

  /// Kernel boundary: counts the launch, fires the cancel-at-kernel knob,
  /// and evaluates token + deadline against the pre-kernel clock.
  void OnKernelLaunch(double elapsed_cycles) {
    ++kernels_launched_;
    if (cancel_at_kernel_ != 0 && kernels_launched_ == cancel_at_kernel_) {
      token_.RequestCancel("cancelled at kernel boundary " +
                           std::to_string(kernels_launched_));
    }
    Evaluate(elapsed_cycles);
  }

  /// Clock advance (EndKernel, host transfer, backoff sleep): re-evaluates
  /// the deadline only — a cancel request is picked up at the next kernel
  /// boundary or allocation.
  void OnClockAdvance(double elapsed_cycles) { Evaluate(elapsed_cycles); }

  /// Evaluates token and deadline now; used by explicit checks.
  void Evaluate(double elapsed_cycles) {
    if (tripped()) return;
    if (token_.cancel_requested()) {
      status_ = Status::Cancelled(
          "query cancelled after " + std::to_string(kernels_launched_) +
          " kernel(s): " + token_.reason());
      return;
    }
    if (deadline_.armed() && elapsed_cycles > deadline_.cycles) {
      status_ = Status::DeadlineExceeded(
          "simulated-cycle deadline exceeded: " +
          std::to_string(elapsed_cycles) + " cycles elapsed, deadline " +
          std::to_string(deadline_.cycles) + " (after " +
          std::to_string(kernels_launched_) + " kernel(s))");
    }
  }

 private:
  CancelToken token_;
  Deadline deadline_;
  uint64_t cancel_at_kernel_ = 0;
  std::function<void()> preempt_hook_;
  double preempt_at_cycles_ = std::numeric_limits<double>::infinity();
  uint64_t preempt_at_kernel_ = 0;
  uint64_t kernels_launched_ = 0;
  Status status_;
};

}  // namespace gpujoin::vgpu

#endif  // GPUJOIN_VGPU_LIFECYCLE_H_
