// Hierarchical trace spans over the simulated GPU — the query-structure
// layer on top of vgpu::Profiler's flat per-kernel counters.
//
// A span brackets a region of simulated execution (a query, a phase, a
// resilience attempt, an out-of-core fragment) and records, purely by
// READING device state at open/close:
//   * the simulated clock (cycles and seconds) at both ends,
//   * host wall-clock at both ends (simulator self-profiling),
//   * the KernelStats delta accumulated inside the region,
//   * the live-bytes watermark at both ends and the device peak at close,
//   * free-form attributes and, for non-kernel spans, the per-allocation-
//     tag live-byte breakdown at close.
// Kernel-level spans are recorded automatically: the tracer implements
// vgpu::KernelObserver, and every TraceSpan attaches the tracer to its
// device, so each BeginKernel/EndKernel inside an open span becomes a
// child span carrying that kernel's exact stats, and each host transfer a
// "transfer:h2d" / "transfer:d2h" child span annotated with its bytes.
//
// Determinism contract: the tracer NEVER mutates device state — no cycles,
// no allocations, no cache traffic. Tracing on/off leaves simulated
// results bit-identical (obs_determinism_test.cc). The global tracer is
// disabled by default; a disabled TraceSpan is a no-op.

#ifndef GPUJOIN_OBS_TRACE_H_
#define GPUJOIN_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "vgpu/device.h"
#include "vgpu/observer.h"
#include "vgpu/stats.h"

namespace gpujoin::obs {

/// One completed (or still-open) span.
struct SpanRecord {
  int32_t id = -1;
  int32_t parent = -1;  // -1 for a root span.
  int32_t depth = 0;
  /// Timeline index of the device this span ran on (tracer-assigned, in
  /// attach order). Different devices have independent simulated clocks.
  int32_t device_id = 0;
  /// "query" | "phase" | "kernel" | "attempt" | "fragment" | "step" | ...
  std::string category;
  std::string name;
  bool closed = false;

  // Simulated clock at open/close.
  double start_cycles = 0, end_cycles = 0;
  double start_seconds = 0, end_seconds = 0;
  // Host wall-clock seconds relative to the tracer epoch.
  double host_start_s = 0, host_end_s = 0;
  // KernelStats delta over the span (exact kernel stats for kernel spans).
  vgpu::KernelStats stats;
  // Memory watermarks.
  uint64_t live_bytes_start = 0, live_bytes_end = 0;
  uint64_t peak_bytes_end = 0;
  // Free-form key/value annotations (includes the per-tag live-byte
  // breakdown "mem:<tag>" recorded at close for non-kernel spans).
  std::vector<std::pair<std::string, std::string>> attrs;
  // Simulated cycles inside this span spent running higher-priority work
  // nested at one of its seams (NestedTraceScope). Excluded from `stats`.
  double nested_cycles = 0;

  double duration_cycles() const { return end_cycles - start_cycles; }
  /// The span's own cycles: its duration less the nested work.
  double own_cycles() const { return duration_cycles() - nested_cycles; }
  double duration_seconds() const { return end_seconds - start_seconds; }
};

/// A point event (degradation rung taken, fault absorbed, ...).
struct EventRecord {
  int32_t parent = -1;  // Innermost open span at record time (-1: none).
  int32_t device_id = 0;
  std::string name;
  std::string detail;
  double at_cycles = 0;
  double at_seconds = 0;
};

/// Span collector and vgpu::KernelObserver implementation. Use the RAII
/// TraceSpan/TraceInstant helpers rather than calling Open/Close directly.
class Tracer : public vgpu::KernelObserver {
 public:
  /// The process-wide tracer (mirrors GlobalSimSelfProfile): bench binaries
  /// and the explain renderer share one span tree per process.
  static Tracer& Global();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Registers this tracer as `device`'s kernel observer and assigns the
  /// device a timeline id. Idempotent. Called by every TraceSpan, so
  /// kernel capture starts with the first span on a device.
  void Attach(vgpu::Device& device);

  int32_t OpenSpan(const vgpu::Device& device, std::string category,
                   std::string name);
  void CloseSpan(const vgpu::Device& device, int32_t id);
  void AnnotateSpan(int32_t id, std::string key, std::string value);
  void AddEvent(const vgpu::Device& device, std::string name,
                std::string detail);

  // vgpu::KernelObserver: kernels and host transfers become leaf spans
  // automatically (a transfer is "transfer:h2d" / "transfer:d2h").
  void OnKernelBegin(const vgpu::Device& device, const char* name) override;
  void OnKernelEnd(const vgpu::Device& device, const char* name,
                   const vgpu::KernelStats& stats,
                   double host_seconds) override;
  void OnTransferBegin(const vgpu::Device& device, vgpu::TransferDirection dir,
                       uint64_t bytes) override;
  void OnTransferEnd(const vgpu::Device& device, vgpu::TransferDirection dir,
                     uint64_t bytes) override;

  /// The open-span stack of an interrupted query, set aside while nested
  /// work runs (see NestedTraceScope).
  struct SuspendedStack {
    std::vector<int32_t> stack;
    double start_cycles = 0;
    vgpu::KernelStats stats;  // device.total_stats() at suspension.
  };
  /// Sets the open-span stack aside, so spans opened next are roots.
  SuspendedStack Suspend(const vgpu::Device& device);
  /// Restores a suspended stack. Every restored span records the nested
  /// interval in nested_cycles and drops its kernel stats from its delta.
  void Resume(const vgpu::Device& device, SuspendedStack suspended);

  /// All spans, in open order (ids are indices into this vector).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<EventRecord>& events() const { return events_; }

  /// Drops all recorded spans/events and the open-span stack. Does not
  /// change enabled() and does not detach from devices.
  void Clear();

 private:
  double HostNow() const;
  int32_t DeviceId(const vgpu::Device& device);

  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<EventRecord> events_;
  std::vector<int32_t> stack_;  // Open spans, innermost last.
  std::unordered_map<const vgpu::Device*, int32_t> device_ids_;
  std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  int32_t open_kernel_ = -1;  // Kernels do not nest (device invariant).
  int32_t open_transfer_ = -1;
};

/// RAII span on the global tracer. A no-op when tracing is disabled.
class TraceSpan {
 public:
  TraceSpan(vgpu::Device& device, const char* category, std::string name) {
    Tracer& t = Tracer::Global();
    if (!t.enabled()) return;
    t.Attach(device);
    device_ = &device;
    id_ = t.OpenSpan(device, category, std::move(name));
  }
  ~TraceSpan() {
    if (id_ >= 0) Tracer::Global().CloseSpan(*device_, id_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  void Annotate(std::string key, std::string value) {
    if (id_ >= 0) {
      Tracer::Global().AnnotateSpan(id_, std::move(key), std::move(value));
    }
  }

 private:
  vgpu::Device* device_ = nullptr;
  int32_t id_ = -1;
};

/// RAII bracket around work nested at a running query's seam (the
/// scheduler's work-conserving preemption). Spans opened inside are roots
/// of their own trees; on exit the interrupted query's open spans record
/// the nested interval, so EXPLAIN credits them only their own cycles.
/// A no-op when tracing is disabled.
class NestedTraceScope {
 public:
  explicit NestedTraceScope(vgpu::Device& device) : device_(device) {
    Tracer& t = Tracer::Global();
    if (!t.enabled()) return;
    active_ = true;
    suspended_ = t.Suspend(device);
  }
  ~NestedTraceScope() {
    if (active_) Tracer::Global().Resume(device_, std::move(suspended_));
  }

  NestedTraceScope(const NestedTraceScope&) = delete;
  NestedTraceScope& operator=(const NestedTraceScope&) = delete;

 private:
  vgpu::Device& device_;
  bool active_ = false;
  Tracer::SuspendedStack suspended_;
};

/// Records a point event on the global tracer (no-op when disabled).
inline void TraceInstant(vgpu::Device& device, std::string name,
                         std::string detail) {
  Tracer& t = Tracer::Global();
  if (!t.enabled()) return;
  t.Attach(device);
  t.AddEvent(device, std::move(name), std::move(detail));
}

/// Cooperative lifecycle seam: returns the device's sticky lifecycle status
/// (kCancelled / kDeadlineExceeded once a cancel request or simulated-cycle
/// deadline tripped, kUnavailable while a transient kernel fault is
/// pending), recording a trace instant the moment a query layer observes
/// the stop. Query drivers call this between kernels, phases, fragments,
/// and pipeline steps, and before returning a completed result.
inline Status CheckLifecycle(vgpu::Device& device) {
  Status st = device.LifecycleStatus();
  if (!st.ok()) {
    TraceInstant(device,
                 st.IsCancelled()     ? "lifecycle:cancelled"
                 : st.IsUnavailable() ? "lifecycle:unavailable"
                                      : "lifecycle:deadline_exceeded",
                 st.message());
  }
  return st;
}

}  // namespace gpujoin::obs

#endif  // GPUJOIN_OBS_TRACE_H_
