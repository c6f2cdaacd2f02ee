// Experiment harness shared by the bench binaries: device construction from
// environment knobs, workload-to-device upload, and aligned table printing
// in the style of the paper's figures.
//
// Environment variables:
//   GPUJOIN_SCALE       log2 of the canonical relation tuple count (default
//                       20; the paper uses 27 — see DESIGN.md on scaling).
//   GPUJOIN_DEVICE      "A100" (default) or "RTX3090".
//   GPUJOIN_SIM_THREADS host threads for the parallel simulation path
//                       (default 1 = sequential). Simulated results and
//                       stats are bit-identical for every value; only host
//                       wall-clock changes (see DESIGN.md §12). It does not
//                       size any cpux worker pool: the router's cost model
//                       reads the cpux thread count, so a pool sized from
//                       this knob would change routing decisions.
//   GPUJOIN_BACKEND     operator backend: "auto" (cost-based routing),
//                       "cpu"/"cpux" (vectorized host engines), or
//                       "gpu"/"vgpu" (simulated device). Parsed by
//                       ops::ParseBackend; consumed by the router-aware
//                       benches (bench_hyb1_crossover) and by
//                       service::QueryService (whose default remains vgpu
//                       when unset — see DESIGN.md §14).
//   GPUJOIN_FAULT_NTH   fail the Nth device allocation (one-shot).
//   GPUJOIN_FAULT_BYTES fail every allocation once cumulative allocated
//                       bytes exceed this budget.
//   GPUJOIN_FAULT_PROB  fail each allocation with this probability [0,1).
//   GPUJOIN_FAULT_KERNEL_NTH
//                       inject a transient kernel-execution fault
//                       (kUnavailable) at the Nth kernel launch (one-shot).
//   GPUJOIN_FAULT_KERNEL_PROB
//                       fail each kernel with this probability [0,1).
//   GPUJOIN_FAULT_KERNEL_BURST
//                       "first:len" — fail `len` consecutive kernels
//                       starting at the `first`th (models a burst fault
//                       domain; "7:3" fails kernels 7, 8, 9).
//   GPUJOIN_FAULT_SEED  RNG seed for the probabilistic modes (default 42).
//   GPUJOIN_WATCHDOG_CYCLES
//                       simulated-cycle budget for a single kernel; a
//                       kernel exceeding it trips a structured
//                       watchdog_timeout (kUnavailable). Must be > 0.
//   GPUJOIN_JSON_DIR    directory for BENCH_<name>.json (structured
//                       metrics), TRACE_<name>.json (Chrome trace-event
//                       / Perfetto), and METRICS_<name>.json/.prom
//                       (registry snapshot + Prometheus text exposition),
//                       written at PrintSimSummary() with tracing enabled.
//                       Defaults to bench/results when unset; set
//                       GPUJOIN_JSON_DIR="" to disable export.
//   GPUJOIN_BENCH_NAME  overrides the bench name derived from the banner
//                       (used by scripts/reproduce.sh --json smoke runs).
//   GPUJOIN_TRACE       enable span tracing without JSON export.
//   GPUJOIN_EXPLAIN     print an EXPLAIN ANALYZE span-tree rendering of
//                       the traced queries at PrintSimSummary().
//   GPUJOIN_DEADLINE_CYCLES
//                       arm a simulated-cycle deadline on the bench device:
//                       queries stop with kDeadlineExceeded once the clock
//                       passes this budget (deterministic — the same run
//                       trips at the same kernel every time).
//   GPUJOIN_CANCEL_AT_KERNEL
//                       trip the bench device's cancel token when the Nth
//                       kernel launches (1-based), driving a clean
//                       kCancelled stop at that boundary.
// At most one of the six GPUJOIN_FAULT_* mode knobs may be set; the bench
// device is built with the resulting injector armed, so any bench binary
// doubles as a fault-injection smoke test (it must fail with a clean
// ResourceExhausted — or absorb/surface a clean kUnavailable for the
// kernel-fault modes — never crash or leak). A malformed fault spec is a
// structured startup error: FaultSpecFromEnv returns InvalidArgument and
// the bench aborts with the diagnostic instead of silently running
// fault-free. The lifecycle knobs work the same way: a bench driven with a
// deadline or cancel-at-kernel must stop with the structured status and
// zero leaks, never crash.

#ifndef GPUJOIN_HARNESS_HARNESS_H_
#define GPUJOIN_HARNESS_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "join/join.h"
#include "storage/table.h"
#include "vgpu/device.h"
#include "workload/generator.h"

namespace gpujoin::harness {

/// log2 of the canonical bench relation size (GPUJOIN_SCALE, default 20).
int ScaleLog2();

/// Canonical bench relation size in tuples: 1 << ScaleLog2().
uint64_t ScaleTuples();

/// The base (unscaled) device config selected by GPUJOIN_DEVICE.
vgpu::DeviceConfig BaseDeviceConfig();

/// The fault injector requested via GPUJOIN_FAULT_* as a structured
/// result: unarmed when no knob is set, InvalidArgument for a malformed or
/// conflicting spec (non-numeric value, out-of-range probability, bad
/// burst shape, more than one mode).
Result<vgpu::FaultInjector> FaultSpecFromEnv();

/// The fault injector requested via GPUJOIN_FAULT_* (unarmed when none are
/// set; invalid or conflicting settings abort with FaultSpecFromEnv's
/// diagnostic).
vgpu::FaultInjector FaultInjectorFromEnv();

/// GPUJOIN_WATCHDOG_CYCLES as a structured result: 0 when unset (watchdog
/// disarmed), InvalidArgument for a non-numeric or non-positive value.
Result<double> WatchdogCyclesFromEnv();

/// Host threads for the parallel simulation path (GPUJOIN_SIM_THREADS,
/// default 1; 0 or "auto" selects the hardware concurrency).
int SimThreadsFromEnv();

/// The process-wide lifecycle control armed from GPUJOIN_DEADLINE_CYCLES /
/// GPUJOIN_CANCEL_AT_KERNEL, or nullptr when neither knob is set. The
/// control lives for the whole process, so MakeBenchDevice can install it
/// at device construction (invalid settings abort with a diagnostic).
vgpu::LifecycleControl* LifecycleFromEnv();

/// A device whose caches are scaled to the canonical bench size, so the
/// paper's cache-to-working-set ratios hold at GPUJOIN_SCALE (see DESIGN.md),
/// with any GPUJOIN_FAULT_* injector armed and the parallel simulation path
/// fanned out to GPUJOIN_SIM_THREADS host threads.
vgpu::Device MakeBenchDevice();

/// Uploads both sides of a generated workload.
struct DeviceWorkload {
  Table r;
  Table s;
};
Result<DeviceWorkload> Upload(vgpu::Device& device,
                              const workload::JoinWorkload& w);

/// Runs one join and flushes device caches first (cold-cache convention used
/// by all benches for comparability).
Result<join::JoinRunResult> RunJoinCold(vgpu::Device& device, join::JoinAlgo algo,
                                        const Table& r, const Table& s,
                                        const join::JoinOptions& opts = {});

/// Fixed-width console table writer.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);
  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Fmt(double v, int precision = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Prints the standard bench banner (experiment id, device, scale), names
/// the process-wide metrics sink after the experiment (first banner wins;
/// GPUJOIN_BENCH_NAME overrides), and enables the global tracer when any
/// of GPUJOIN_JSON_DIR / GPUJOIN_TRACE / GPUJOIN_EXPLAIN is set.
void PrintBanner(const std::string& experiment, const std::string& what);

/// Prints a one-line simulator self-profile: kernels simulated, simulated
/// cycles, host wall-clock spent simulating, and sim throughput
/// (cycles/second of host time). Call at the end of a bench main. Also
/// folds the self-profile into the obs metrics registry, renders EXPLAIN
/// ANALYZE plus the "[metrics]" summary block when GPUJOIN_EXPLAIN is set,
/// flushes BENCH_/TRACE_/METRICS_ artifacts when GPUJOIN_JSON_DIR is set,
/// and resets the process-wide sim self-profile so back-to-back
/// experiments in one process report independent summaries.
void PrintSimSummary();

}  // namespace gpujoin::harness

#endif  // GPUJOIN_HARNESS_HARNESS_H_
