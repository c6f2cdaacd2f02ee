// Shared machinery of the perfbench binary: the metered call wrapper that
// times every call into a library layer on both clocks, the per-query
// record, and the pass result each workload returns.
//
// Clocks. `sim` figures are simulated device cycles read from
// vgpu::Device (elapsed_cycles(), total_stats(), profiler()). `host`
// figures are wall or CPU seconds of this process. Every metric name the
// binary prints says which clock it uses.

#ifndef GPUJOIN_PERFBENCH_BENCH_H_
#define GPUJOIN_PERFBENCH_BENCH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "digest.h"
#include "spans.h"
#include "vgpu/device.h"
#include "vgpu/profiler.h"
#include "vgpu/stats.h"

namespace perfbench {

/// Worker threads of every cpux context the benchmark creates.
inline constexpr int kCpuxThreads = 4;

/// Accumulated per-layer figures, keyed by metric name.
using Acc = std::map<std::string, double>;

/// Per-kernel-name totals: host seconds, simulated cycles, invocations.
struct KernelTotals {
  double host_s = 0;
  double cycles = 0;
  uint64_t invocations = 0;
};
using KernelTable = std::map<std::string, KernelTotals>;

/// Sums the profilers of `devices`.
KernelTable SnapshotKernels(const std::vector<gpujoin::vgpu::Device*>& devices);
/// after - before, dropping kernels that did not run in between.
KernelTable KernelDelta(const KernelTable& after, const KernelTable& before);

/// A device configured like harness::MakeBenchDevice (caches scaled to
/// GPUJOIN_SCALE, GPUJOIN_SIM_THREADS host threads), owned by pointer so
/// workloads can keep several.
std::unique_ptr<gpujoin::vgpu::Device> NewDevice();

/// What one metered call cost on both clocks.
struct CallCost {
  double wall_s = 0;
  /// Device clock advance over the call (kernels, PCIe, backoff).
  double sim_cycles = 0;
  /// KernelStats accumulated by the call's kernels.
  gpujoin::vgpu::KernelStats stats;
};

/// Times calls into library layers. Each call records a span and adds its
/// wall seconds to `<layer>.call_host_s` and the simulator's kernel host
/// seconds inside it to `<layer>.kernel_host_s` and `vgpu.kernel_host_s`.
class Meter {
 public:
  explicit Meter(SpanRecorder& spans) : spans_(spans) {}

  template <typename F>
  auto Call(const std::string& layer, const std::string& span, int query,
            gpujoin::vgpu::Device* device, CallCost* cost, F&& fn) {
    ScopedSpan scope(spans_, span, query);
    Probe before = Take(device);
    auto result = fn();
    Record(layer, before, Take(device), device, cost);
    return result;
  }

  /// A call with no result value.
  void Do(const std::string& layer, const std::string& span, int query,
          gpujoin::vgpu::Device* device, CallCost* cost,
          const std::function<void()>& fn) {
    Call(layer, span, query, device, cost, [&] {
      fn();
      return 0;
    });
  }

  Acc& acc() { return acc_; }

 private:
  struct Probe {
    double wall = 0;
    double kernel_host = 0;
    double kernel_cpu = 0;
    double cycles = 0;
    uint64_t kernels = 0;
    gpujoin::vgpu::KernelStats stats;
  };
  static Probe Take(const gpujoin::vgpu::Device* device);
  void Record(const std::string& layer, const Probe& before,
              const Probe& after, const gpujoin::vgpu::Device* device,
              CallCost* cost);

  SpanRecorder& spans_;
  Acc acc_;
};

/// One query of a pass.
struct QueryRecord {
  std::string name;
  /// Simulated (vgpu) or host-executed (cpux).
  bool vgpu = true;
  uint64_t input_tuples = 0;
  /// Simulated cycles from the query's arrival to its result.
  double latency_cycles = 0;
  /// Simulated cycles the query occupied the device.
  double sim_cycles = 0;
  uint64_t peak_bytes = 0;
  /// Admission estimate (stats::Estimate*Memory) for the same query.
  uint64_t estimate_bytes = 0;
  bool ok = true;
  /// Counts in query_sim_ms_p50 / query_sim_ms_tail.
  bool latency_sample = false;
  /// Index of the oracle digest this query's output must equal.
  int oracle = -1;
  RowDigest output;
};

/// Everything one measured pass over a workload's queries produced.
struct PassResult {
  std::vector<QueryRecord> queries;
  Acc acc;
  KernelTable kernels;
  gpujoin::vgpu::KernelStats stats;
  /// Wall seconds of the pass, excluding output checks.
  double host_s = 0;
  /// Simulated total: the sum of device clock advances the pass caused.
  double sim_total_cycles = 0;
  uint64_t sim_digest = 0;
  /// Workload-specific end-to-end figures (for example sustained_qps_sim).
  std::map<std::string, double> extra;
};

/// Hashes a host result for the oracle comparison; the time it takes is
/// charged to `bench.check_s`, which the pass excludes from host_s.
RowDigest CheckedDigest(Meter& meter, const gpujoin::HostTable& t);

double ClockHz(const gpujoin::vgpu::Device& device);

double Median(std::vector<double> v);
/// The highest percentile with at least ten samples beyond it, as
/// {value, percentile}: the (n-10)-th smallest value, at percentile
/// 100 (n-10) / n. With ten or fewer samples, the maximum at 100.
std::pair<double, double> Tail(std::vector<double> v);

}  // namespace perfbench

#endif  // GPUJOIN_PERFBENCH_BENCH_H_
