// Backend-neutral operator interface: the seam between "what to run" (a
// join or grouped aggregation over host tables) and "where to run it" (the
// simulated GPU or the vectorized CPU backend).
//
// A provider executes an operator end to end from host inputs to a host
// output, charging whatever its backend charges:
//   * VgpuProvider uploads over the simulated PCIe link (explicitly
//     charged, unlike the raw Table::FromHost staging path), runs the
//     resilient device operators, and downloads the result — its `seconds`
//     are simulated device seconds including both transfers.
//   * CpuxProvider runs the vectorized host engines — its `seconds` are
//     measured host wall seconds, with host_cpu_seconds reporting the
//     multi-core CPU time actually burned.
// The two clocks are directly compared by the router (ops/router.h), the
// same cross-clock comparison the paper's Figure 8 makes between GPU and
// CPU systems.

#ifndef GPUJOIN_OPS_OPERATOR_H_
#define GPUJOIN_OPS_OPERATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "cpux/context.h"
#include "groupby/groupby.h"
#include "join/join.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::ops {

enum class Backend {
  kAuto,  // Let the cost-based router pick.
  kCpux,  // Vectorized CPU backend.
  kVgpu,  // Simulated GPU.
};

/// "auto" / "cpux" / "vgpu".
const char* BackendName(Backend b);

/// Parses a backend spelling: auto | cpu | cpux | vgpu | gpu
/// (case-sensitive, the aliases matching the GPUJOIN_BACKEND knob).
Result<Backend> ParseBackend(const std::string& s);

/// A join of two host tables on column 0 of each.
struct JoinOp {
  join::JoinAlgo algo = join::JoinAlgo::kPhjUm;
  join::JoinOptions options;
  const HostTable* r = nullptr;
  const HostTable* s = nullptr;
};

/// A grouped aggregation of a host table by column 0.
struct GroupByOp {
  groupby::GroupByAlgo algo = groupby::GroupByAlgo::kHashGlobal;
  groupby::GroupBySpec spec;
  groupby::GroupByOptions options;
  const HostTable* input = nullptr;
};

struct OperatorRunResult {
  HostTable output;
  uint64_t output_rows = 0;
  /// Backend that executed (never kAuto).
  Backend backend = Backend::kVgpu;
  /// The backend's own clock: simulated device seconds (vgpu, transfers
  /// included) or host wall seconds (cpux). The router compares these
  /// directly.
  double seconds = 0;
  /// Host CPU seconds across all worker threads (cpux only; 0 for vgpu).
  double host_cpu_seconds = 0;
  /// Peak backend memory: device bytes (vgpu) or tracked host bytes (cpux).
  uint64_t peak_mem_bytes = 0;
  /// transform / match / materialize split on the backend's clock. For
  /// vgpu, transform covers the upload and materialize the download.
  join::PhaseBreakdown phases;
  /// KernelStats delta of the vgpu run, every ladder attempt included
  /// (Table 4 counters). Zero for cpux, which has no simulated counters.
  vgpu::KernelStats stats;
  /// Resilience-ladder attempts inside the backend (1 = clean first try).
  int attempts = 1;
  std::vector<DegradationStep> degradation;
};

/// A backend that can run the common operators host-to-host.
class OperatorProvider {
 public:
  virtual ~OperatorProvider() = default;
  virtual Backend backend() const = 0;
  virtual Result<OperatorRunResult> RunJoin(const JoinOp& op) = 0;
  virtual Result<OperatorRunResult> RunGroupBy(const GroupByOp& op) = 0;
};

/// Simulated-GPU provider: PCIe-charged upload, resilient device operator,
/// PCIe-charged download. Does not own the device.
class VgpuProvider : public OperatorProvider {
 public:
  explicit VgpuProvider(vgpu::Device& device) : device_(&device) {}

  Backend backend() const override { return Backend::kVgpu; }
  Result<OperatorRunResult> RunJoin(const JoinOp& op) override;
  Result<OperatorRunResult> RunGroupBy(const GroupByOp& op) override;

  vgpu::Device& device() { return *device_; }

 private:
  vgpu::Device* device_;
};

/// Vectorized-CPU provider. Owns its cpux::Context (worker pool + tracked
/// allocator); `threads` sizes the pool.
class CpuxProvider : public OperatorProvider {
 public:
  explicit CpuxProvider(int threads = 1)
      : ctx_(std::make_unique<cpux::Context>(threads)) {}

  Backend backend() const override { return Backend::kCpux; }
  Result<OperatorRunResult> RunJoin(const JoinOp& op) override;
  Result<OperatorRunResult> RunGroupBy(const GroupByOp& op) override;

  cpux::Context& context() { return *ctx_; }

 private:
  /// Meters one completed op: ops_executed_total, the host-flagged wall
  /// histogram, and a post-run leak check against the cpux context.
  void RecordRun(const char* op, double wall_seconds);

  std::unique_ptr<cpux::Context> ctx_;
};

}  // namespace gpujoin::ops

#endif  // GPUJOIN_OPS_OPERATOR_H_
