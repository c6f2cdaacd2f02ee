// The simulated GPU device: allocator, memory model, kernel accounting, and
// the simulated clock.
//
// Kernels in gpujoin are ordinary host functions that (a) compute real
// results on host memory and (b) report every warp-level memory access to
// the Device, which classifies sectors through the L2 model and charges
// cycles per the DeviceConfig cost model. A kernel is bracketed by
// BeginKernel()/EndKernel() — use the RAII KernelScope.
//
// Two accounting paths exist for global memory:
//   * the generic per-warp path (Load/Store with explicit lane addresses),
//     which dedups the sectors/lines each warp touches, and
//   * the batched run path (AccessRun / LoadSeq / StoreSeq) for fully
//     coalesced sequential streams, which derives the same counters by
//     sector-range arithmetic — no per-lane address materialization, no
//     in-warp dedup — and walks the L2/DRAM-row models in bulk.
// The two paths are BIT-IDENTICAL in simulated statistics: for the same
// logical access stream they produce exactly equal KernelStats and leave
// the L2/row-tracker state exactly equal (enforced by
// sim_fastpath_test.cc). The run path is purely a host-speed optimization.
//
// Host-parallel block simulation: kernels whose thread blocks are
// independent are ported to ParallelBlocks(), which simulates each block
// against a cold private shard (see block_sim.h) and merges the per-block
// outcomes in fixed block order. set_parallel_sim(threads) fans the blocks
// out across a pool of host worker threads; because each block's outcome is
// a pure function of its block id and the merge order is fixed, simulated
// results are bit-identical for every thread count (enforced by
// sim_parallel_test.cc). The default of 1 runs the same per-block loop
// inline on the calling thread.
//
// Thread-safety: the Device's public API is single-threaded (calls come
// from the query thread). Worker threads spawned by ParallelBlocks only
// touch their own BlockContext shards; all merging happens on the calling
// thread.

#ifndef GPUJOIN_VGPU_DEVICE_H_
#define GPUJOIN_VGPU_DEVICE_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "vgpu/block_sim.h"
#include "vgpu/device_config.h"
#include "vgpu/fault.h"
#include "vgpu/l2_cache.h"
#include "vgpu/lifecycle.h"
#include "vgpu/observer.h"
#include "vgpu/profiler.h"
#include "vgpu/stats.h"

namespace gpujoin::vgpu {

/// One live allocation, as reported by Device::OutstandingAllocations().
struct AllocationRecord {
  uint64_t addr = 0;
  uint64_t bytes = 0;
  /// 1-based allocation-attempt index at which this allocation was made
  /// (matches the FaultInjector::FailNth numbering).
  uint64_t seq = 0;
  /// Allocation-site tag: the explicit tag passed to AllocateRaw prefixed
  /// by any AllocTagScope frames active at allocation time ("untagged"
  /// when neither is present).
  std::string tag;
};

class Device {
 public:
  /// `lifecycle` optionally installs a query lifecycle control from birth
  /// (the harness wires GPUJOIN_DEADLINE_CYCLES / GPUJOIN_CANCEL_AT_KERNEL
  /// through it, mirroring the fault-injector knobs); equivalent to calling
  /// set_lifecycle() right after construction.
  /// `sim_threads` seeds the host-parallel simulation fan-out (same effect
  /// as calling set_parallel_sim() right after construction; results are
  /// bit-identical for every value).
  /// `kernel_watchdog_cycles` arms the runaway-kernel watchdog from birth
  /// (same as set_kernel_watchdog_cycles(); 0 = disarmed), so the harness
  /// can wire GPUJOIN_WATCHDOG_CYCLES through the non-movable device.
  explicit Device(DeviceConfig config, FaultInjector fault = {},
                  LifecycleControl* lifecycle = nullptr, int sim_threads = 1,
                  double kernel_watchdog_cycles = 0);

  /// Destroying a device that still holds live allocations is a hard
  /// failure (report + abort) unless set_leak_check_on_destroy(false):
  /// every query must free what it allocates, on success AND error paths.
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const DeviceConfig& config() const { return config_; }

  // --- Allocation (Table 5 accounting) ---

  /// Reserves `bytes` of simulated device memory; returns the base address.
  /// Fails with ResourceExhausted when the device capacity is exceeded or
  /// when the armed FaultInjector trips. `tag` names the allocation site
  /// for leak attribution (see AllocationRecord::tag).
  Result<uint64_t> AllocateRaw(uint64_t bytes, const char* tag = nullptr);
  /// Releases an allocation made by AllocateRaw.
  Status FreeRaw(uint64_t addr);

  const MemoryStats& memory_stats() const { return memory_stats_; }
  /// Resets the peak-memory watermark to the current live bytes.
  void ResetPeakMemory() { memory_stats_.peak_bytes = memory_stats_.live_bytes; }

  // --- Fault injection ---

  /// Arms (or replaces) the fault injector (allocation or kernel class).
  void set_fault_injector(FaultInjector fault) { fault_ = std::move(fault); }
  /// Disarms fault injection.
  void clear_fault_injector() { fault_ = FaultInjector(); }
  const FaultInjector& fault_injector() const { return fault_; }

  // --- Transient kernel faults (retryable kUnavailable) ---

  /// Arms the simulated-cycle watchdog: a kernel whose derived cycle cost
  /// exceeds `cycles` raises a sticky "watchdog_timeout" kUnavailable fault
  /// — the structured form of a runaway-kernel launch timeout. 0 disarms
  /// (the default). Pure function of simulated cycles, so watchdog trips
  /// are bit-identical on replay and at any GPUJOIN_SIM_THREADS.
  void set_kernel_watchdog_cycles(double cycles) {
    kernel_watchdog_cycles_ = cycles;
  }
  double kernel_watchdog_cycles() const { return kernel_watchdog_cycles_; }

  /// Sticky transient-fault status: OK until an armed kernel-mode fault
  /// injector trips or the watchdog fires inside EndKernel, then the
  /// kUnavailable fault (fault kind + kernel index in the message). Folded
  /// into LifecycleStatus(), so query layers observe it at the same
  /// cooperative seams as cancellation, and it blocks further allocations
  /// (uncounted, like lifecycle rejection). Unlike a lifecycle stop it is
  /// clearable: retry layers call ClearTransientFault() after a clean
  /// unwind and run the work again.
  const Status& TransientFaultStatus() const { return fault_status_; }
  void ClearTransientFault() { fault_status_ = Status::OK(); }

  /// Watchdog timeouts raised since construction/Reset().
  uint64_t watchdog_trips() const { return watchdog_trips_; }

  // --- Leak auditing ---

  /// Pushes/pops a tag frame that prefixes every allocation tag while
  /// active (use the RAII AllocTagScope).
  void PushAllocTag(std::string tag) { alloc_tag_stack_.push_back(std::move(tag)); }
  void PopAllocTag() { alloc_tag_stack_.pop_back(); }

  /// All live allocations, oldest first.
  std::vector<AllocationRecord> OutstandingAllocations() const;
  /// OK iff no allocation is live; otherwise Internal with the leak report.
  Status CheckNoLeaks() const;
  /// Human-readable report of live allocations ("" when clean).
  std::string LeakReport() const;
  void set_leak_check_on_destroy(bool enabled) { leak_check_on_destroy_ = enabled; }

  /// Restores the device to its as-constructed state: clock, stats,
  /// profiler, L2, DRAM row tracker, address space, tag stack, and fault
  /// injector. Fails with Internal (and changes nothing) while allocations
  /// are outstanding — free everything first. After a successful Reset the
  /// device replays any workload bit-identically to a freshly constructed
  /// device of the same config. Host-execution knobs (fast path, parallel
  /// sim threads) are not simulated state and survive a Reset.
  Status Reset();

  // --- Kernel bracketing ---

  /// Starts accounting a new kernel. Kernels do not nest.
  void BeginKernel(const char* name);
  /// Finishes the kernel: derives cycles from the accumulated counters and
  /// advances the simulated clock. Returns the kernel's stats.
  const KernelStats& EndKernel();

  /// Stats of the most recently completed kernel.
  const KernelStats& last_kernel_stats() const { return last_kernel_; }
  /// Kernels launched since construction/Reset(). Deliberately NOT zeroed
  /// by ResetStats(): phase-bracketed reports reset stats mid-query, but
  /// callers metering launch counts (obs registry) need the full tally.
  uint64_t kernels_launched() const { return kernels_launched_; }
  /// Stats accumulated over all kernels since construction/ResetStats().
  const KernelStats& total_stats() const { return total_; }
  /// Per-kernel-name profiling (the Nsight Compute analog, Table 4).
  const Profiler& profiler() const { return profiler_; }
  Profiler& profiler() { return profiler_; }

  /// Simulated seconds elapsed since construction (or ResetClock()).
  double ElapsedSeconds() const { return config_.CyclesToSeconds(elapsed_cycles_); }
  double elapsed_cycles() const { return elapsed_cycles_; }
  void ResetClock() { elapsed_cycles_ = 0; }
  /// Zeroes total/last-kernel stats AND the profiler's per-kernel
  /// aggregates, so phase-bracketed reports (Table 4 style) never leak
  /// kernels from a prior phase.
  void ResetStats();
  /// Drops all cached state in the L2 model (does not touch the clock).
  void FlushL2() { engine_.FlushL2(); }

  /// Host wall-clock seconds spent inside Begin/EndKernel brackets on this
  /// device (simulator self-profiling; does not affect simulated results).
  double host_kernel_seconds() const { return host_kernel_seconds_; }
  /// Host CPU seconds spent inside kernel brackets, summed across the
  /// worker threads of the parallel simulation path. Equal to
  /// host_kernel_seconds() when parallel_sim_threads() == 1; under the
  /// parallel path, wall divided into CPU shows the realized speedup.
  double host_kernel_cpu_seconds() const { return host_kernel_cpu_seconds_; }

  // --- Observability hook ---

  /// Registers an observer notified on every BeginKernel/EndKernel (pass
  /// nullptr to detach). Observers are read-only: they never charge cycles
  /// or memory, so attaching one cannot perturb simulated results. The
  /// observer must outlive the device (or be detached first); Reset() does
  /// not detach it — the hook is harness wiring, not device state.
  void set_kernel_observer(KernelObserver* observer) { observer_ = observer; }
  KernelObserver* kernel_observer() const { return observer_; }

  // --- Query lifecycle (cooperative cancellation + deadlines) ---

  /// Installs a per-query lifecycle control (pass nullptr to detach). The
  /// control must outlive its installation. The device consults it at every
  /// kernel boundary, after every clock advance, and on every allocation
  /// attempt; once it trips, LifecycleStatus() and all further allocations
  /// return its structured kCancelled / kDeadlineExceeded error. A control
  /// with no deadline/token set never perturbs simulated results.
  /// Device::Reset() detaches the control (a query's control is query
  /// state, unlike the harness-owned KernelObserver).
  void set_lifecycle(LifecycleControl* lifecycle) { lifecycle_ = lifecycle; }
  LifecycleControl* lifecycle() const { return lifecycle_; }

  /// OK when no control is installed or the control has not tripped;
  /// otherwise the sticky kCancelled / kDeadlineExceeded status. Query
  /// layers call this at cooperative seams (between kernels, fragments,
  /// pipeline steps, and before returning a completed result). A pending
  /// transient kernel fault (TransientFaultStatus()) surfaces here too,
  /// but lifecycle trips outrank it: a cancelled query must terminate,
  /// not retry.
  Status LifecycleStatus() const {
    if (lifecycle_ != nullptr) {
      lifecycle_->Evaluate(elapsed_cycles_);
      if (!lifecycle_->status().ok()) return lifecycle_->status();
    }
    return fault_status_;
  }

  /// Advances the simulated clock outside a kernel (retry backoff sleeps).
  /// Deadline checks observe the new time immediately. A preemption point
  /// armed inside the interval runs its hook exactly at the armed cycle;
  /// the rest of the interval is charged afterwards.
  void AdvanceClock(double cycles);

  // --- Memory-access hooks (call only between Begin/EndKernel) ---

  /// One warp-level load: up to warp_size lane addresses, each reading
  /// `bytes_per_lane` bytes. Classifies the touched sectors via the L2.
  void Load(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane);
  /// One warp-level store (same classification as Load; write-allocate).
  void Store(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane);

  /// Batched run fast path: a fully coalesced sequential access of `count`
  /// elements of `elem_bytes` starting at `base_addr` (lane i of warp w
  /// touches base_addr + (w*warp_size + i)*elem_bytes). Charges warp
  /// instructions, transactions, and sector counts by range arithmetic and
  /// walks the L2/DRAM-row models in contiguous runs; produces exactly the
  /// stats the generic per-warp path would.
  void AccessRun(uint64_t base_addr, uint64_t count, uint32_t elem_bytes,
                 bool is_store);

  /// Fully coalesced sequential read of `count` elements of `elem_bytes`
  /// (AccessRun load).
  void LoadSeq(uint64_t base_addr, uint64_t count, uint32_t elem_bytes);
  /// Fully coalesced sequential write (AccessRun store).
  void StoreSeq(uint64_t base_addr, uint64_t count, uint32_t elem_bytes);

  /// Charges `count` warp-level shared-memory accesses (no bank conflicts).
  void SharedAccess(uint64_t count = 1);
  /// Charges a warp of shared-memory atomics given the per-lane target slots;
  /// lanes hitting the same slot serialize (cost = max multiplicity).
  void SharedAtomic(std::span<const uint32_t> lane_slots);
  /// Charges a warp of global-memory atomics (read-modify-write): the memory
  /// access plus a serialization penalty kGlobalAtomicSerializeCost x
  /// (max same-address multiplicity - 1). Global atomic contention is far
  /// costlier than shared-memory contention (DRAM round trips).
  void GlobalAtomic(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane);
  /// Charges `count` warp-level compute instructions.
  void Compute(uint64_t count = 1);
  /// Charges cycles that serialize across the whole device (e.g. a chain of
  /// same-address global atomics) — they are NOT divided by the SM count.
  void SerialStall(double cycles);

  // --- Host-parallel block simulation (call only between Begin/EndKernel) ---

  /// Simulates one thread block: issue the block's accesses against `ctx`
  /// and return OK (or the block's error). Must be a pure function of
  /// (block_id, data readable at launch): blocks may run on any worker
  /// thread in any order, so a BlockFn must not write host data another
  /// block reads, and concurrent blocks must write disjoint host ranges.
  using BlockFn = std::function<Status(uint64_t block_id, BlockContext& ctx)>;

  /// Runs `fn` for block ids [0, num_blocks), each against a cold private
  /// shard, and merges the per-block stats and shard state into the device
  /// in fixed block order — simulated results are bit-identical for every
  /// parallel_sim_threads() setting. All blocks run even if one fails; the
  /// first error in block order is returned.
  Status ParallelBlocks(uint64_t num_blocks, const BlockFn& fn);

  /// Sets the number of host threads ParallelBlocks fans blocks across
  /// (clamped to >= 1; 1 = inline sequential execution, the default). A
  /// host-speed knob only: simulated results do not depend on it. The
  /// harness wires GPUJOIN_SIM_THREADS through this.
  void set_parallel_sim(int threads);
  int parallel_sim_threads() const { return sim_threads_; }

  /// Advances the simulated clock by a host <-> device transfer of `bytes`
  /// over the PCIe model (fixed latency, then bandwidth). Not a kernel; used
  /// by fragment staging and the operator providers. The observer sees each
  /// uninterrupted piece as a transfer bracket. A preemption point armed
  /// inside the transfer runs its hook exactly at the armed cycle and the
  /// rest of the transfer is charged afterwards, so the transfer's total
  /// cycles and bytes do not change.
  void ChargeHostTransfer(TransferDirection dir, uint64_t bytes);

  // --- Determinism control ---

  /// Seed that nondeterministic implementations (PHJ-UM bucket chaining) use
  /// to model atomics arrival order. Deterministic implementations ignore it.
  uint64_t interleave_seed() const { return interleave_seed_; }
  void set_interleave_seed(uint64_t seed) { interleave_seed_ = seed; }

  // --- Fast-path control (testing hook) ---

  /// When disabled, AccessRun/LoadSeq/StoreSeq fall back to the generic
  /// per-warp path. The two paths are bit-identical in simulated stats;
  /// the flag exists so equivalence tests can drive both.
  bool fast_path_enabled() const { return engine_.fast_path_enabled; }
  void set_fast_path_enabled(bool enabled) { engine_.fast_path_enabled = enabled; }

  // --- Memory-model state snapshots (testing hooks) ---

  /// Resident L2 sectors, least recently used first (deterministic).
  std::vector<uint64_t> DebugResidentL2Sectors() const {
    return engine_.ResidentL2SectorsByLru();
  }
  /// Open DRAM rows, least recently used first (deterministic).
  std::vector<uint64_t> DebugOpenDramRows() const {
    return engine_.OpenDramRowsByLru();
  }

 private:
  class ParallelPool;

  /// Runs the installed control's preemption hook if it is due. The hook
  /// runs with no control installed, no allocation-tag frames, and no
  /// pending transient fault; all three are restored when it returns, so
  /// the nested work neither inherits nor leaves behind the interrupted
  /// query's state.
  void PreemptIfDue(bool launching_kernel);

  /// Advances the clock by `cycles` outside a kernel, stopping exactly at
  /// an armed preemption point to run the hook. When `dir` is set, each
  /// uninterrupted piece is reported to the observer as a transfer of its
  /// share of `bytes` (the fixed latency is charged before any byte
  /// moves).
  void AdvanceInterruptible(double cycles, const TransferDirection* dir,
                            uint64_t bytes);

  /// Folds one finished block into the device engine: stats added, shard
  /// residents replayed LRU-first (silent installs — no stats). Called in
  /// strictly ascending block order by both execution paths.
  void MergeBlockOutcome(const KernelStats& block_stats,
                         const std::vector<uint64_t>& l2_sectors,
                         const std::vector<uint64_t>& dram_rows,
                         const Status& block_status, Status* first_error);

  /// The tag AllocateRaw records: active AllocTagScope frames joined with
  /// '/', then the explicit site tag (or "untagged").
  std::string EffectiveTag(const char* tag) const;

  struct AllocationInfo {
    uint64_t bytes = 0;
    uint64_t seq = 0;
    std::string tag;
  };

  DeviceConfig config_;
  MemEngine engine_;  // Full-sized L2/row models + the current kernel's stats.
  MemoryStats memory_stats_;
  std::unordered_map<uint64_t, AllocationInfo> allocations_;  // By address.
  uint64_t next_addr_ = 4096;  // Leave page 0 unmapped for easier debugging.
  FaultInjector fault_;
  /// Sticky retryable kUnavailable raised by EndKernel (injected kernel
  /// fault or watchdog timeout); OK when none pending.
  Status fault_status_;
  double kernel_watchdog_cycles_ = 0;  // 0 = watchdog disarmed.
  uint64_t watchdog_trips_ = 0;
  std::vector<std::string> alloc_tag_stack_;
  bool leak_check_on_destroy_ = true;

  bool in_kernel_ = false;
  const char* kernel_name_ = "";
  uint64_t kernels_launched_ = 0;
  KernelStats last_kernel_;
  KernelStats total_;
  Profiler profiler_;
  KernelObserver* observer_ = nullptr;
  LifecycleControl* lifecycle_ = nullptr;
  double elapsed_cycles_ = 0;
  std::chrono::steady_clock::time_point kernel_host_start_;
  double host_kernel_seconds_ = 0;
  double host_kernel_cpu_seconds_ = 0;
  // Wall/CPU time spent inside ParallelBlocks during the current kernel
  // (reset by BeginKernel; folded into the CPU total by EndKernel).
  double kernel_parallel_wall_ = 0;
  double kernel_parallel_cpu_ = 0;
  uint64_t interleave_seed_ = 0x9e3779b97f4a7c15ull;

  int sim_threads_ = 1;
  std::unique_ptr<ParallelPool> pool_;     // Lazily created when threads > 1.
  std::unique_ptr<BlockContext> seq_ctx_;  // Reused by the inline path.
};

/// RAII allocation-tag frame: every allocation made while the scope is
/// alive is attributed to `tag` (nested scopes join with '/'), so leak
/// reports name the operator/phase that lost the buffer.
class AllocTagScope {
 public:
  AllocTagScope(Device& device, std::string tag) : device_(device) {
    device_.PushAllocTag(std::move(tag));
  }
  ~AllocTagScope() { device_.PopAllocTag(); }

  AllocTagScope(const AllocTagScope&) = delete;
  AllocTagScope& operator=(const AllocTagScope&) = delete;

 private:
  Device& device_;
};

/// RAII lifecycle installation: installs `control` on the device for the
/// scope's lifetime and restores the previously installed control (usually
/// none) on exit, so an early return from a cancelled query never leaves a
/// dangling control behind.
class LifecycleScope {
 public:
  LifecycleScope(Device& device, LifecycleControl& control)
      : device_(device), previous_(device.lifecycle()) {
    device_.set_lifecycle(&control);
  }
  ~LifecycleScope() { device_.set_lifecycle(previous_); }

  LifecycleScope(const LifecycleScope&) = delete;
  LifecycleScope& operator=(const LifecycleScope&) = delete;

 private:
  Device& device_;
  LifecycleControl* previous_;
};

/// RAII kernel bracket.
class KernelScope {
 public:
  KernelScope(Device& device, const char* name) : device_(device) {
    device_.BeginKernel(name);
  }
  ~KernelScope() { device_.EndKernel(); }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  Device& device_;
};

}  // namespace gpujoin::vgpu

#endif  // GPUJOIN_VGPU_DEVICE_H_
