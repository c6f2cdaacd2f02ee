#include "vgpu/device.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "common/bit_util.h"

namespace gpujoin::vgpu {

namespace {

// CPU time of the calling thread (simulator self-profiling only; never
// feeds back into simulated results).
double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

}  // namespace

// Worker pool of the host-parallel simulation path. Workers own a private
// BlockContext each and dynamically claim block ids in ascending order; the
// calling thread merges finished blocks strictly in block order. Claiming
// is window-bounded (a worker may run at most `window_` blocks ahead of the
// merge frontier) so the buffered per-block outcomes stay O(threads), not
// O(num_blocks).
class Device::ParallelPool {
 public:
  struct BlockOutcome {
    KernelStats stats;
    std::vector<uint64_t> l2_sectors;  // Resident shard sectors, LRU first.
    std::vector<uint64_t> dram_rows;   // Open shard rows, LRU first.
    Status status;
    double cpu_seconds = 0;
  };

  ParallelPool(const DeviceConfig& config, int threads) : config_(config) {
    workers_.reserve(threads);
    for (int i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ParallelPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  ParallelPool(const ParallelPool&) = delete;
  ParallelPool& operator=(const ParallelPool&) = delete;

  /// Runs `fn` over all blocks and hands each outcome to `merge` strictly
  /// in block order. Returns the first error in block order (all blocks run
  /// regardless). `*cpu_seconds_out` is the summed worker CPU time.
  Status Run(uint64_t num_blocks, const Device::BlockFn& fn, bool fast_path,
             const std::function<void(const BlockOutcome&)>& merge,
             double* cpu_seconds_out) {
    Status first_error = Status::OK();
    double cpu_total = 0;
    std::unique_lock<std::mutex> lk(mu_);
    fn_ = &fn;
    fast_path_ = fast_path;
    num_blocks_ = num_blocks;
    next_ = 0;
    merged_ = 0;
    window_ = 4 * workers_.size() + 4;
    job_active_ = true;
    cv_work_.notify_all();
    while (merged_ < num_blocks_) {
      cv_ready_.wait(lk, [&] { return ready_.count(merged_) > 0; });
      auto node = ready_.extract(merged_);
      ++merged_;
      cv_work_.notify_all();  // The claim window advanced.
      lk.unlock();
      const BlockOutcome& out = node.mapped();
      merge(out);
      cpu_total += out.cpu_seconds;
      if (first_error.ok() && !out.status.ok()) first_error = out.status;
      lk.lock();
    }
    job_active_ = false;
    fn_ = nullptr;
    *cpu_seconds_out = cpu_total;
    return first_error;
  }

  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop() {
    BlockContext ctx(config_);
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_work_.wait(lk, [&] {
        return shutdown_ || (job_active_ && next_ < num_blocks_ &&
                             next_ < merged_ + window_);
      });
      if (shutdown_) return;
      const uint64_t block = next_++;
      const Device::BlockFn* fn = fn_;
      const bool fast_path = fast_path_;
      lk.unlock();
      BlockOutcome out;
      const double cpu0 = ThreadCpuSeconds();
      ctx.BeginBlock(block, fast_path);
      out.status = (*fn)(block, ctx);
      out.stats = ctx.engine().stats;
      out.l2_sectors = ctx.engine().ResidentL2SectorsByLru();
      out.dram_rows = ctx.engine().OpenDramRowsByLru();
      out.cpu_seconds = ThreadCpuSeconds() - cpu0;
      lk.lock();
      ready_.emplace(block, std::move(out));
      cv_ready_.notify_one();
    }
  }

  const DeviceConfig& config_;
  std::mutex mu_;
  std::condition_variable cv_work_;   // Workers wait for claimable blocks.
  std::condition_variable cv_ready_;  // The merger waits for block `merged_`.
  bool shutdown_ = false;
  bool job_active_ = false;
  const Device::BlockFn* fn_ = nullptr;
  bool fast_path_ = true;
  uint64_t num_blocks_ = 0;
  uint64_t next_ = 0;    // Next unclaimed block id.
  uint64_t merged_ = 0;  // Merge frontier: blocks < merged_ are folded in.
  uint64_t window_ = 0;  // Claim bound: next_ < merged_ + window_.
  std::map<uint64_t, BlockOutcome> ready_;  // Finished, not yet merged.
  std::vector<std::thread> workers_;
};

Device::Device(DeviceConfig config, FaultInjector fault,
               LifecycleControl* lifecycle, int sim_threads,
               double kernel_watchdog_cycles)
    : config_(std::move(config)),
      engine_(config_),
      fault_(std::move(fault)),
      kernel_watchdog_cycles_(kernel_watchdog_cycles),
      lifecycle_(lifecycle) {
  if (sim_threads > 1) set_parallel_sim(sim_threads);
}

Device::~Device() {
  if (leak_check_on_destroy_ && !allocations_.empty()) {
    std::fprintf(stderr,
                 "FATAL: Device destroyed with leaked simulated memory\n%s",
                 LeakReport().c_str());
    std::abort();
  }
}

std::string Device::EffectiveTag(const char* tag) const {
  std::string out;
  for (const std::string& frame : alloc_tag_stack_) {
    out += frame;
    out += '/';
  }
  out += tag != nullptr ? tag : "untagged";
  return out;
}

Result<uint64_t> Device::AllocateRaw(uint64_t bytes, const char* tag) {
  if (bytes == 0) bytes = 1;
  if (lifecycle_ != nullptr) {
    // A tripped lifecycle (cancel/deadline) rejects further allocations so
    // a doomed query stops at its next resource request. The attempt is not
    // counted: lifecycle rejection must not shift the FaultInjector's
    // deterministic allocation numbering.
    lifecycle_->Evaluate(elapsed_cycles_);
    if (lifecycle_->tripped()) return lifecycle_->status();
  }
  if (!fault_status_.ok()) {
    // A pending transient kernel fault rejects further allocations until a
    // retry layer clears it: the faulted kernel's results are poisoned, so
    // building on them would waste work. Uncounted for the same reason as
    // lifecycle rejection — it must not shift the FaultInjector's
    // deterministic allocation numbering.
    return fault_status_;
  }
  ++memory_stats_.alloc_attempts;
  if (fault_.armed() && fault_.ShouldFail(bytes)) {
    ++memory_stats_.failed_allocations;
    ++memory_stats_.injected_failures;
    return Status::ResourceExhausted(
        "injected allocation fault (" + fault_.ToString() + ") at attempt #" +
        std::to_string(memory_stats_.alloc_attempts) + ": " +
        std::to_string(bytes) + " B for " + EffectiveTag(tag));
  }
  if (memory_stats_.live_bytes + bytes > config_.global_mem_bytes) {
    ++memory_stats_.failed_allocations;
    return Status::ResourceExhausted(
        "device OOM: requested " + std::to_string(bytes) + " B for " +
        EffectiveTag(tag) + " with " + std::to_string(memory_stats_.live_bytes) +
        " B live of " + std::to_string(config_.global_mem_bytes) +
        " B capacity");
  }
  const uint64_t addr = next_addr_;
  next_addr_ = bit_util::AlignUp(next_addr_ + bytes, 256);
  allocations_.emplace(
      addr,
      AllocationInfo{bytes, memory_stats_.alloc_attempts, EffectiveTag(tag)});
  memory_stats_.live_bytes += bytes;
  memory_stats_.peak_bytes =
      std::max(memory_stats_.peak_bytes, memory_stats_.live_bytes);
  ++memory_stats_.total_allocations;
  return addr;
}

Status Device::FreeRaw(uint64_t addr) {
  auto it = allocations_.find(addr);
  if (it == allocations_.end()) {
    return Status::InvalidArgument("FreeRaw of unknown device address " +
                                   std::to_string(addr));
  }
  memory_stats_.live_bytes -= it->second.bytes;
  allocations_.erase(it);
  return Status::OK();
}

std::vector<AllocationRecord> Device::OutstandingAllocations() const {
  std::vector<AllocationRecord> live;
  live.reserve(allocations_.size());
  for (const auto& [addr, info] : allocations_) {
    live.push_back(AllocationRecord{addr, info.bytes, info.seq, info.tag});
  }
  std::sort(live.begin(), live.end(),
            [](const AllocationRecord& a, const AllocationRecord& b) {
              return a.seq < b.seq;
            });
  return live;
}

std::string Device::LeakReport() const {
  if (allocations_.empty()) return "";
  std::string report = std::to_string(allocations_.size()) +
                       " live allocation(s), " +
                       std::to_string(memory_stats_.live_bytes) + " B total:\n";
  constexpr size_t kMaxListed = 16;
  const std::vector<AllocationRecord> live = OutstandingAllocations();
  for (size_t i = 0; i < live.size() && i < kMaxListed; ++i) {
    report += "  #" + std::to_string(live[i].seq) + " " + live[i].tag + ": " +
              std::to_string(live[i].bytes) + " B at addr " +
              std::to_string(live[i].addr) + "\n";
  }
  if (live.size() > kMaxListed) {
    report += "  ... and " + std::to_string(live.size() - kMaxListed) +
              " more\n";
  }
  return report;
}

Status Device::CheckNoLeaks() const {
  if (allocations_.empty()) return Status::OK();
  return Status::Internal("leaked simulated device memory: " + LeakReport());
}

Status Device::Reset() {
  if (!allocations_.empty()) {
    return Status::Internal("Device::Reset with live allocations: " +
                            LeakReport());
  }
  assert(!in_kernel_ && "Device::Reset inside a kernel");
  engine_.ResetMemoryState();
  memory_stats_ = MemoryStats{};
  next_addr_ = 4096;
  elapsed_cycles_ = 0;
  fault_ = FaultInjector();
  fault_status_ = Status::OK();
  kernel_watchdog_cycles_ = 0;
  watchdog_trips_ = 0;
  lifecycle_ = nullptr;
  alloc_tag_stack_.clear();
  kernels_launched_ = 0;
  ResetStats();
  return Status::OK();
}

void Device::BeginKernel(const char* name) {
  assert(!in_kernel_ && "kernels do not nest");
  PreemptIfDue(/*launching_kernel=*/true);
  in_kernel_ = true;
  ++kernels_launched_;
  kernel_name_ = name;
  engine_.stats = KernelStats{};
  kernel_parallel_wall_ = 0;
  kernel_parallel_cpu_ = 0;
  if (lifecycle_ != nullptr) lifecycle_->OnKernelLaunch(elapsed_cycles_);
  if (observer_ != nullptr) observer_->OnKernelBegin(*this, name);
  kernel_host_start_ = std::chrono::steady_clock::now();
}

const KernelStats& Device::EndKernel() {
  assert(in_kernel_);
  in_kernel_ = false;
  KernelStats& current = engine_.stats;
  // Cost model (see DeviceConfig docs): compute and memory pipes overlap.
  const double issue_work =
      static_cast<double>(current.warp_instructions) +
      static_cast<double>(current.transactions) +
      static_cast<double>(current.shared_accesses) +
      static_cast<double>(current.atomic_serializations);
  current.compute_cycles = issue_work / static_cast<double>(config_.num_sms) +
                           current.serial_cycles;
  const double dram_bytes =
      static_cast<double>(current.dram_sectors) * config_.sector_bytes +
      static_cast<double>(current.dram_row_misses) * config_.dram_row_penalty_bytes;
  const double l2_bytes =
      static_cast<double>(current.l2_hit_sectors) * config_.sector_bytes;
  current.memory_cycles = dram_bytes / config_.dram_bytes_per_cycle() +
                          l2_bytes / config_.l2_bytes_per_cycle();
  current.cycles = std::max(current.compute_cycles, current.memory_cycles) +
                   config_.launch_overhead_cycles;
  elapsed_cycles_ += current.cycles;
  last_kernel_ = current;
  total_.Add(current);
  // Transient-fault evaluation: the kernel's cost is now known and the
  // launch counter identifies it, so both decisions are pure functions of
  // (injector state, kernel index, derived cycles) — bit-identical on
  // replay and at any host fan-out. First fault sticks; later kernels on a
  // not-yet-unwound query keep the original diagnosis.
  if (fault_.kernel_mode() && fault_.ShouldFailKernel() &&
      fault_status_.ok()) {
    fault_status_ = Status::Unavailable(
        "kernel_fault: injected (" + fault_.ToString() + ") at kernel #" +
        std::to_string(kernels_launched_) + " '" + kernel_name_ + "'");
  }
  if (kernel_watchdog_cycles_ > 0 && current.cycles > kernel_watchdog_cycles_ &&
      fault_status_.ok()) {
    ++watchdog_trips_;
    fault_status_ = Status::Unavailable(
        "watchdog_timeout: kernel #" + std::to_string(kernels_launched_) +
        " '" + kernel_name_ + "' ran " + std::to_string(current.cycles) +
        " cycles > watchdog budget " +
        std::to_string(kernel_watchdog_cycles_));
  }
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    kernel_host_start_)
          .count();
  // CPU-summed time: the bracket's wall time with each ParallelBlocks
  // window replaced by the CPU its workers actually burned. Equal to wall
  // under the inline path; under the parallel path, wall < cpu shows the
  // realized fan-out.
  const double cpu_seconds = std::max(
      0.0, host_seconds - kernel_parallel_wall_ + kernel_parallel_cpu_);
  host_kernel_seconds_ += host_seconds;
  host_kernel_cpu_seconds_ += cpu_seconds;
  profiler_.Record(kernel_name_, current, host_seconds);
  SimSelfProfile& g = MutableGlobalSimSelfProfile();
  g.host_seconds += host_seconds;
  g.host_cpu_seconds += cpu_seconds;
  g.sim_cycles += current.cycles;
  ++g.kernels;
  if (observer_ != nullptr) {
    observer_->OnKernelEnd(*this, kernel_name_, last_kernel_, host_seconds);
  }
  if (lifecycle_ != nullptr) lifecycle_->OnClockAdvance(elapsed_cycles_);
  return last_kernel_;
}

void Device::ResetStats() {
  total_ = KernelStats{};
  last_kernel_ = KernelStats{};
  profiler_.Clear();
  host_kernel_seconds_ = 0;
  host_kernel_cpu_seconds_ = 0;
}

void Device::Load(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane) {
  assert(in_kernel_ && "memory access outside of a kernel");
  engine_.AccessWarp(lane_addrs, bytes_per_lane, /*is_store=*/false);
}

void Device::Store(std::span<const uint64_t> lane_addrs, uint32_t bytes_per_lane) {
  assert(in_kernel_ && "memory access outside of a kernel");
  engine_.AccessWarp(lane_addrs, bytes_per_lane, /*is_store=*/true);
}

void Device::AccessRun(uint64_t base_addr, uint64_t count, uint32_t elem_bytes,
                       bool is_store) {
  assert(in_kernel_ && "memory access outside of a kernel");
  engine_.AccessRun(base_addr, count, elem_bytes, is_store);
}

void Device::LoadSeq(uint64_t base_addr, uint64_t count, uint32_t elem_bytes) {
  AccessRun(base_addr, count, elem_bytes, /*is_store=*/false);
}

void Device::StoreSeq(uint64_t base_addr, uint64_t count, uint32_t elem_bytes) {
  AccessRun(base_addr, count, elem_bytes, /*is_store=*/true);
}

void Device::SharedAccess(uint64_t count) {
  assert(in_kernel_);
  engine_.SharedAccess(count);
}

void Device::SharedAtomic(std::span<const uint32_t> lane_slots) {
  assert(in_kernel_);
  engine_.SharedAtomic(lane_slots);
}

void Device::GlobalAtomic(std::span<const uint64_t> lane_addrs,
                          uint32_t bytes_per_lane) {
  assert(in_kernel_);
  engine_.GlobalAtomic(lane_addrs, bytes_per_lane);
}

void Device::Compute(uint64_t count) {
  assert(in_kernel_);
  engine_.Compute(count);
}

void Device::SerialStall(double cycles) {
  assert(in_kernel_);
  engine_.SerialStall(cycles);
}

void Device::MergeBlockOutcome(const KernelStats& block_stats,
                               const std::vector<uint64_t>& l2_sectors,
                               const std::vector<uint64_t>& dram_rows,
                               const Status& block_status,
                               Status* first_error) {
  engine_.stats.Add(block_stats);
  // Replay the shard's resident state into the device models, LRU first, so
  // the post-kernel device state is a deterministic function of the block
  // outcomes alone. Installs are silent: the block already paid for these.
  for (uint64_t sector : l2_sectors) engine_.InstallL2Sector(sector);
  for (uint64_t row : dram_rows) engine_.InstallDramRow(row);
  if (first_error->ok() && !block_status.ok()) *first_error = block_status;
}

Status Device::ParallelBlocks(uint64_t num_blocks, const BlockFn& fn) {
  assert(in_kernel_ && "ParallelBlocks outside of a kernel");
  if (num_blocks == 0) return Status::OK();
  Status first_error = Status::OK();
  if (sim_threads_ <= 1) {
    // Inline path: identical per-block loop and merge, on this thread.
    if (seq_ctx_ == nullptr) {
      seq_ctx_ = std::make_unique<BlockContext>(config_);
    }
    for (uint64_t block = 0; block < num_blocks; ++block) {
      seq_ctx_->BeginBlock(block, engine_.fast_path_enabled);
      const Status st = fn(block, *seq_ctx_);
      MergeBlockOutcome(seq_ctx_->engine().stats,
                        seq_ctx_->engine().ResidentL2SectorsByLru(),
                        seq_ctx_->engine().OpenDramRowsByLru(), st,
                        &first_error);
    }
    return first_error;
  }
  if (pool_ == nullptr || pool_->threads() != sim_threads_) {
    pool_ = std::make_unique<ParallelPool>(config_, sim_threads_);
  }
  const auto wall0 = std::chrono::steady_clock::now();
  double cpu_seconds = 0;
  first_error = pool_->Run(
      num_blocks, fn, engine_.fast_path_enabled,
      [&](const ParallelPool::BlockOutcome& out) {
        Status sink = Status::OK();  // Run() tracks the first error itself.
        MergeBlockOutcome(out.stats, out.l2_sectors, out.dram_rows, out.status,
                          &sink);
      },
      &cpu_seconds);
  kernel_parallel_wall_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();
  kernel_parallel_cpu_ += cpu_seconds;
  return first_error;
}

void Device::set_parallel_sim(int threads) {
  threads = std::max(1, threads);
  if (threads == sim_threads_) return;
  assert(!in_kernel_ && "set_parallel_sim inside a kernel");
  sim_threads_ = threads;
  pool_.reset();  // Lazily recreated at the new size on first use.
}

void Device::PreemptIfDue(bool launching_kernel) {
  LifecycleControl* control = lifecycle_;
  if (control == nullptr ||
      !control->PreemptDue(elapsed_cycles_, launching_kernel)) {
    return;
  }
  std::vector<std::string> tags = std::move(alloc_tag_stack_);
  alloc_tag_stack_.clear();
  Status pending_fault = std::move(fault_status_);
  fault_status_ = Status::OK();
  lifecycle_ = nullptr;
  control->RunPreemptHook();
  lifecycle_ = control;
  fault_status_ = std::move(pending_fault);
  alloc_tag_stack_ = std::move(tags);
}

void Device::AdvanceInterruptible(double cycles, const TransferDirection* dir,
                                  uint64_t bytes) {
  assert(!in_kernel_ && "clock advance inside a kernel");
  PreemptIfDue(/*launching_kernel=*/false);
  const double bytes_per_cycle = config_.pcie_gbps / config_.clock_ghz;
  // Bytes moved `c` cycles into the transfer: none during the latency.
  const auto moved_by = [&](double c) {
    const double b = (c - config_.pcie_latency_cycles) * bytes_per_cycle;
    return b <= 0 ? uint64_t{0}
                  : std::min(bytes, static_cast<uint64_t>(b));
  };
  double charged = 0;
  uint64_t moved = 0;
  for (;;) {
    const double at =
        lifecycle_ != nullptr ? lifecycle_->preempt_at_cycles()
                              : std::numeric_limits<double>::infinity();
    const bool split = at > elapsed_cycles_ &&
                       at < elapsed_cycles_ + (cycles - charged) &&
                       lifecycle_->PreemptDue(at, false);
    const double piece = split ? at - elapsed_cycles_ : cycles - charged;
    const uint64_t piece_bytes =
        split ? moved_by(charged + piece) - moved : bytes - moved;
    if (dir != nullptr && observer_ != nullptr) {
      observer_->OnTransferBegin(*this, *dir, piece_bytes);
    }
    // Unsplit, this is exactly `elapsed += cycles`; a split lands on the
    // armed cycle itself, so the hook is due.
    if (split) {
      elapsed_cycles_ = at;
    } else if (piece > 0) {
      elapsed_cycles_ += piece;
    }
    if (dir != nullptr && observer_ != nullptr) {
      observer_->OnTransferEnd(*this, *dir, piece_bytes);
    }
    if (lifecycle_ != nullptr) lifecycle_->OnClockAdvance(elapsed_cycles_);
    if (!split) return;
    charged += piece;
    moved += piece_bytes;
    PreemptIfDue(/*launching_kernel=*/false);
  }
}

void Device::ChargeHostTransfer(TransferDirection dir, uint64_t bytes) {
  const double bytes_per_cycle = config_.pcie_gbps / config_.clock_ghz;
  AdvanceInterruptible(static_cast<double>(bytes) / bytes_per_cycle +
                           config_.pcie_latency_cycles,
                       &dir, bytes);
}

void Device::AdvanceClock(double cycles) {
  AdvanceInterruptible(cycles, nullptr, 0);
}

}  // namespace gpujoin::vgpu
