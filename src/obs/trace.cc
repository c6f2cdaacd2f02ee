#include "obs/trace.h"

#include <algorithm>
#include <map>

namespace gpujoin::obs {

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

double Tracer::HostNow() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int32_t Tracer::DeviceId(const vgpu::Device& device) {
  const auto it = device_ids_.find(&device);
  return it == device_ids_.end() ? 0 : it->second;
}

void Tracer::Attach(vgpu::Device& device) {
  if (device.kernel_observer() == this) return;
  device.set_kernel_observer(this);
  device_ids_.emplace(&device,
                      static_cast<int32_t>(device_ids_.size()));
}

int32_t Tracer::OpenSpan(const vgpu::Device& device, std::string category,
                         std::string name) {
  SpanRecord span;
  span.id = static_cast<int32_t>(spans_.size());
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.depth = static_cast<int32_t>(stack_.size());
  span.device_id = DeviceId(device);
  span.category = std::move(category);
  span.name = std::move(name);
  span.start_cycles = device.elapsed_cycles();
  span.start_seconds = device.ElapsedSeconds();
  span.host_start_s = HostNow();
  span.stats = device.total_stats();  // Snapshot; turned into a delta on close.
  span.live_bytes_start = device.memory_stats().live_bytes;
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::CloseSpan(const vgpu::Device& device, int32_t id) {
  if (id < 0 || id >= static_cast<int32_t>(spans_.size())) return;
  // Tolerate a Clear() between open and close: the id must still be open.
  const auto it = std::find(stack_.begin(), stack_.end(), id);
  if (it == stack_.end()) return;
  // Error paths can unwind several scopes at once; anything opened after
  // `id` that is still on the stack closes with it.
  while (!stack_.empty()) {
    const int32_t top = stack_.back();
    stack_.pop_back();
    SpanRecord& span = spans_[top];
    span.closed = true;
    span.end_cycles = device.elapsed_cycles();
    span.end_seconds = device.ElapsedSeconds();
    span.host_end_s = HostNow();
    vgpu::KernelStats delta = device.total_stats();
    delta.Sub(span.stats);
    span.stats = delta;
    span.live_bytes_end = device.memory_stats().live_bytes;
    span.peak_bytes_end = device.memory_stats().peak_bytes;
    if (span.category != "kernel" && span.category != "transfer") {
      // Allocation-tag watermark: live bytes by tag at close, largest
      // first (capped — leak-style listings belong to LeakReport()).
      std::map<std::string, uint64_t> by_tag;
      for (const vgpu::AllocationRecord& a : device.OutstandingAllocations()) {
        by_tag[a.tag] += a.bytes;
      }
      std::vector<std::pair<std::string, uint64_t>> tags(by_tag.begin(),
                                                         by_tag.end());
      std::sort(tags.begin(), tags.end(), [](const auto& a, const auto& b) {
        return a.second > b.second;
      });
      constexpr size_t kMaxTags = 4;
      for (size_t i = 0; i < tags.size() && i < kMaxTags; ++i) {
        span.attrs.emplace_back("mem:" + tags[i].first,
                                std::to_string(tags[i].second));
      }
    }
    if (top == id) break;
  }
}

void Tracer::AnnotateSpan(int32_t id, std::string key, std::string value) {
  if (id < 0 || id >= static_cast<int32_t>(spans_.size())) return;
  spans_[id].attrs.emplace_back(std::move(key), std::move(value));
}

void Tracer::AddEvent(const vgpu::Device& device, std::string name,
                      std::string detail) {
  EventRecord ev;
  ev.parent = stack_.empty() ? -1 : stack_.back();
  ev.device_id = DeviceId(device);
  ev.name = std::move(name);
  ev.detail = std::move(detail);
  ev.at_cycles = device.elapsed_cycles();
  ev.at_seconds = device.ElapsedSeconds();
  events_.push_back(std::move(ev));
}

void Tracer::OnKernelBegin(const vgpu::Device& device, const char* name) {
  if (!enabled_) return;
  open_kernel_ = OpenSpan(device, "kernel", name);
}

void Tracer::OnKernelEnd(const vgpu::Device& device, const char* name,
                         const vgpu::KernelStats& stats,
                         double host_seconds) {
  (void)name;
  (void)host_seconds;
  if (!enabled_ || open_kernel_ < 0) return;
  const int32_t id = open_kernel_;
  open_kernel_ = -1;
  CloseSpan(device, id);
  // The delta mechanism already equals this kernel's stats (total_stats
  // advanced by exactly `stats` between Begin and End); keep the exact
  // per-kernel record anyway for robustness.
  if (id < static_cast<int32_t>(spans_.size())) spans_[id].stats = stats;
}

void Tracer::OnTransferBegin(const vgpu::Device& device,
                             vgpu::TransferDirection dir, uint64_t bytes) {
  if (!enabled_) return;
  open_transfer_ = OpenSpan(device, "transfer", TransferDirectionName(dir));
  AnnotateSpan(open_transfer_, "bytes", std::to_string(bytes));
}

void Tracer::OnTransferEnd(const vgpu::Device& device,
                           vgpu::TransferDirection /*dir*/,
                           uint64_t /*bytes*/) {
  if (!enabled_ || open_transfer_ < 0) return;
  CloseSpan(device, open_transfer_);
  open_transfer_ = -1;
}

Tracer::SuspendedStack Tracer::Suspend(const vgpu::Device& device) {
  SuspendedStack s;
  s.stack = std::move(stack_);
  stack_.clear();
  s.start_cycles = device.elapsed_cycles();
  s.stats = device.total_stats();
  return s;
}

void Tracer::Resume(const vgpu::Device& device, SuspendedStack suspended) {
  const double nested = device.elapsed_cycles() - suspended.start_cycles;
  vgpu::KernelStats nested_stats = device.total_stats();
  nested_stats.Sub(suspended.stats);
  for (const int32_t id : suspended.stack) {
    if (id < 0 || id >= static_cast<int32_t>(spans_.size())) continue;
    spans_[id].nested_cycles += nested;
    // The open snapshot moves forward by the nested work, so the delta
    // taken at close covers the span's own kernels only.
    spans_[id].stats.Add(nested_stats);
  }
  stack_ = std::move(suspended.stack);
}

void Tracer::Clear() {
  spans_.clear();
  events_.clear();
  stack_.clear();
  open_kernel_ = -1;
  open_transfer_ = -1;
  epoch_ = std::chrono::steady_clock::now();
}

}  // namespace gpujoin::obs
