#include "bench.h"

#include <algorithm>

#include "harness/harness.h"
#include "vgpu/device_config.h"

namespace perfbench {

namespace vgpu = gpujoin::vgpu;

KernelTable SnapshotKernels(const std::vector<vgpu::Device*>& devices) {
  KernelTable table;
  for (const vgpu::Device* d : devices) {
    for (const vgpu::KernelProfile& p : d->profiler().Profiles()) {
      KernelTotals& t = table[p.name];
      t.host_s += p.host_seconds;
      t.cycles += p.stats.cycles;
      t.invocations += p.invocations;
    }
  }
  return table;
}

KernelTable KernelDelta(const KernelTable& after, const KernelTable& before) {
  KernelTable delta;
  for (const auto& [name, a] : after) {
    KernelTotals d = a;
    if (auto it = before.find(name); it != before.end()) {
      d.host_s -= it->second.host_s;
      d.cycles -= it->second.cycles;
      d.invocations -= it->second.invocations;
    }
    if (d.invocations > 0) delta[name] = d;
  }
  return delta;
}

std::unique_ptr<vgpu::Device> NewDevice() {
  return std::make_unique<vgpu::Device>(
      vgpu::DeviceConfig::ScaledToWorkload(gpujoin::harness::BaseDeviceConfig(),
                                           gpujoin::harness::ScaleTuples()),
      vgpu::FaultInjector{}, nullptr, gpujoin::harness::SimThreadsFromEnv());
}

Meter::Probe Meter::Take(const vgpu::Device* device) {
  Probe p;
  const vgpu::SimSelfProfile& g = vgpu::GlobalSimSelfProfile();
  p.kernel_host = g.host_seconds;
  p.kernel_cpu = g.host_cpu_seconds;
  p.kernels = g.kernels;
  if (device != nullptr) {
    p.cycles = device->elapsed_cycles();
    p.stats = device->total_stats();
  }
  p.wall = WallSeconds();
  return p;
}

void Meter::Record(const std::string& layer, const Probe& before,
                   const Probe& after, const vgpu::Device* device,
                   CallCost* cost) {
  const double wall = after.wall - before.wall;
  const double kernel_host = after.kernel_host - before.kernel_host;
  acc_[layer + ".call_host_s"] += wall;
  acc_[layer + ".kernel_host_s"] += kernel_host;
  acc_["vgpu.kernel_host_s"] += kernel_host;
  acc_["vgpu.kernel_cpu_s"] += after.kernel_cpu - before.kernel_cpu;
  acc_["vgpu.kernels"] += static_cast<double>(after.kernels - before.kernels);
  if (cost == nullptr) return;
  cost->wall_s = wall;
  if (device != nullptr) {
    cost->sim_cycles = after.cycles - before.cycles;
    cost->stats = after.stats;
    cost->stats.Sub(before.stats);
  }
}

RowDigest CheckedDigest(Meter& meter, const gpujoin::HostTable& t) {
  const double t0 = WallSeconds();
  RowDigest d = DigestTable(t);
  meter.acc()["bench.check_s"] += WallSeconds() - t0;
  return d;
}

double ClockHz(const vgpu::Device& device) {
  return device.config().clock_ghz * 1e9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::pair<double, double> Tail(std::vector<double> v) {
  if (v.empty()) return {0, 0};
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  if (n <= 10) return {v.back(), 100.0};
  return {v[n - 11], 100.0 * static_cast<double>(n - 10) / static_cast<double>(n)};
}

}  // namespace perfbench
