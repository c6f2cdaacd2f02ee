// Kernel lifecycle observer — the hook the observability layer (src/obs)
// attaches to a Device to see every BeginKernel/EndKernel and every host
// transfer without the simulator depending on it.
//
// Contract: observers are READ-ONLY with respect to simulated state. They
// may snapshot the device clock, counters, and memory stats, but must not
// charge cycles, allocate device memory, or otherwise perturb the
// simulation — tracing on/off must leave simulated results bit-identical
// (enforced by obs_determinism_test.cc).

#ifndef GPUJOIN_VGPU_OBSERVER_H_
#define GPUJOIN_VGPU_OBSERVER_H_

#include <cstdint>

namespace gpujoin::vgpu {

class Device;
struct KernelStats;

/// Direction of a host <-> device transfer over the PCIe model.
enum class TransferDirection { kHostToDevice, kDeviceToHost };

/// "h2d" / "d2h".
inline const char* TransferDirectionName(TransferDirection dir) {
  return dir == TransferDirection::kHostToDevice ? "h2d" : "d2h";
}

class KernelObserver {
 public:
  virtual ~KernelObserver() = default;

  /// Called by Device::BeginKernel after the kernel bracket opens (the
  /// simulated clock still reads the pre-kernel time).
  virtual void OnKernelBegin(const Device& device, const char* name) = 0;

  /// Called by Device::EndKernel after cycles are derived and the clock
  /// advanced. `stats` are the finished kernel's counters; `host_seconds`
  /// is the host wall-clock spent simulating it.
  virtual void OnKernelEnd(const Device& device, const char* name,
                           const KernelStats& stats, double host_seconds) = 0;

  /// Bracket one uninterrupted piece of Device::ChargeHostTransfer: Begin
  /// sees the clock before the piece is charged, End after. A transfer
  /// that a preemption interrupts is reported as two pieces, one on each
  /// side of the nested work; `bytes` is the piece's share, so the pieces
  /// of one transfer sum to its size.
  virtual void OnTransferBegin(const Device& /*device*/,
                               TransferDirection /*dir*/,
                               uint64_t /*bytes*/) {}
  virtual void OnTransferEnd(const Device& /*device*/,
                             TransferDirection /*dir*/, uint64_t /*bytes*/) {}
};

}  // namespace gpujoin::vgpu

#endif  // GPUJOIN_VGPU_OBSERVER_H_
