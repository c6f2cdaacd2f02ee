// Out-of-core join edge cases: option validation boundaries, minimum-
// capacity devices, and fragment_bits auto-derivation under pathological
// skew. Failure must always be a clean Status with zero leaked bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "join/out_of_core.h"
#include "join/reference.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "workload/generator.h"

namespace gpujoin::join {
namespace {

using ::gpujoin::testing::MakeTestDevice;

workload::JoinWorkload SmallWorkload(uint64_t seed = 3) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 9;
  spec.s_rows = 1 << 10;
  spec.seed = seed;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

/// An S relation whose every foreign key is the same R key: the worst
/// possible radix skew (one fragment holds all of S).
workload::JoinWorkload AllSameKeyWorkload(uint64_t s_rows) {
  workload::JoinWorkload w = SmallWorkload();
  for (auto& v : w.s.columns[0].values) v = w.r.columns[0].values[0];
  w.s.columns[0].values.resize(s_rows, w.r.columns[0].values[0]);
  w.s.columns[1].values.resize(s_rows, 17);
  return w;
}

TEST(OutOfCoreValidationTest, BudgetFractionBoundaries) {
  const workload::JoinWorkload w = SmallWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);

  OutOfCoreOptions opts;
  for (const double bad : {0.0, -0.25, 1.0001, 2.0}) {
    opts.device_budget_fraction = bad;
    Result<OutOfCoreRunResult> res =
        RunOutOfCoreJoin(device, JoinAlgo::kPhjOm, w.r, w.s, opts);
    ASSERT_FALSE(res.ok()) << "budget fraction " << bad;
    EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  }

  // Exactly 1.0 is the inclusive upper boundary: valid.
  opts.device_budget_fraction = 1.0;
  ASSERT_OK_AND_ASSIGN(OutOfCoreRunResult res, RunOutOfCoreJoin(
      device, JoinAlgo::kPhjOm, w.r, w.s, opts));
  EXPECT_EQ(CanonicalRows(res.output), ReferenceJoinRows(w.r, w.s));
}

TEST(OutOfCoreValidationTest, FragmentBitsUpperBound) {
  const workload::JoinWorkload w = SmallWorkload();
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);

  OutOfCoreOptions opts;
  opts.fragment_bits = 21;  // > 20: rejected.
  Result<OutOfCoreRunResult> res =
      RunOutOfCoreJoin(device, JoinAlgo::kSmjUm, w.r, w.s, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);

  opts.fragment_bits = 6;  // Well-formed explicit value.
  ASSERT_OK_AND_ASSIGN(OutOfCoreRunResult ok_res, RunOutOfCoreJoin(
      device, JoinAlgo::kSmjUm, w.r, w.s, opts));
  EXPECT_EQ(ok_res.fragments, 64);
  EXPECT_EQ(CanonicalRows(ok_res.output), ReferenceJoinRows(w.r, w.s));
}

TEST(OutOfCoreValidationTest, EmptyInputsRejected) {
  const workload::JoinWorkload w = SmallWorkload();
  vgpu::Device device = MakeTestDevice();
  HostTable empty;
  EXPECT_EQ(RunOutOfCoreJoin(device, JoinAlgo::kPhjOm, empty, w.s)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RunOutOfCoreJoin(device, JoinAlgo::kPhjOm, w.r, empty)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DeriveFragmentBitsTest, MatchesBudgetPolicy) {
  const workload::JoinWorkload w = SmallWorkload();
  vgpu::Device device = MakeTestDevice();
  // The out-of-core stream's policy: [1, 16] bits against a fraction of the
  // device memory.
  const auto bits_for = [&](double frac) {
    return DeriveFragmentBits(
        w.r.device_bytes() + w.s.device_bytes(),
        static_cast<double>(device.config().global_mem_bytes) * frac, 1, 16);
  };
  // Tiny inputs against a test device: one doubling suffices.
  EXPECT_EQ(bits_for(1.0), 1);
  // Shrinking the budget monotonically raises the derived bits.
  int prev = 0;
  for (const double frac : {1.0, 0.1, 0.01, 0.001}) {
    const int bits = bits_for(frac);
    EXPECT_GE(bits, prev);
    EXPECT_GE(bits, 1);
    EXPECT_LE(bits, 16);
    prev = bits;
  }
  // Budget so small the cap binds.
  EXPECT_EQ(bits_for(1e-12), 16);
}

TEST(DeriveFragmentBitsTest, ReproducesTheStreamAndSchedulerPolicies) {
  // The two policies the single function replaced, as they were written.
  const auto stream_policy = [](uint64_t total, uint64_t mem, double frac) {
    const double budget = static_cast<double>(mem) * frac;
    int bits = 1;
    while (bits < 16 &&
           static_cast<double>(total) / static_cast<double>(1u << bits) >
               budget) {
      ++bits;
    }
    return bits;
  };
  const auto schedule_policy = [](uint64_t need, uint64_t budget, double frac,
                                  int max_bits) {
    if (max_bits <= 0 || frac <= 0 || budget == 0) return 0;
    const double target = static_cast<double>(budget) * frac;
    int bits = 0;
    while (bits < max_bits &&
           static_cast<double>(need) / static_cast<double>(1u << bits) >
               target) {
      ++bits;
    }
    return bits;
  };
  const uint64_t sizes[] = {0,         1,          255,          1000,
                            4096,      (1u << 20) + 7, uint64_t{3} << 28,
                            uint64_t{1} << 40};
  for (const uint64_t bytes : sizes) {
    for (const uint64_t budget : sizes) {
      for (const double frac : {0.0, 0.001, 0.2, 0.25, 0.5, 1.0}) {
        SCOPED_TRACE(std::to_string(bytes) + " B, budget " +
                     std::to_string(budget) + " x " + std::to_string(frac));
        const double scaled = static_cast<double>(budget) * frac;
        if (budget > 0 && frac > 0) {
          EXPECT_EQ(DeriveFragmentBits(bytes, scaled, 1, 16),
                    stream_policy(bytes, budget, frac));
        }
        for (const int max_bits : {0, 1, 6}) {
          EXPECT_EQ(DeriveFragmentBits(bytes, scaled, 0, max_bits),
                    schedule_policy(bytes, budget, frac, max_bits));
        }
      }
    }
  }
}

TEST(OutOfCoreMinCapacityTest, BarelySufficientDeviceCompletes) {
  // Inputs several times the device capacity; fragmentation must carry the
  // join to the exact result.
  workload::JoinWorkloadSpec spec;
  spec.r_rows = 1 << 10;
  spec.s_rows = 1 << 11;
  spec.key_type = DataType::kInt64;
  spec.r_payload_type = DataType::kInt64;
  spec.s_payload_type = DataType::kInt64;
  spec.seed = 13;
  const workload::JoinWorkload w =
      workload::GenerateJoinInput(spec).ValueOrDie();

  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  cfg.global_mem_bytes = 24 * 1024;  // Inputs are ~48 KiB.
  vgpu::Device device(cfg);
  testing::ScopedLeakCheck leak_check(device);

  ASSERT_OK_AND_ASSIGN(OutOfCoreRunResult res, RunOutOfCoreJoin(
      device, JoinAlgo::kSmjOm, w.r, w.s, {}));
  EXPECT_GT(res.fragments, 1);
  EXPECT_GT(res.bytes_transferred, 0u);
  EXPECT_EQ(CanonicalRows(res.output), ReferenceJoinRows(w.r, w.s));
}

TEST(OutOfCoreMinCapacityTest, HopelessDeviceFailsCleanly) {
  const workload::JoinWorkload w = SmallWorkload();
  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  cfg.global_mem_bytes = 1024;
  vgpu::Device device(cfg);
  testing::ScopedLeakCheck leak_check(device);

  // Pin fragment_bits so each fragment pair (~6 KiB) exceeds the 1 KiB
  // device; auto-derivation would split finer and succeed.
  OutOfCoreOptions opts;
  opts.fragment_bits = 1;
  Result<OutOfCoreRunResult> res =
      RunOutOfCoreJoin(device, JoinAlgo::kPhjOm, w.r, w.s, opts);
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(OutOfCoreSkewTest, AllSameKeyStillCorrectWhenItFits) {
  // Derivation splits on the AVERAGE fragment size; with every S key equal,
  // one fragment holds all of S. On a device that can still absorb that
  // fragment the join must remain exact.
  const workload::JoinWorkload w = AllSameKeyWorkload(1 << 10);
  vgpu::Device device = MakeTestDevice();
  testing::ScopedLeakCheck leak_check(device);

  OutOfCoreOptions opts;
  opts.device_budget_fraction = 0.5;
  ASSERT_OK_AND_ASSIGN(OutOfCoreRunResult res, RunOutOfCoreJoin(
      device, JoinAlgo::kSmjUm, w.r, w.s, opts));
  EXPECT_EQ(res.output_rows, uint64_t{1} << 10);
  EXPECT_EQ(CanonicalRows(res.output), ReferenceJoinRows(w.r, w.s));
}

TEST(OutOfCoreSkewTest, AllSameKeyOverflowFailsCleanly) {
  // Same skew against a device the hot fragment cannot fit: fragmentation
  // cannot help (more bits never split equal keys), so the run must fail
  // with a clean resource error and zero leaks — never crash or hang.
  const workload::JoinWorkload w = AllSameKeyWorkload(1 << 12);
  vgpu::DeviceConfig cfg = vgpu::DeviceConfig::ScaledToWorkload(
      vgpu::DeviceConfig::A100(), uint64_t{1} << 16);
  cfg.global_mem_bytes = 16 * 1024;
  vgpu::Device device(cfg);
  testing::ScopedLeakCheck leak_check(device);

  Result<OutOfCoreRunResult> res =
      RunOutOfCoreJoin(device, JoinAlgo::kSmjOm, w.r, w.s, {});
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted)
      << res.status().ToString();
  ASSERT_OK(device.CheckNoLeaks());
}

}  // namespace
}  // namespace gpujoin::join
