// Service backend resolution, cell by cell: a forced or automatic backend
// choice × which backends are quarantined × whether cpux can run the input
// at all. Every cell drains one single-fragment join and checks the backend
// that ran it, the outcome's backend label, and the hedge decisions the
// service metered. The router owns every rule exercised here: a quarantined
// choice hedges to the survivor unless the survivor is quarantined too or
// cannot run the input (cpux runs no string columns).

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "ops/operator.h"
#include "service/query_service.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"

namespace gpujoin::service {
namespace {

using ::gpujoin::testing::MakeTestDevice;

/// R(k int32, p): 64 rows, keys 0..63; `p` is a string column when
/// `strings` is set, an int64 column otherwise.
HostTable BuildSide(bool strings) {
  HostTable r;
  r.name = "r";
  HostColumn key{"k", DataType::kInt32, {}, {}};
  HostColumn pay{"p", strings ? DataType::kInt32 : DataType::kInt64, {}, {}};
  for (int64_t i = 0; i < 64; ++i) {
    key.values.push_back(i);
    if (strings) {
      pay.strings.push_back("name_" + std::to_string((i * 37) % 11));
    } else {
      pay.values.push_back(100 + i);
    }
  }
  r.columns = {std::move(key), std::move(pay)};
  return r;
}

/// S(k int32, v int64): 128 rows over R's keys.
HostTable ProbeSide() {
  HostTable s;
  s.name = "s";
  HostColumn key{"k", DataType::kInt32, {}, {}};
  HostColumn v{"v", DataType::kInt64, {}, {}};
  for (int64_t i = 0; i < 128; ++i) {
    key.values.push_back((i * 29) % 64);
    v.values.push_back(1000 + i);
  }
  s.columns = {std::move(key), std::move(v)};
  return s;
}

struct Cell {
  std::optional<ops::Backend> force;  // Unset: the service default, kAuto.
  bool vgpu_quarantined;
  bool cpux_quarantined;
  bool strings;
  // Expectations.
  ops::Backend ran_on;
  std::string label;
  uint64_t hedges;
  bool ok;  // Forced cpux over strings fails: cpux runs no string column.
};

std::string CellName(const Cell& c) {
  std::string name = c.force ? ops::BackendName(*c.force) : "unset";
  name += c.vgpu_quarantined ? " q:vgpu" : "";
  name += c.cpux_quarantined ? " q:cpux" : "";
  name += c.strings ? " strings" : " ints";
  return name;
}

TEST(ServiceRoutingTest, ForcedAndAutoAcrossQuarantineAndEligibility) {
  constexpr ops::Backend kV = ops::Backend::kVgpu;
  constexpr ops::Backend kC = ops::Backend::kCpux;
  constexpr std::optional<ops::Backend> kAuto = std::nullopt;
  // A 64 ⋈ 128 join is far below the crossover, so the cost model picks
  // cpux whenever cpux can run it.
  const std::vector<Cell> cells = {
      // force   q:vgpu q:cpux strings  ran  label         hedges ok
      {kV,       false, false, false,   kV, "vgpu",       0, true},
      {kV,       true,  false, false,   kC, "hedge:cpux", 1, true},
      {kV,       false, true,  false,   kV, "vgpu",       0, true},
      {kV,       true,  true,  false,   kV, "vgpu",       0, true},
      {kC,       false, false, false,   kC, "cpux",       0, true},
      {kC,       true,  false, false,   kC, "cpux",       0, true},
      {kC,       false, true,  false,   kV, "hedge:vgpu", 1, true},
      {kC,       true,  true,  false,   kC, "cpux",       0, true},
      {kAuto,    false, false, false,   kC, "auto:cpux",  0, true},
      {kAuto,    true,  false, false,   kC, "auto:cpux",  0, true},
      {kAuto,    false, true,  false,   kV, "hedge:vgpu", 1, true},
      {kAuto,    true,  true,  false,   kC, "auto:cpux",  0, true},
      {kV,       false, false, true,    kV, "vgpu",       0, true},
      {kV,       true,  false, true,    kV, "vgpu",       0, true},
      {kV,       false, true,  true,    kV, "vgpu",       0, true},
      {kV,       true,  true,  true,    kV, "vgpu",       0, true},
      {kC,       false, false, true,    kC, "cpux",       0, false},
      {kC,       true,  false, true,    kC, "cpux",       0, false},
      {kC,       false, true,  true,    kV, "hedge:vgpu", 1, true},
      {kC,       true,  true,  true,    kC, "cpux",       0, false},
      {kAuto,    false, false, true,    kV, "auto:vgpu",  0, true},
      {kAuto,    true,  false, true,    kV, "auto:vgpu",  0, true},
      {kAuto,    false, true,  true,    kV, "auto:vgpu",  0, true},
      {kAuto,    true,  true,  true,    kV, "auto:vgpu",  0, true},
  };

  const HostTable s = ProbeSide();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  for (const Cell& c : cells) {
    SCOPED_TRACE(CellName(c));
    const HostTable r = BuildSide(c.strings);
    vgpu::Device device = MakeTestDevice();
    ServiceOptions options;
    options.default_backend = ops::Backend::kAuto;
    options.breaker.trip_threshold = 1;
    options.breaker.probe_after_cycles = 1e12;  // Stays open all drain.
    QueryService service(device, options);
    // The service exposes its health model read-only, and no cpux fault
    // reaches a breaker (cpux faults are allocation failures, which fall
    // back to vgpu), so the test trips the breakers directly.
    BackendHealth& health = const_cast<BackendHealth&>(service.health());
    if (c.vgpu_quarantined) health.RecordFailure(kV, "kernel_fault", 0);
    if (c.cpux_quarantined) health.RecordFailure(kC, "kernel_fault", 0);

    QueryRequest req;
    req.name = "cell";
    req.kind = QueryKind::kJoin;
    req.join_algo = join::JoinAlgo::kPhjOm;
    req.r = &r;
    req.s = &s;
    req.backend = c.force;
    req.fragment_bits_override = 0;
    const obs::MetricsSnapshot before = reg.Snapshot();
    ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));
    ASSERT_OK(service.Drain());
    const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);

    const QueryOutcome& out = service.outcome(id);
    EXPECT_EQ(out.status.ok(), c.ok) << out.status.ToString();
    if (!c.ok) {
      EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
    }
    EXPECT_EQ(out.backend, c.label);
    // cpux runs host-side and launches no simulated kernel.
    EXPECT_EQ(out.kernels_launched > 0, c.ran_on == kV);
    EXPECT_EQ(delta.CounterTotal("service_hedge_decisions_total"), c.hedges);
    EXPECT_EQ(delta.CounterTotal("service_hedged_fragments_total"), c.hedges);
    EXPECT_EQ(out.hedged_fragments, static_cast<int>(c.hedges));
    EXPECT_EQ(delta.CounterValue("service_backend_resolved_total",
                                 {{"backend", c.label}}),
              1u);
    EXPECT_EQ(service.reserved_bytes(), 0u);
    ASSERT_OK(device.CheckNoLeaks());
  }
}

}  // namespace
}  // namespace gpujoin::service
