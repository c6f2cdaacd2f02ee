// Entry-point parity probe: the same PHJ-OM query (|R| = 2^scale,
// |S| = 2^(scale+1), two payload columns per side) through five entry
// points, each on a fresh device, recording the device clock advance of
// each. It records the gap between entry points; it does not judge it.

#include "harness/harness.h"
#include "join/join.h"
#include "join/resilient.h"
#include "ops/operator.h"
#include "query_util.h"
#include "service/query_service.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {

using namespace gpujoin;  // NOLINT(build/namespaces)

std::vector<std::pair<std::string, double>> EntryPointProbe(Meter& meter,
                                                            uint64_t seed) {
  const uint64_t n = harness::ScaleTuples();
  workload::JoinWorkloadSpec spec;
  spec.r_rows = n;
  spec.s_rows = 2 * n;
  spec.r_payload_cols = 2;
  spec.s_payload_cols = 2;
  spec.seed = Mix64(seed ^ 0xe7e7);
  const workload::JoinWorkload w =
      MustOk(meter.Call("workload", "workload::GenerateJoinInput", -1, nullptr,
                        nullptr, [&] { return workload::GenerateJoinInput(spec); }));
  const join::JoinAlgo algo = join::JoinAlgo::kPhjOm;
  std::vector<std::pair<std::string, double>> out;
  // Runs `fn` against a fresh device and records its clock advance.
  auto probe = [&](const char* name, const std::string& layer, auto fn) {
    std::unique_ptr<vgpu::Device> dev = NewDevice();
    CallCost cost;
    const bool ok = meter.Call(layer, std::string("probe:") + name, -1, dev.get(),
                               &cost, [&] { return fn(*dev); });
    out.emplace_back(name, ok ? cost.sim_cycles * 1e3 / ClockHz(*dev) : 0.0);
  };

  probe("run_join", "join", [&](vgpu::Device& dev) {
    // harness::Upload stages the tables without advancing the clock.
    auto up = harness::Upload(dev, w);
    if (!up.ok()) return false;
    return harness::RunJoinCold(dev, algo, up->r, up->s).ok();
  });
  probe("resilient", "join", [&](vgpu::Device& dev) {
    return join::RunJoinResilient(dev, algo, w.r, w.s).ok();
  });
  probe("provider", "ops", [&](vgpu::Device& dev) {
    ops::VgpuProvider provider(dev);
    return provider.RunJoin(ops::JoinOp{algo, {}, &w.r, &w.s}).ok();
  });
  for (const auto& [name, bits] :
       {std::pair<const char*, int>{"service_1frag", 0}, {"service_default", -1}}) {
    probe(name, "service.drain", [&, bits = bits](vgpu::Device& dev) {
      service::ServiceOptions opts;
      opts.default_backend = ops::Backend::kVgpu;
      service::QueryService svc(dev, opts);
      service::QueryRequest req;
      req.name = "entry-probe";
      req.join_algo = algo;
      req.r = &w.r;
      req.s = &w.s;
      req.fragment_bits_override = bits;
      auto id = svc.Submit(req);
      return id.ok() && svc.Drain().ok() && svc.outcome(*id).status.ok();
    });
  }
  return out;
}

}  // namespace perfbench
