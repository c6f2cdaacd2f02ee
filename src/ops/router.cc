#include "ops/router.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"

namespace gpujoin::ops {

namespace {

/// Calibrated per-backend cost curves. The cpux rates were measured on the
/// bench_hyb1_crossover workload (Release, single worker); the vgpu rates
/// come from the committed fig17 baselines. They steer ROUTING only —
/// nothing correctness-critical — and the router's acceptance bar is "auto
/// lands within 5% of the best backend at every measured scale", which
/// tolerates generous calibration error around the crossover.
struct CostModel {
  /// Fixed cpux cost per operator (allocator + pool wakeup), seconds.
  double cpux_fixed_s = 5e-6;
  /// cpux throughput at one thread, input tuples per host second.
  double cpux_join_tuples_per_sec = 60e6;
  double cpux_groupby_tuples_per_sec = 60e6;
  /// Incremental efficiency of each added cpux worker (1 = linear).
  double cpux_thread_scaling = 0.7;
  /// vgpu device-side throughput, input tuples per simulated second.
  double vgpu_join_tuples_per_sec = 2500e6;
  double vgpu_groupby_tuples_per_sec = 2500e6;
  /// Kernel launches a typical operator issues (each pays
  /// launch_overhead_cycles).
  double kernels_per_join = 14;
  double kernels_per_groupby = 8;
};
constexpr CostModel kCost{};

std::string Sci(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3e", v);
  return buf;
}

/// Simulated seconds for one host<->device transfer of `bytes`.
double TransferSeconds(const vgpu::DeviceConfig& config, uint64_t bytes) {
  return static_cast<double>(bytes) / (config.pcie_gbps * 1e9) +
         config.CyclesToSeconds(config.pcie_latency_cycles);
}

/// Projected cpux tuples/second at the configured worker count.
double CpuxRate(double single_thread_rate, int threads) {
  const int extra = threads > 1 ? threads - 1 : 0;
  return single_thread_rate * (1.0 + kCost.cpux_thread_scaling * extra);
}

/// Whether cpux can run over this table at all (the engines are
/// integer-only; string columns stay on the vgpu path, whose dictionary
/// encoder handles them).
bool CpuxEligibleTable(const HostTable& t, std::string* why) {
  for (const HostColumn& col : t.columns) {
    if (col.is_string()) {
      *why = "strings";
      return false;
    }
  }
  if (t.num_rows() >= uint64_t{0xFFFFFFFF}) {
    *why = "rows";
    return false;
  }
  return true;
}

bool CpuxEligibleJoin(const JoinOp& op, std::string* why) {
  return CpuxEligibleTable(*op.r, why) && CpuxEligibleTable(*op.s, why);
}

bool CpuxEligibleGroupBy(const GroupByOp& op, std::string* why) {
  return CpuxEligibleTable(*op.input, why);
}

void PickByCost(RouteDecision* d, Backend force, bool eligible,
                const std::string& guard) {
  if (force != Backend::kAuto) {
    d->backend = force;
    d->reason = "forced";
    return;
  }
  if (!eligible) {
    d->backend = Backend::kVgpu;
    d->reason = guard;
    return;
  }
  d->backend =
      d->cpux_seconds <= d->vgpu_seconds ? Backend::kCpux : Backend::kVgpu;
  d->reason = "cost";
}

/// Hedge rung: when the health guard quarantines the chosen backend, flip
/// to the survivor. Quarantine outranks even a forced backend (a forced
/// pick on a tripped breaker would just burn its retry budget), but never
/// overrides an eligibility guard: an ineligible survivor means the
/// original choice stands and the service retry path owns the fault.
void ApplyQuarantine(RouteDecision* d, const RouterOptions& options,
                     bool cpux_eligible) {
  if (!options.quarantined || !options.quarantined(d->backend)) return;
  const Backend other =
      d->backend == Backend::kCpux ? Backend::kVgpu : Backend::kCpux;
  if (other == Backend::kCpux && !cpux_eligible) return;
  if (options.quarantined(other)) return;  // Both unhealthy: no hedge.
  d->backend = other;
  d->reason = "quarantined";
}

}  // namespace

RouterOptions RouterOptions::FromEnv(RouterOptions base) {
  if (Result<Backend> env = BackendFromEnv(base.force); env.ok()) {
    base.force = *env;
  }
  return base;
}

RouterOptions RouterOptions::FromEnv() { return FromEnv(RouterOptions{}); }

Result<Backend> BackendFromEnv(Backend fallback) {
  const char* env = std::getenv("GPUJOIN_BACKEND");
  if (env == nullptr || env[0] == '\0') return fallback;
  return ParseBackend(env);
}

RouteDecision RouteJoin(const JoinOp& op, const vgpu::DeviceConfig& config,
                        const RouterOptions& options) {
  RouteDecision d;
  d.memory = stats::EstimateJoinMemory(*op.r, *op.s);
  const double tuples =
      static_cast<double>(op.r->num_rows() + op.s->num_rows());
  d.cpux_seconds =
      kCost.cpux_fixed_s +
      tuples / CpuxRate(kCost.cpux_join_tuples_per_sec, options.cpux_threads);
  d.vgpu_seconds = TransferSeconds(config, op.r->device_bytes()) +
                   TransferSeconds(config, op.s->device_bytes()) +
                   TransferSeconds(config, d.memory.output_bytes) +
                   config.CyclesToSeconds(kCost.kernels_per_join *
                                          config.launch_overhead_cycles) +
                   tuples / kCost.vgpu_join_tuples_per_sec;

  std::string guard;
  const bool eligible = CpuxEligibleJoin(op, &guard);
  PickByCost(&d, options.force, eligible, guard);
  ApplyQuarantine(&d, options, eligible);
  return d;
}

RouteDecision RouteGroupBy(const GroupByOp& op,
                           const vgpu::DeviceConfig& config,
                           const RouterOptions& options) {
  RouteDecision d;
  d.memory = stats::EstimateGroupByMemory(
      *op.input, static_cast<int>(op.spec.aggregates.size()));
  const double tuples = static_cast<double>(op.input->num_rows());
  d.cpux_seconds = kCost.cpux_fixed_s +
                   tuples / CpuxRate(kCost.cpux_groupby_tuples_per_sec,
                                     options.cpux_threads);
  d.vgpu_seconds =
      TransferSeconds(config, op.input->device_bytes()) +
      TransferSeconds(config, d.memory.output_bytes) +
      config.CyclesToSeconds(kCost.kernels_per_groupby *
                             config.launch_overhead_cycles) +
      tuples / kCost.vgpu_groupby_tuples_per_sec;

  std::string guard;
  const bool eligible = CpuxEligibleGroupBy(op, &guard);
  PickByCost(&d, options.force, eligible, guard);
  ApplyQuarantine(&d, options, eligible);
  return d;
}

Router::Router(vgpu::Device& device, const RouterOptions& options)
    : device_(&device),
      options_(options),
      vgpu_(device),
      cpux_(options.cpux_threads) {}

Result<OperatorRunResult> Router::Dispatch(Backend backend,
                                           const JoinOp* join_op,
                                           const GroupByOp* groupby_op) {
  OperatorProvider& provider =
      backend == Backend::kCpux ? static_cast<OperatorProvider&>(cpux_)
                                : static_cast<OperatorProvider&>(vgpu_);
  return join_op != nullptr ? provider.RunJoin(*join_op)
                            : provider.RunGroupBy(*groupby_op);
}

Result<OperatorRunResult> Router::RunRouted(const RouteDecision& decision,
                                            const JoinOp* join_op,
                                            const GroupByOp* groupby_op,
                                            const std::string& span_name) {
  decisions_.push_back(decision);
  const char* op_kind = join_op != nullptr ? "join" : "groupby";
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.CounterAdd("router_decisions_total",
                 {{"op", op_kind},
                  {"backend", BackendName(decision.backend)},
                  {"reason", decision.reason}});
  obs::TraceSpan span(*device_, "op", span_name);
  span.Annotate("backend", BackendName(decision.backend));
  span.Annotate("cost_cpux_s", Sci(decision.cpux_seconds));
  span.Annotate("cost_vgpu_s", Sci(decision.vgpu_seconds));
  span.Annotate("est_bytes", std::to_string(decision.memory.total_bytes()));
  span.Annotate("route_reason", decision.reason);

  // Every RunRouted call records exactly one router_ops_total sample on
  // its way out, so router_decisions_total == router_ops_total reconciles
  // in every binary, success or error. The backend label is the one the op
  // actually ended on; successes also feed the projected/actual cost-ratio
  // histograms (vgpu actuals are simulated seconds and replay-stable; cpux
  // actuals are host wall time, so that ratio stays behind the host flag).
  const auto record_op = [&](Backend final_backend,
                             const OperatorRunResult* res) {
    reg.CounterAdd("router_ops_total",
                   {{"op", op_kind}, {"backend", BackendName(final_backend)}});
    if (res == nullptr || res->seconds <= 0) return;
    if (final_backend == Backend::kVgpu) {
      reg.HistogramObserve("router_cost_ratio", {{"op", op_kind}},
                           decision.vgpu_seconds / res->seconds);
    } else {
      reg.HostHistogramObserve("router_cost_ratio_host", {{"op", op_kind}},
                               decision.cpux_seconds / res->seconds);
    }
  };

  Result<OperatorRunResult> first = Dispatch(decision.backend, join_op,
                                             groupby_op);
  if (first.ok()) {
    record_op(decision.backend, &first.value());
    return first;
  }
  const Status& st = first.status();
  const bool resource = st.IsResourceExhausted() ||
                        st.code() == StatusCode::kOutOfMemory;
  if (!resource) {
    record_op(decision.backend, nullptr);
    return first;
  }

  const Backend other =
      decision.backend == Backend::kCpux ? Backend::kVgpu : Backend::kCpux;
  std::string guard;
  if (other == Backend::kCpux) {
    const bool eligible = join_op != nullptr
                              ? CpuxEligibleJoin(*join_op, &guard)
                              : CpuxEligibleGroupBy(*groupby_op, &guard);
    if (!eligible) {
      record_op(decision.backend, nullptr);
      return first;
    }
  }

  const std::string detail = std::string(BackendName(decision.backend)) +
                             " -> " + BackendName(other) + ": " +
                             st.ToString();
  obs::TraceInstant(*device_, "backend_fallback", detail);
  span.Annotate("fallback_backend", BackendName(other));
  reg.CounterAdd("router_fallback_total",
                 {{"from", BackendName(decision.backend)},
                  {"to", BackendName(other)}});

  Result<OperatorRunResult> second = Dispatch(other, join_op, groupby_op);
  if (!second.ok()) {
    record_op(decision.backend, nullptr);
    return first;  // The routed backend's error is primary.
  }
  OperatorRunResult res = std::move(second).value();
  res.degradation.insert(res.degradation.begin(),
                         DegradationStep{"backend_fallback", detail});
  record_op(other, &res);
  return res;
}

Result<OperatorRunResult> Router::RunJoin(const JoinOp& op) {
  if (op.r == nullptr || op.s == nullptr) {
    return Status::InvalidArgument("router join missing input table(s)");
  }
  const RouteDecision decision = RouteJoin(op, device_->config(), options_);
  return RunRouted(decision, &op, nullptr,
                   std::string("join:") + join::JoinAlgoName(op.algo));
}

Result<OperatorRunResult> Router::RunGroupBy(const GroupByOp& op) {
  if (op.input == nullptr) {
    return Status::InvalidArgument("router groupby missing input table");
  }
  const RouteDecision decision = RouteGroupBy(op, device_->config(), options_);
  return RunRouted(decision, nullptr, &op,
                   std::string("groupby:") +
                       groupby::GroupByAlgoName(op.algo));
}

Result<Router::PipelineRunResult> Router::RunJoinPipeline(
    const HostTable& fact, const std::vector<HostTable>& dims,
    join::JoinAlgo algo, const join::JoinOptions& options) {
  const size_t n = dims.size();
  if (n == 0) {
    return Status::InvalidArgument("router pipeline: no dimension tables");
  }
  if (fact.columns.size() < n) {
    return Status::InvalidArgument(
        "router pipeline: fact table has fewer columns than foreign keys");
  }

  PipelineRunResult out;
  // Invariant: before stage i, current's column 0 is FK_i+1 and the other
  // columns are everything carried (remaining FKs, fact payloads, payloads
  // accumulated from earlier dims).
  HostTable current = fact;
  for (size_t i = 0; i < n; ++i) {
    JoinOp jop;
    jop.algo = algo;
    jop.options = options;
    jop.r = &dims[i];
    jop.s = &current;
    GPUJOIN_ASSIGN_OR_RETURN(OperatorRunResult res, RunJoin(jop));
    out.seconds += res.seconds;
    out.stage_backends.push_back(res.backend);

    if (i + 1 < n) {
      // Stage output: [key, dim_i payloads..., carried...]. Drop the
      // consumed key and rotate the next FK (right after dim_i's payloads)
      // to the front.
      const size_t fk_pos = 1 + (dims[i].columns.size() - 1);
      HostTable next;
      next.name = res.output.name;
      next.columns.push_back(std::move(res.output.columns[fk_pos]));
      for (size_t c = 1; c < res.output.columns.size(); ++c) {
        if (c == fk_pos) continue;
        next.columns.push_back(std::move(res.output.columns[c]));
      }
      current = std::move(next);
    } else {
      current = std::move(res.output);
    }
  }
  out.final_rows = current.num_rows();
  out.output = std::move(current);
  return out;
}

}  // namespace gpujoin::ops
