#include "service/query_service.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/registry.h"
#include "obs/trace.h"

namespace gpujoin::service {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// splitmix64: the deterministic tie-break stream for pass rotation (same
/// generator family as BackoffPolicy jitter and FaultInjector).
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Whether the table's key column is a string (such a key cannot be split).
bool HasStringKey(const HostTable* t) {
  return t != nullptr && !t->columns.empty() && t->columns[0].is_string();
}

}  // namespace

const char* AdmissionDecisionName(AdmissionDecision d) {
  switch (d) {
    case AdmissionDecision::kAdmitted: return "admitted";
    case AdmissionDecision::kQueued: return "queued";
    case AdmissionDecision::kRejected: return "rejected";
    case AdmissionDecision::kDeferred: return "deferred";
  }
  return "unknown";
}

QueryService::QueryService(vgpu::Device& device, ServiceOptions options)
    : device_(device),
      budget_bytes_(options.budget_bytes != 0
                        ? options.budget_bytes
                        : device.config().global_mem_bytes),
      max_queue_(options.max_queue),
      backoff_(options.backoff),
      sched_seed_(options.scheduler.seed),
      default_backend_(options.default_backend),
      cpux_threads_(std::max(1, options.cpux_threads)),
      transient_retry_limit_(std::max(0, options.transient_retry_limit)),
      health_(options.breaker) {
  // GPUJOIN_BACKEND overrides the configured default; unset or unparsable
  // leaves it alone (a service cannot surface a Status from a constructor).
  if (Result<ops::Backend> env = ops::BackendFromEnv(default_backend_);
      env.ok()) {
    default_backend_ = *env;
  }
  for (const TenantQuota& q : options.tenants) {
    TenantState state;
    state.quota = q;
    if (state.quota.quota_bytes == 0) state.quota.quota_bytes = budget_bytes_;
    tenants_.emplace(q.name, std::move(state));
  }
}

const TenantState* QueryService::tenant(const std::string& name) const {
  auto it = tenants_.find(name.empty() ? "default" : name);
  return it == tenants_.end() ? nullptr : &it->second;
}

TenantState& QueryService::ResolveTenant(const std::string& name) {
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  // Unconfigured tenants are unconstrained beyond the global budget: full
  // quota, no borrowing (nothing to borrow past the budget), shared queue
  // limit. This keeps single-tenant workloads byte-compatible with the
  // pre-quota service.
  TenantState state;
  state.quota.name = name;
  state.quota.quota_bytes = budget_bytes_;
  state.quota.borrow_limit_bytes = 0;
  state.quota.max_queue = max_queue_;
  return tenants_.emplace(name, std::move(state)).first->second;
}

stats::MemoryEstimate QueryService::Estimate(const QueryRequest& request) const {
  if (request.estimate_bytes_override > 0) {
    stats::MemoryEstimate est;
    est.working_bytes = request.estimate_bytes_override;
    return est;
  }
  if (request.kind == QueryKind::kJoin) {
    return stats::EstimateJoinMemory(*request.r, *request.s);
  }
  return stats::EstimateGroupByMemory(
      *request.r, static_cast<int>(request.groupby_spec.aggregates.size()));
}

int QueryService::ResolveFragmentBits(const QueryRequest& request,
                                      uint64_t need) const {
  if (request.fragment_bits_override >= 0) {
    return std::min(request.fragment_bits_override, kMaxFragmentBits);
  }
  // The automatic policy runs a string-keyed query as one fragment.
  if (HasStringKey(request.r) || HasStringKey(request.s)) return 0;
  return join::DeriveFragmentBits(
      need, static_cast<double>(budget_bytes_) * kFragmentTargetFraction, 0,
      kMaxFragmentBits);
}

size_t QueryService::QueuedCount() const {
  size_t n = 0;
  for (const auto& [name, t] : tenants_) n += t.stats.queued;
  return n;
}

bool QueryService::TryReserve(Run& run) {
  // All limit checks in subtraction form: near-UINT64_MAX estimates must
  // reject, not wrap (the old `reserved + need <= budget` form overflowed).
  const uint64_t need = run.need;
  if (reserved_bytes_ > budget_bytes_ ||
      need > budget_bytes_ - reserved_bytes_) {
    return false;
  }
  TenantState& t = ResolveTenant(run.request.tenant);
  const uint64_t quota = t.quota.quota_bytes;
  const uint64_t quota_avail =
      quota > t.stats.reserved_bytes ? quota - t.stats.reserved_bytes : 0;
  const uint64_t borrow = need > quota_avail ? need - quota_avail : 0;
  if (borrow > 0) {
    const uint64_t borrow_avail =
        t.quota.borrow_limit_bytes > t.stats.borrowed_bytes
            ? t.quota.borrow_limit_bytes - t.stats.borrowed_bytes
            : 0;
    if (borrow > borrow_avail) return false;
  }
  reserved_bytes_ += need;
  t.stats.reserved_bytes += need;
  t.stats.borrowed_bytes += borrow;
  run.reserved = true;
  run.borrowed = borrow;
  outcomes_[run.id].borrowed_bytes = borrow;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (borrow > 0) {
    reg.CounterAdd("service_quota_borrow_total",
                   {{"tenant", run.request.tenant}});
    reg.CounterAdd("service_quota_borrow_bytes_total",
                   {{"tenant", run.request.tenant}}, borrow);
  }
  reg.GaugeMax("service_reserved_peak_bytes", {},
               static_cast<double>(reserved_bytes_));
  return true;
}

void QueryService::ReleaseReservation(Run& run) {
  TenantState& t = ResolveTenant(run.request.tenant);
  reserved_bytes_ -= run.need;
  t.stats.reserved_bytes -= run.need;
  t.stats.borrowed_bytes -= run.borrowed;
  run.reserved = false;
  run.borrowed = 0;
}

Result<int> QueryService::Submit(QueryRequest request) {
  if (request.r == nullptr ||
      (request.kind == QueryKind::kJoin && request.s == nullptr)) {
    return Status::InvalidArgument("QueryService::Submit: missing input table");
  }
  if (request.tenant.empty()) request.tenant = "default";

  const int id = static_cast<int>(outcomes_.size());
  QueryOutcome out;
  out.name = request.name;
  out.tenant = request.tenant;
  out.priority = request.priority;
  out.estimate = Estimate(request);
  out.submitted_at_cycles = device_.elapsed_cycles();
  const uint64_t need = out.estimate.total_bytes();

  if (need > budget_bytes_) {
    // Could never fit even an idle device: structured rejection, no queueing.
    out.admission = AdmissionDecision::kRejected;
    out.status = Status::ResourceExhausted(
        "admission rejected: query '" + request.name + "' estimates " +
        std::to_string(need) + " B but the service budget is " +
        std::to_string(budget_bytes_) + " B");
    obs::TraceInstant(device_, "admission:rejected", out.status.message());
    ResolveTenant(request.tenant).stats.rejected++;
    RecordAdmission(out);
    RecordTerminal(out);
    outcomes_.push_back(std::move(out));
    return id;
  }

  const int bits = ResolveFragmentBits(request, need);
  Result<join::FragmentPlan> plan =
      request.kind == QueryKind::kJoin
          ? join::FragmentPlan::ForJoin(*request.r, *request.s, bits)
          : join::FragmentPlan::ForGroupBy(*request.r, bits);
  GPUJOIN_RETURN_IF_ERROR(plan.status());

  Run run;
  run.id = id;
  run.need = need;
  run.request = std::move(request);
  run.plan = std::move(plan).value();
  outcomes_.push_back(std::move(out));

  if (run.request.arrival_cycles > device_.elapsed_cycles()) {
    // Models an asynchronous Submit racing the drain: admission is
    // evaluated when the simulated clock reaches the arrival time.
    outcomes_[id].admission = AdmissionDecision::kDeferred;
    obs::TraceInstant(device_, "admission:deferred",
                      "query '" + run.request.name + "' arrives at cycle " +
                          std::to_string(run.request.arrival_cycles));
    RecordAdmission(outcomes_[id]);
  } else {
    run.arrived = true;
    AdmitOrQueue(run);
    RecordAdmission(outcomes_[id]);
    if (run.done) {
      // Rejected: never enters the pending set, so this is terminal now.
      RecordTerminal(outcomes_[id]);
      return id;
    }
  }

  outcomes_[id].fragments_total = static_cast<int>(run.plan.units().size());
  run.control.set_token(run.request.lifecycle.token);
  pending_.push_back(std::move(run));
  return id;
}

void QueryService::AdmitOrQueue(Run& run) {
  QueryOutcome& out = outcomes_[run.id];
  TenantState& t = ResolveTenant(run.request.tenant);
  const uint64_t need = run.need;

  if (TryReserve(run)) {
    out.admission = AdmissionDecision::kAdmitted;
    t.stats.admitted++;
    obs::TraceInstant(device_, "admission:reserved",
                      "query '" + out.name + "' (tenant '" + out.tenant +
                          "') reserved " + std::to_string(need) + " B (" +
                          std::to_string(run.borrowed) + " B borrowed, " +
                          std::to_string(reserved_bytes_) + "/" +
                          std::to_string(budget_bytes_) + " B reserved)");
    return;
  }

  if (QueuedCount() >= max_queue_) {
    out.admission = AdmissionDecision::kRejected;
    out.status = Status::ResourceExhausted(
        "admission rejected: queue full (" + std::to_string(max_queue_) +
        " queued submission(s)) for query '" + out.name + "'");
    obs::TraceInstant(device_, "admission:rejected", out.status.message());
    t.stats.rejected++;
    run.done = true;
    return;
  }
  if (t.stats.queued >= t.quota.max_queue) {
    out.admission = AdmissionDecision::kRejected;
    out.status = Status::TenantOverQuota(
        "tenant '" + out.tenant + "' queue full (" +
        std::to_string(t.quota.max_queue) +
        " queued submission(s)) for query '" + out.name + "'");
    obs::TraceInstant(device_, "admission:rejected", out.status.message());
    t.stats.rejected++;
    t.stats.over_quota++;
    run.done = true;
    return;
  }

  out.admission = AdmissionDecision::kQueued;
  t.stats.queued++;
  t.stats.queued_total++;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.HistogramObserve("service_queue_depth", {{"tenant", out.tenant}},
                       static_cast<double>(t.stats.queued));
  reg.GaugeMax("service_queue_depth_peak", {{"tenant", out.tenant}},
               static_cast<double>(t.stats.queued));
  obs::TraceInstant(
      device_, "admission:queued",
      "query '" + out.name + "' (tenant '" + out.tenant + "') queued: " +
          std::to_string(need) + " B needed, " +
          std::to_string(budget_bytes_ - reserved_bytes_) + " B unreserved");
}

void QueryService::ProcessArrivals(std::vector<Run>& batch) {
  const double now = device_.elapsed_cycles();
  for (Run& r : batch) {
    if (r.done || r.arrived) continue;
    if (r.request.arrival_cycles > now) continue;
    r.arrived = true;
    obs::TraceInstant(device_, "sched:arrival",
                      "query '" + outcomes_[r.id].name + "' (tenant '" +
                          outcomes_[r.id].tenant + "', priority " +
                          std::to_string(r.request.priority) +
                          ") arrived at cycle " + std::to_string(now));
    AdmitOrQueue(r);
    // A deferred arrival can be rejected at its evaluation time; that is
    // terminal without ever reaching Finalize.
    if (r.done) RecordTerminal(outcomes_[r.id]);
  }
}

void QueryService::AdmitQueuedAfterRelease(std::vector<Run>& batch) {
  // A freed reservation goes to the highest-priority waiter first; FIFO
  // order only breaks ties within a priority tier. Otherwise an early-
  // submitted bulk query would capture every release ahead of interactive
  // queries that outrank it.
  std::vector<Run*> waiting;
  for (Run& run : batch) {
    if (run.done || !run.arrived || run.reserved) continue;
    waiting.push_back(&run);
  }
  std::stable_sort(waiting.begin(), waiting.end(),
                   [](const Run* a, const Run* b) {
                     return a->request.priority > b->request.priority;
                   });
  for (Run* rp : waiting) {
    Run& r = *rp;
    if (!TryReserve(r)) continue;
    TenantState& t = ResolveTenant(r.request.tenant);
    t.stats.queued--;
    t.stats.admitted++;
    outcomes_[r.id].admission = AdmissionDecision::kAdmitted;
    obs::TraceInstant(device_, "admission:reserved",
                      "queued query '" + outcomes_[r.id].name +
                          "' reserved " + std::to_string(r.need) +
                          " B after a release");
  }
}

void QueryService::RetryQueuedIdle(std::vector<Run>& batch) {
  // Nothing is runnable and no arrival is pending, so only the paced
  // retries below separate a queued query from a deterministic
  // backpressure failure (nothing else will free budget).
  for (Run& r : batch) {
    if (r.done || !r.arrived || r.reserved) continue;
    TenantState& t = ResolveTenant(r.request.tenant);
    for (int attempt = 1;; ++attempt) {
      if (TryReserve(r)) {
        t.stats.queued--;
        t.stats.admitted++;
        outcomes_[r.id].admission = AdmissionDecision::kAdmitted;
        obs::TraceInstant(device_, "admission:reserved",
                          "queued query '" + outcomes_[r.id].name +
                              "' reserved " + std::to_string(r.need) +
                              " B on attempt " + std::to_string(attempt));
        return;  // Runnable now; let the scheduler take a pass.
      }
      if (!backoff_.AttemptAllowed(attempt + 1)) {
        // Statically infeasible for this tenant (even an idle service could
        // not reserve it): quota + borrow allowance can never cover `need`.
        const uint64_t quota = t.quota.quota_bytes;
        const bool tenant_limited =
            r.need > quota && r.need - quota > t.quota.borrow_limit_bytes;
        Status st =
            tenant_limited
                ? Status::TenantOverQuota(
                      "admission retry budget exhausted for queued query '" +
                      outcomes_[r.id].name + "': tenant '" + outcomes_[r.id].tenant +
                      "' needs " + std::to_string(r.need) + " B against quota " +
                      std::to_string(quota) + " B + borrow limit " +
                      std::to_string(t.quota.borrow_limit_bytes) + " B after " +
                      std::to_string(attempt) + " attempt(s)")
                : Status::ResourceExhausted(
                      "admission retry budget exhausted for queued query '" +
                      outcomes_[r.id].name + "': " + std::to_string(r.need) +
                      " B needed, " +
                      std::to_string(budget_bytes_ - reserved_bytes_) +
                      " B unreserved after " + std::to_string(attempt) +
                      " attempt(s)");
        obs::TraceInstant(device_, "admission:rejected", st.message());
        t.stats.queued--;
        t.stats.rejected++;
        if (tenant_limited) t.stats.over_quota++;
        Finalize(r, std::move(st));
        break;  // Next queued submission.
      }
      Backoff(backoff_.DelayCycles(attempt));
    }
  }
}

void QueryService::Backoff(double cycles) {
  const double t0 = device_.elapsed_cycles();
  device_.AdvanceClock(cycles);
  backoff_cycles_ += device_.elapsed_cycles() - t0;
}

ops::CpuxProvider& QueryService::Cpux() {
  if (cpux_ == nullptr) {
    cpux_ = std::make_unique<ops::CpuxProvider>(cpux_threads_);
  }
  return *cpux_;
}

bool QueryService::ResolveUseCpux(const Run& run, const UnitOp& op,
                                  std::string* label) {
  // Forced, costed and hedged placement are all the router's: a pure
  // function of tuple counts, the device config, and breaker state driven
  // by the simulated clock — so replays and every GPUJOIN_SIM_THREADS
  // setting pick the same backend.
  const double now = device_.elapsed_cycles();
  ops::RouterOptions ropts;
  ropts.force = run.request.backend.value_or(default_backend_);
  ropts.cpux_threads = cpux_threads_;
  ropts.quarantined = [this, now](ops::Backend b) {
    return health_.Quarantined(b, now);
  };
  const ops::RouteDecision decision =
      run.request.kind == QueryKind::kJoin
          ? ops::RouteJoin(op.join, device_.config(), ropts)
          : ops::RouteGroupBy(op.groupby, device_.config(), ropts);
  const std::string chosen = ops::BackendName(decision.backend);
  if (decision.reason == "quarantined") {
    *label = "hedge:" + chosen;
    // Hedge-decision double entry: metered here, once per hedged
    // resolution; the executing side meters service_hedged_fragments_total
    // once per hedged turn. The two totals reconcile after every Drain.
    obs::MetricsRegistry::Global().CounterAdd("service_hedge_decisions_total",
                                              {{"to", chosen}});
  } else {
    *label = decision.reason == "forced" ? chosen : "auto:" + chosen;
  }
  return decision.backend == ops::Backend::kCpux;
}

Status QueryService::RunUnit(Run& run, const UnitOp& op, bool use_cpux,
                             ops::Backend* executed) {
  const join::FragmentUnit& u = run.plan.units()[run.next_unit];
  const QueryRequest& req = run.request;
  const bool is_join = req.kind == QueryKind::kJoin;
  QueryOutcome& out = outcomes_[run.id];
  HostTable part;
  uint64_t part_rows = 0;
  // Every backend's result carries output, output_rows and attempts.
  const auto take = [&](auto& result) {
    out.attempts = std::max(out.attempts, result.attempts);
    part = std::move(result.output);
    part_rows = result.output_rows;
  };
  *executed = use_cpux ? ops::Backend::kCpux : ops::Backend::kVgpu;

  if (use_cpux) {
    // Host-side execution: zero simulated cycles, no PCIe charges. A cpux
    // resource failure is the cross-backend fallback rung — the fragment
    // re-runs on the vgpu resilient path below.
    Result<ops::OperatorRunResult> rr =
        is_join ? Cpux().RunJoin(op.join) : Cpux().RunGroupBy(op.groupby);
    if (rr.ok()) {
      take(*rr);
    } else if (rr.status().code() == StatusCode::kResourceExhausted ||
               rr.status().code() == StatusCode::kOutOfMemory) {
      obs::TraceInstant(device_, "backend_fallback",
                        "query '" + out.name + "' fragment " +
                            std::to_string(run.next_unit) +
                            ": cpux failed (" + rr.status().message() +
                            "); retrying on vgpu");
      out.backend += "->vgpu";
      *executed = ops::Backend::kVgpu;
      obs::MetricsRegistry::Global().CounterAdd(
          "service_backend_fallback_total", {{"tenant", out.tenant}});
    } else {
      return rr.status();
    }
  }

  if (*executed == ops::Backend::kVgpu) {
    // Fragment streaming is modelled like the out-of-core path: the unit's
    // inputs cross PCIe up, the partial result crosses down.
    if (run.plan.fragmented()) {
      device_.ChargeHostTransfer(
          vgpu::TransferDirection::kHostToDevice,
          u.r->device_bytes() + (is_join ? u.s->device_bytes() : 0));
      GPUJOIN_RETURN_IF_ERROR(obs::CheckLifecycle(device_));
    }
    if (is_join) {
      GPUJOIN_ASSIGN_OR_RETURN(
          join::ResilientJoinResult jr,
          join::RunJoinResilient(device_, req.join_algo, *u.r, *u.s,
                                 req.join_options));
      take(jr);
    } else {
      GPUJOIN_ASSIGN_OR_RETURN(
          groupby::ResilientGroupByResult gr,
          groupby::RunGroupByResilient(device_, req.groupby_algo, *u.r,
                                       req.groupby_spec, req.groupby_options));
      take(gr);
    }
    if (run.plan.fragmented()) {
      device_.ChargeHostTransfer(vgpu::TransferDirection::kDeviceToHost,
                                 part.device_bytes());
    }
  }

  // Merge in fixed fragment order: units run (and re-run after a transient
  // fault) strictly in plan order, so appending is the deterministic merge.
  if (!run.partial_init) {
    run.partial = std::move(part);
    run.partial_init = true;
  } else {
    AppendRows(run.partial, part);
  }
  run.partial_rows += part_rows;
  return Status::OK();
}

double QueryService::NextPreemptAt(const std::vector<Run>& batch,
                                   int priority) const {
  double at = kInf;
  for (const Run& w : batch) {
    if (w.done || w.arrived || w.request.priority <= priority) continue;
    at = std::min(at, w.request.arrival_cycles);
  }
  return at;
}

void QueryService::RunNested(std::vector<Run>& batch, Run& interrupted) {
  QueryOutcome& out = outcomes_[interrupted.id];
  const double start = device_.elapsed_cycles();
  const uint64_t turns0 = turns_taken_;
  {
    obs::NestedTraceScope trace_scope(device_);
    Status st = RunPasses(batch, interrupted.request.priority);
    if (!st.ok() && nested_error_.ok()) nested_error_ = std::move(st);
  }
  const uint64_t nested_turns = turns_taken_ - turns0;
  if (nested_turns == 0) return;  // The arrival queued or was rejected.
  out.preemptions++;
  ResolveTenant(interrupted.request.tenant).stats.preemptions++;
  obs::MetricsRegistry::Global().CounterAdd("sched_preemptions_total",
                                            {{"tenant", out.tenant}});
  obs::TraceInstant(device_, "sched:preempt",
                    "query '" + out.name + "' fragment " +
                        std::to_string(interrupted.next_unit) +
                        " preempted at cycle " + std::to_string(start) +
                        ": " + std::to_string(nested_turns) +
                        " nested turn(s) over " +
                        std::to_string(device_.elapsed_cycles() - start) +
                        " cycles");
}

Status QueryService::RunFragmentTurn(Run& run, std::vector<Run>& batch,
                                     double* own_cycles) {
  QueryOutcome& out = outcomes_[run.id];
  TenantState& t = ResolveTenant(run.request.tenant);
  const double turn_start = device_.elapsed_cycles();

  if (!run.started) {
    run.started = true;
    out.started_at_cycles = turn_start;
    // Wait is measured from when the query became runnable: a deferred
    // arrival is not waiting before its arrival time.
    out.wait_cycles =
        turn_start -
        std::max(out.submitted_at_cycles, run.request.arrival_cycles);
    t.stats.wait_cycles += out.wait_cycles;
    if (run.request.lifecycle.deadline_cycles > 0) {
      run.control.set_deadline(vgpu::Deadline::AfterCycles(
          turn_start, run.request.lifecycle.deadline_cycles));
    }
    run.control.set_cancel_at_kernel(run.request.lifecycle.cancel_at_kernel);
  }

  // Pre-turn seam: a cancel or deadline that tripped while the query was
  // waiting its turn terminalizes it without touching the device.
  run.control.Evaluate(turn_start);
  if (run.control.tripped()) {
    Finalize(run, run.control.status());
    AdmitQueuedAfterRelease(batch);
    return Status::OK();
  }

  // Nothing to run (every co-fragment pair was empty): empty result.
  if (run.next_unit >= run.plan.units().size()) {
    Finalize(run, Status::OK());
    AdmitQueuedAfterRelease(batch);
    return Status::OK();
  }

  // Arm the preemption point: at the first seam at or after the earliest
  // future arrival that outranks this query, the device runs the arrived
  // higher tiers nested, and this fragment then continues where it
  // stopped. The nested interval is not this query's work.
  double nested_cycles = 0;
  run.control.set_preempt_hook([this, &batch, &run, &nested_cycles] {
    const double t0 = device_.elapsed_cycles();
    RunNested(batch, run);
    nested_cycles += device_.elapsed_cycles() - t0;
    run.control.set_preempt_at_cycles(
        NextPreemptAt(batch, run.request.priority));
  });
  run.control.set_preempt_at_cycles(
      NextPreemptAt(batch, run.request.priority));

  // Built once per turn: the router routes it and the cpux provider runs it.
  const QueryRequest& req = run.request;
  const join::FragmentUnit& unit = run.plan.units()[run.next_unit];
  const UnitOp op{
      ops::JoinOp{req.join_algo, req.join_options.join, unit.r, unit.s},
      ops::GroupByOp{req.groupby_algo, req.groupby_spec,
                     req.groupby_options.groupby, unit.r}};
  std::string backend_label;
  const bool use_cpux = ResolveUseCpux(run, op, &backend_label);
  // Keep a "->vgpu" fallback record from an earlier fragment visible.
  if (out.backend.rfind(backend_label, 0) != 0) out.backend = backend_label;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.CounterAdd("sched_turns_total", {{"tenant", out.tenant}});
  reg.CounterAdd("service_backend_resolved_total",
                 {{"backend", backend_label}});
  if (backend_label.rfind("hedge:", 0) == 0) {
    // Execution side of the hedge double entry (decision side metered in
    // ResolveUseCpux).
    out.hedged_fragments++;
    reg.CounterAdd("service_hedged_fragments_total", {{"tenant", out.tenant}});
    obs::TraceInstant(device_, "sched:hedge",
                      "query '" + out.name + "' fragment " +
                          std::to_string(run.next_unit) +
                          " hedged to " + backend_label.substr(6) +
                          " (resolved backend quarantined)");
  }

  const uint64_t baseline_live = device_.memory_stats().live_bytes;
  ops::Backend executed = ops::Backend::kVgpu;
  Status st;
  {
    obs::TraceSpan span(device_, "sched", "turn:" + out.name);
    span.Annotate("tenant", out.tenant);
    span.Annotate("priority", std::to_string(out.priority));
    span.Annotate("fragment", std::to_string(run.next_unit) + "/" +
                                  std::to_string(run.plan.units().size()));
    span.Annotate("backend", backend_label);
    vgpu::LifecycleScope scope(device_, run.control);
    st = RunUnit(run, op, use_cpux, &executed);
  }
  run.control.set_preempt_hook(nullptr);
  run.control.set_preempt_at_cycles(kInf);
  ++turns_taken_;
  if (st.ok() && run.plan.fragmented()) {
    // Mirror the out-of-core stream: a deadline/cancel that tripped during
    // the fragment's download fails the query at this seam rather than one
    // turn later.
    run.control.Evaluate(device_.elapsed_cycles());
    if (run.control.tripped()) st = run.control.status();
  }

  const double turn_cycles =
      device_.elapsed_cycles() - turn_start - nested_cycles;
  *own_cycles = turn_cycles;
  out.run_cycles += turn_cycles;
  t.stats.run_cycles += turn_cycles;
  out.fragment_turns++;
  out.kernels_launched = run.control.kernels_launched();

  // The leak-audit contract: whatever the outcome — success, cancellation,
  // deadline, OOM, with or without nested turns — a fragment turn must
  // leave the device at its entry watermark.
  const uint64_t live = device_.memory_stats().live_bytes;
  reg.CounterAdd("service_leak_check_total",
                 {{"outcome", live == baseline_live ? "clean" : "leak"}});
  if (live != baseline_live) {
    return Status::Internal(
        "QueryService: query '" + out.name + "' fragment turn (" +
        StatusCodeToString(st.code()) + ") left " + std::to_string(live) +
        " live bytes (entry watermark " + std::to_string(baseline_live) +
        ")\n" + device_.LeakReport());
  }

  if (st.ok()) {
    // A clean fragment on this backend resets its consecutive-failure
    // counts and closes a half-open breaker (the probe passed).
    health_.RecordSuccess(executed, device_.elapsed_cycles());
    ++run.next_unit;
    if (run.next_unit >= run.plan.units().size()) {
      Finalize(run, Status::OK());
      AdmitQueuedAfterRelease(batch);
    }
  } else if (st.IsUnavailable()) {
    // Transient fault that exhausted the ladder's own retry budget (or
    // surfaced at a seam outside it). Feed the breaker, clear the device's
    // sticky fault so later queries are untouched, and re-run the SAME
    // fragment after a seeded backoff — next resolution hedges to the
    // surviving backend once the breaker trips. The retry limit turns a
    // persistent fault into a structured terminal kUnavailable.
    const std::string kind = FaultKindOf(st);
    health_.RecordFailure(executed, kind, device_.elapsed_cycles());
    device_.ClearTransientFault();
    ++run.transient_retries;
    out.transient_retries = run.transient_retries;
    if (run.transient_retries > transient_retry_limit_) {
      Finalize(run, Status::Unavailable(
                        st.message() + " (service transient-retry limit " +
                        std::to_string(transient_retry_limit_) +
                        " exhausted)"));
      AdmitQueuedAfterRelease(batch);
    } else {
      reg.CounterAdd("service_transient_retries_total",
                     {{"tenant", out.tenant}});
      obs::TraceInstant(device_, "sched:transient_retry",
                        "query '" + out.name + "' fragment " +
                            std::to_string(run.next_unit) + " retry " +
                            std::to_string(run.transient_retries) + " on " +
                            kind + " (" + st.message() + ")");
      Backoff(backoff_.DelayCycles(run.transient_retries));
      // next_unit stays put: the fragment re-runs on a later turn.
    }
  } else {
    Finalize(run, std::move(st));
    AdmitQueuedAfterRelease(batch);
  }
  return Status::OK();
}

void QueryService::Finalize(Run& run, Status status) {
  QueryOutcome& out = outcomes_[run.id];
  TenantState& t = ResolveTenant(run.request.tenant);
  if (run.reserved) {
    const uint64_t need = run.need;
    ReleaseReservation(run);
    obs::TraceInstant(device_, "admission:released",
                      "query '" + out.name + "' released " +
                          std::to_string(need) + " B (" +
                          StatusCodeToString(status.code()) + ")");
  }
  run.done = true;
  out.status = std::move(status);
  out.finished_at_cycles = device_.elapsed_cycles();
  out.kernels_launched = run.control.kernels_launched();
  if (out.status.ok()) {
    out.output = std::move(run.partial);
    out.output_rows = run.partial_rows;
    t.stats.completed++;
  }
  obs::TraceInstant(
      device_, "sched:complete",
      "query=" + out.name + " tenant=" + out.tenant +
          " priority=" + std::to_string(out.priority) +
          " status=" + StatusCodeToString(out.status.code()) +
          " wait_cycles=" + std::to_string(out.wait_cycles) +
          " run_cycles=" + std::to_string(out.run_cycles) +
          " preemptions=" + std::to_string(out.preemptions) +
          " fragments=" + std::to_string(out.fragments_total));
  RecordTerminal(out);
}

void QueryService::RecordAdmission(const QueryOutcome& out) {
  obs::MetricsRegistry::Global().CounterAdd(
      "service_admissions_total",
      {{"decision", AdmissionDecisionName(out.admission)},
       {"tenant", out.tenant}});
}

void QueryService::RecordTerminal(const QueryOutcome& out) {
  // Exactly one sample per submitted query (Finalize, or the reject paths
  // that never reach it), so Σ service_admissions_total ==
  // Σ service_outcomes_total reconciles after every Drain.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::MetricLabels tenant = {{"tenant", out.tenant}};
  reg.CounterAdd("service_outcomes_total",
                 {{"status", StatusCodeToString(out.status.code())},
                  {"tenant", out.tenant}});
  reg.HistogramObserve("service_wait_cycles", tenant, out.wait_cycles);
  reg.HistogramObserve("service_run_cycles", tenant, out.run_cycles);
  reg.HistogramObserve("service_query_preemptions", tenant,
                       static_cast<double>(out.preemptions));
  if (out.kernels_launched > 0) {
    reg.CounterAdd("service_kernels_launched_total", tenant,
                   static_cast<uint64_t>(out.kernels_launched));
  }
}

Status QueryService::RunPasses(std::vector<Run>& batch,
                               std::optional<int> floor) {
  uint64_t pass = 0;
  for (;;) {
    ProcessArrivals(batch);

    std::vector<Run*> runnable;
    double next_arrival = kInf;
    bool have_queued = false;
    for (Run& r : batch) {
      if (r.done) continue;
      if (!r.arrived) {
        next_arrival = std::min(next_arrival, r.request.arrival_cycles);
        continue;
      }
      if (floor && r.request.priority <= *floor) continue;
      if (r.reserved) {
        runnable.push_back(&r);
      } else {
        have_queued = true;
      }
    }

    if (runnable.empty()) {
      // A nested pass runs what is runnable now and returns; waiting is
      // the interrupted query's turn to use the device.
      if (floor) break;
      if (next_arrival < kInf) {
        const double now = device_.elapsed_cycles();
        if (next_arrival > now) {
          obs::TraceInstant(device_, "sched:idle",
                            "no runnable query; advancing clock " +
                                std::to_string(next_arrival - now) +
                                " cycles to the next arrival");
          obs::MetricsRegistry::Global().CounterAdd(
              "sched_idle_advances_total");
          device_.AdvanceClock(next_arrival - now);
          idle_cycles_ += device_.elapsed_cycles() - now;
        }
        continue;
      }
      if (have_queued) {
        RetryQueuedIdle(batch);
        continue;
      }
      break;  // Everything terminal.
    }

    // Strict priority: only the highest tier present gets fragment turns.
    int tier = runnable.front()->request.priority;
    for (const Run* r : runnable) tier = std::max(tier, r->request.priority);
    std::vector<Run*> members;
    for (Run* r : runnable) {
      if (r->request.priority == tier) members.push_back(r);
    }
    // When a higher-priority query has arrived but cannot reserve memory,
    // interleaving the running tier only delays the first release it is
    // waiting for (every member finishes late instead of one finishing
    // early). Focus on completion in that case: run the member with the
    // least remaining work until it releases its reservation.
    const auto memory_starved_above = [&batch, tier]() {
      for (const Run& r : batch) {
        if (!r.done && r.arrived && !r.reserved &&
            r.request.priority > tier) {
          return true;
        }
      }
      return false;
    };

    if (members.size() > 1) {
      if (memory_starved_above()) {
        // Shortest-remaining-first, sticky across broken passes:
        // the most advanced member keeps the focus until it frees its
        // reservation, instead of re-rotating to a fresh member and
        // stretching the starved waiter's latency.
        std::stable_sort(members.begin(), members.end(),
                         [](const Run* a, const Run* b) {
                           return a->plan.units().size() - a->next_unit <
                                  b->plan.units().size() - b->next_unit;
                         });
      } else {
        // Seeded rotation: which member a pass starts at must not always
        // favor low submission ids, but must replay identically for a
        // given seed.
        const size_t offset = static_cast<size_t>(
            SplitMix64(sched_seed_ ^ pass) % members.size());
        std::rotate(members.begin(), members.begin() + offset,
                    members.end());
      }
    }
    uint64_t min_need = 0;
    for (const Run* r : members) {
      const uint64_t need = std::max<uint64_t>(r->need, 1);
      min_need = min_need == 0 ? need : std::min(min_need, need);
    }

    bool break_pass = false;
    for (Run* q : members) {
      if (q->done || !q->reserved) continue;
      // Deficit-weighted round-robin: service share proportional to the
      // reserved bytes (a tenant that reserves more gets more device time
      // per pass), clamped so one huge reservation cannot own a whole pass.
      const double weight = std::clamp(
          static_cast<double>(std::max<uint64_t>(q->need, 1)) /
              static_cast<double>(min_need),
          1.0, 4.0);
      q->deficit += kQuantumCycles * weight;
      while (!q->done && (q->deficit > 0 || memory_starved_above())) {
        double turn_cycles = 0;
        GPUJOIN_RETURN_IF_ERROR(RunFragmentTurn(*q, batch, &turn_cycles));
        GPUJOIN_RETURN_IF_ERROR(nested_error_);
        q->deficit -= turn_cycles;
        // The turn may have admitted queued work or reached an arrival
        // that outranks this tier (one due at the turn's last cycle, or
        // during a cpux turn that advances no clock); if so, restart the
        // pass on the new tier immediately.
        ProcessArrivals(batch);
        for (const Run& r : batch) {
          if (!r.done && r.arrived && r.reserved &&
              r.request.priority > tier) {
            break_pass = true;
            break;
          }
        }
        if (break_pass) break;
      }
      if (break_pass) break;
    }
    ++pass;
    obs::MetricsRegistry::Global().CounterAdd("sched_passes_total");
  }
  return Status::OK();
}

Status QueryService::Drain() {
  std::vector<Run> batch = std::move(pending_);
  pending_.clear();
  nested_error_ = Status::OK();
  Status st = RunPasses(batch, std::nullopt);
  if (!st.ok()) {
    // Broken invariant: unwind the remaining reservations and queue counts
    // so the budget is consistent, then surface the error.
    for (Run& r : batch) {
      if (r.reserved) ReleaseReservation(r);
      if (!r.done && r.arrived && !r.reserved) {
        TenantState& t = ResolveTenant(r.request.tenant);
        if (t.stats.queued > 0) t.stats.queued--;
      }
    }
  }
  return st;
}

}  // namespace gpujoin::service
