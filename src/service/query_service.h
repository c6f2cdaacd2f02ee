// Multi-tenant query service: admission control plus a deterministic
// deficit-weighted round-robin scheduler over the resilient join / group-by
// entry points (DESIGN.md §11 admission, §13 scheduling).
//
// A QueryService owns one device's memory budget, split into named
// per-tenant quotas (service/tenant.h). Submitting a query estimates its
// device-memory footprint host-side (stats::EstimateJoinMemory /
// EstimateGroupByMemory — no simulated cycles are spent) and either
//   * RESERVES the estimate against the tenant's quota (borrowing a
//     bounded amount from the unreserved pool when allowed) and admits,
//   * QUEUES it (structured backpressure) when the quota or budget is
//     currently oversubscribed but the query could fit later,
//   * DEFERS it when its arrival_cycles lies in the simulated future
//     (admission is evaluated at arrival during Drain), or
//   * REJECTS it with a structured kResourceExhausted (global budget /
//     queue) or kTenantOverQuota (tenant quota, borrow allowance, or
//     tenant queue) admission error.
//
// Drain() does not run admitted queries to completion in admission order:
// each query is decomposed into resumable fragments at the existing
// lifecycle seams (join::FragmentPlan) and a deficit-weighted round-robin
// — weighted by each query's reserved bytes — interleaves fragments of all
// runnable queries, so a long scan cannot starve short lookups. Strict
// priority tiers ride on top, and preemption is work-conserving: when a
// higher-priority query arrives while a fragment runs, the device calls
// the fragment's preemption hook at its next seam (a kernel boundary, or
// inside a host transfer / clock advance exactly at the arrival cycle),
// the hook runs the arrived higher tiers to completion nested on the same
// device, and the interrupted fragment then continues where it stopped —
// nothing is discarded or re-run. Only queries that already hold their
// admission reservation run nested, so memory resident at the same time
// stays within the budget. Reservations are released on EVERY exit path,
// so the budget always returns to zero once the service drains.
//
// Determinism: fragment decomposition, quota arithmetic, deficit updates,
// and preemption points are all functions of host-side estimates and the
// simulated clock; round-robin tie-breaks rotate by a seeded hash of the
// pass index. A drained workload is bit-identical on replay and at any
// GPUJOIN_SIM_THREADS fan-out. Every scheduling decision is observable:
// the scheduler emits spans (category "sched") and instants through
// obs::Tracer, so per-tenant wait/run/preempt latency is assertable from
// traces (tools/lifecycle_soak does exactly that).

#ifndef GPUJOIN_SERVICE_QUERY_SERVICE_H_
#define GPUJOIN_SERVICE_QUERY_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/resilience.h"
#include "common/status.h"
#include "groupby/resilient.h"
#include "join/resilient.h"
#include "join/out_of_core.h"
#include "ops/router.h"
#include "service/health.h"
#include "service/tenant.h"
#include "stats/estimator.h"
#include "storage/table.h"
#include "vgpu/device.h"
#include "vgpu/lifecycle.h"

namespace gpujoin::service {

/// Per-query lifecycle knobs carried by a submission.
struct QueryLifecycleOptions {
  /// Cancellation handle; keep a copy and RequestCancel() to stop the query
  /// at its next cooperative seam.
  vgpu::CancelToken token;
  /// Relative simulated-cycle budget measured from the query's start of
  /// execution (not submission). <= 0 disables the deadline. With
  /// interleaving the clock keeps running while the query is preempted —
  /// it is a latency deadline, not a device-time budget.
  double deadline_cycles = 0;
  /// Test knob: trip the cancel token when the Nth kernel of this query
  /// launches (1-based; 0 = disarmed; counts across the query's fragments).
  /// Mirrors GPUJOIN_CANCEL_AT_KERNEL.
  uint64_t cancel_at_kernel = 0;
};

enum class QueryKind { kJoin, kGroupBy };

/// One query submission. Input tables are host staging state owned by the
/// caller and must stay alive until Drain() returns.
struct QueryRequest {
  std::string name = "query";
  QueryKind kind = QueryKind::kJoin;

  // kJoin: r ⋈ s on column 0, via RunJoinResilient.
  join::JoinAlgo join_algo = join::JoinAlgo::kPhjOm;
  join::ResilienceOptions join_options;
  const HostTable* r = nullptr;
  const HostTable* s = nullptr;

  // kGroupBy: group `r` by column 0, via RunGroupByResilient (`s` unused).
  groupby::GroupByAlgo groupby_algo = groupby::GroupByAlgo::kHashPartitioned;
  groupby::GroupBySpec groupby_spec;
  groupby::GroupByResilienceOptions groupby_options;

  QueryLifecycleOptions lifecycle;

  /// Execution backend for this query's fragments: unset = the service's
  /// default_backend; kAuto = per-fragment cost-based routing
  /// (ops::RouteJoin/RouteGroupBy); kCpux/kVgpu force a backend. cpux
  /// fragments run host-side and consume ZERO simulated cycles (no PCIe
  /// charges, no kernels), so cycle-based deadlines and cancel_at_kernel
  /// only trip on vgpu fragments; a cpux resource failure falls back to the
  /// vgpu resilient path (recorded as a "backend_fallback" trace instant).
  std::optional<ops::Backend> backend;

  // --- Multi-tenant scheduling (DESIGN.md §13) ---

  /// Quota the reservation is charged to ("" = "default"). Tenants not
  /// named in ServiceOptions::tenants get an implicit full-budget quota.
  std::string tenant;
  /// Strict priority tier: the scheduler only runs fragments of the
  /// highest tier present, and a higher-priority arrival runs nested at
  /// the running query's next seam. Default 0 (batch).
  int priority = 0;
  /// Simulated-cycle arrival time. A submission whose arrival lies in the
  /// future is DEFERRED: it models an asynchronous Submit racing a running
  /// Drain, deterministically — admission happens when the simulated clock
  /// reaches it. <= the current clock means "available immediately".
  double arrival_cycles = 0;
  /// Caller-supplied admission estimate in bytes (0 = run the host-side
  /// estimators). Lets external planners override the reservation size.
  uint64_t estimate_bytes_override = 0;
  /// Fragment decomposition override: -1 = scheduler policy
  /// (kFragmentTargetFraction), 0 = force a single fragment, >0 = force
  /// 2^n fragments. Capped at kMaxFragmentBits.
  int fragment_bits_override = -1;
};

/// How admission classified a submission.
enum class AdmissionDecision { kAdmitted, kQueued, kRejected, kDeferred };

const char* AdmissionDecisionName(AdmissionDecision d);

/// Final record of one submitted query.
struct QueryOutcome {
  std::string name;
  std::string tenant;
  int priority = 0;
  /// Final admission state (a deferred/queued submission that later
  /// reserved reads kAdmitted after Drain).
  AdmissionDecision admission = AdmissionDecision::kAdmitted;
  /// Execution status: OK, kCancelled, kDeadlineExceeded,
  /// kResourceExhausted (post-ladder or admission), kTenantOverQuota
  /// (admission backpressure), kUnavailable (transient faults exhausted the
  /// service retry limit), or the rejection for kRejected queries.
  Status status = Status::OK();
  /// Result rows, downloaded to host (empty unless status is OK). For a
  /// fragmented query, fragment partials concatenated in fixed fragment
  /// order — deterministic, but a different row order than an
  /// unfragmented run of the same query.
  HostTable output;
  uint64_t output_rows = 0;
  /// Max resilience-ladder attempts consumed by any fragment (0 for
  /// rejected/unrun queries, 1 = every fragment succeeded first try).
  int attempts = 0;
  /// The admission estimate reserved while the query ran.
  stats::MemoryEstimate estimate;
  /// Backend that executed the query's fragments: "vgpu", "cpux",
  /// "auto:<chosen>" for routed queries, with "->vgpu" appended when the
  /// cross-backend OOM fallback fired. Empty for queries that never ran.
  std::string backend;
  /// Bytes of the reservation borrowed beyond the tenant quota.
  uint64_t borrowed_bytes = 0;

  // --- Scheduling telemetry (simulated cycles) ---
  /// Fragments in the plan / fragment turns actually executed. Preemption
  /// never re-runs a fragment, so the two are equal unless a transient
  /// fault re-ran one (or the query stopped early).
  int fragments_total = 0;
  int fragment_turns = 0;
  /// Times a fragment of this query was interrupted at a seam while
  /// higher-priority turns ran nested (a seam where the arrival could not
  /// run — queued or rejected — does not count).
  int preemptions = 0;
  /// Fragment re-executions after a transient fault (kUnavailable) that
  /// exhausted the ladder's own retry budget.
  int transient_retries = 0;
  /// Fragment turns hedged to the surviving backend because the resolved
  /// backend's circuit breaker was open.
  int hedged_fragments = 0;
  double submitted_at_cycles = 0;
  /// Clock at the first fragment turn / at finalization (0/0 if never run).
  double started_at_cycles = 0;
  double finished_at_cycles = 0;
  /// started - submitted (admission + queue + arrival wait).
  double wait_cycles = 0;
  /// Cycles of the query's own work: the sum of its turns, less any
  /// higher-priority turns nested inside them. With the service's idle and
  /// backoff cycles, the run_cycles of all outcomes sum to the clock
  /// advance of a Drain.
  double run_cycles = 0;
  /// Kernels launched while the query's lifecycle control was installed.
  uint64_t kernels_launched = 0;
};

/// Deficit quantum in simulated cycles credited per round-robin pass. Sized
/// near one fragment turn's cost (PCIe up + body + PCIe down) at test
/// scale, so a pass grants each runnable query a fragment or two — a
/// quantum much larger than the workload degenerates to run-to-completion.
inline constexpr double kQuantumCycles = 25'000;
/// Auto-fragmentation target: a query whose estimate exceeds this fraction
/// of the budget is split until the per-fragment share fits
/// (join::DeriveFragmentBits).
inline constexpr double kFragmentTargetFraction = 0.25;
/// Cap on fragment bits (auto and per-request overrides).
inline constexpr int kMaxFragmentBits = 6;

/// Scheduler policy: deficit-weighted round-robin under strict priority
/// tiers, with work-conserving preemption.
struct SchedulerOptions {
  /// Seed for the pass-rotation tie-break (which runnable query a pass
  /// starts at), so equal-deficit ties do not always favor low ids.
  uint64_t seed = 0x5eedc0ffee15600dull;
};

struct ServiceOptions {
  /// Admission budget in bytes; 0 = the device's global memory capacity.
  uint64_t budget_bytes = 0;
  /// Queued submissions allowed across all tenants before Submit rejects
  /// with backpressure.
  size_t max_queue = 16;
  /// Named tenant quotas. Tenants not listed (and the "" / "default"
  /// tenant) get an implicit quota of the full budget with no borrowing
  /// and a queue limit of max_queue.
  std::vector<TenantQuota> tenants;
  /// Paces admission retries for queued queries when the scheduler is
  /// otherwise idle (delays are charged to the simulated clock).
  BackoffPolicy backoff;
  SchedulerOptions scheduler;
  /// Backend for queries that do not set QueryRequest::backend. The
  /// service default stays kVgpu so the simulated-cycle accounting of
  /// existing workloads is untouched; GPUJOIN_BACKEND overrides this at
  /// construction (unset or unparsable leaves it alone).
  ops::Backend default_backend = ops::Backend::kVgpu;
  /// Worker threads for the service-owned cpux context (created lazily on
  /// the first cpux fragment).
  int cpux_threads = 1;
  /// Circuit-breaker thresholds for the per-backend health model
  /// (service/health.h): transient faults that exhaust the ladder's own
  /// retry budget feed the breaker keyed (backend, fault_kind); an open
  /// breaker quarantines the backend and hedges fragments to the survivor.
  BreakerOptions breaker;
  /// Fragment re-executions a query may spend on transient faults before
  /// its kUnavailable becomes terminal. Sized above breaker.trip_threshold
  /// so a persistently faulting backend trips its breaker — and the
  /// remaining retries hedge to the healthy backend — before the budget
  /// runs out.
  int transient_retry_limit = 8;
};

/// A configured tenant's quota plus its live accounting.
struct TenantState {
  TenantQuota quota;
  TenantStats stats;
};

/// Single-device query service. Submissions accumulate (reserving budget
/// immediately when it is available); Drain() interleaves fragments of
/// every runnable query on the simulator's single thread until all
/// submissions reach a terminal outcome.
class QueryService {
 public:
  explicit QueryService(vgpu::Device& device, ServiceOptions options = {});

  /// Admits, queues, defers, or rejects the request. Returns the query id
  /// (index into outcomes()) in all cases; rejection is recorded in the
  /// outcome's status rather than thrown, so a full workload's fate is
  /// inspectable in one place. Returns InvalidArgument for malformed
  /// requests (missing tables).
  Result<int> Submit(QueryRequest request);

  /// Runs every pending submission to a terminal outcome. Always leaves
  /// reserved_bytes() == 0 and the device lifecycle-free, whatever the mix
  /// of outcomes. Returns the first Internal error encountered (a leak or
  /// a broken invariant); per-query cancellations/deadlines/OOMs/quota
  /// rejections are recorded in their outcomes, not returned.
  Status Drain();

  const std::vector<QueryOutcome>& outcomes() const { return outcomes_; }
  const QueryOutcome& outcome(int id) const { return outcomes_[id]; }

  /// Bytes currently reserved against the budget (all tenants).
  uint64_t reserved_bytes() const { return reserved_bytes_; }
  uint64_t budget_bytes() const { return budget_bytes_; }
  /// Submissions not yet drained (admitted, queued, or deferred).
  size_t pending() const { return pending_.size(); }

  /// The service-owned cpux provider (created lazily on first use; this
  /// accessor forces creation). Exposed so callers and tests can inspect
  /// the context or arm its fault injector, mirroring
  /// ops::Router::cpux_provider().
  ops::CpuxProvider& cpux_provider() { return Cpux(); }

  /// Per-tenant quota state and counters, keyed by tenant name. Tenants
  /// appear on first use or configuration; std::map iteration order makes
  /// reports deterministic.
  const std::map<std::string, TenantState>& tenants() const {
    return tenants_;
  }
  /// Null when the tenant has never been configured or used.
  const TenantState* tenant(const std::string& name) const;

  /// The per-backend circuit-breaker state (read-only; the service owns
  /// every transition). Tests and the chaos soak reconcile its transition
  /// counts against the metrics registry.
  const BackendHealth& health() const { return health_; }

  /// Simulated cycles the drain advanced the clock with nothing runnable
  /// (waiting for the next arrival), and cycles spent in admission-retry
  /// and transient-retry backoff, since construction.
  double idle_cycles() const { return idle_cycles_; }
  double backoff_cycles() const { return backoff_cycles_; }

 private:
  /// Scheduler-side state of one not-yet-finished submission.
  struct Run {
    int id = 0;
    QueryRequest request;
    join::FragmentPlan plan;
    size_t next_unit = 0;
    double deficit = 0;
    uint64_t need = 0;
    uint64_t borrowed = 0;
    bool arrived = false;   // arrival_cycles reached (admission evaluated)
    bool reserved = false;  // holds a budget reservation
    bool started = false;   // first fragment turn taken
    bool done = false;      // terminal outcome recorded
    int transient_retries = 0;  // kUnavailable re-executions so far
    vgpu::LifecycleControl control;
    HostTable partial;
    uint64_t partial_rows = 0;
    bool partial_init = false;
  };

  stats::MemoryEstimate Estimate(const QueryRequest& request) const;
  TenantState& ResolveTenant(const std::string& name);
  int ResolveFragmentBits(const QueryRequest& request, uint64_t need) const;
  size_t QueuedCount() const;

  /// Overflow-safe reservation attempt against tenant quota + borrow
  /// allowance + global budget. On success flips run.reserved and charges
  /// the tenant; returns false without side effects otherwise.
  bool TryReserve(Run& run);
  void ReleaseReservation(Run& run);

  /// Scheduling passes until nothing more can run. The top-level drain
  /// (`floor` unset) also advances the clock to the next arrival and paces
  /// queued admissions. A nested pass (`floor` set) runs only tiers above
  /// `floor`, at the current clock, and returns as soon as none of them is
  /// runnable — it never advances the clock idly.
  Status RunPasses(std::vector<Run>& batch, std::optional<int> floor);
  /// The preemption hook body: a nested pass over the tiers above
  /// `interrupted`'s, run at one of its fragment's seams.
  void RunNested(std::vector<Run>& batch, Run& interrupted);
  /// The earliest future arrival that outranks `priority` (infinity when
  /// none): the preemption point armed for a turn at that tier.
  double NextPreemptAt(const std::vector<Run>& batch, int priority) const;
  /// Advances the clock by a backoff delay and accounts it.
  void Backoff(double cycles);
  /// Classifies an arrived submission: reserve (admit), queue under the
  /// global and tenant queue limits, or reject with backpressure.
  void AdmitOrQueue(Run& run);
  /// Evaluates admission for waiting submissions whose arrival time has
  /// been reached (admit / queue / reject).
  void ProcessArrivals(std::vector<Run>& batch);
  /// Admission-order sweep over queued submissions after a reservation
  /// release; no pacing (budget just changed).
  void AdmitQueuedAfterRelease(std::vector<Run>& batch);
  /// Idle path: nothing runnable, no future arrivals — paced, bounded
  /// admission retries for queued submissions; queries whose retry budget
  /// exhausts get a structured backpressure outcome.
  void RetryQueuedIdle(std::vector<Run>& batch);
  /// Runs one fragment turn of `run` (arming the preemption point), and
  /// merges / retries / finalizes according to the turn's status.
  /// `own_cycles` receives the turn's cycles less nested higher-priority
  /// work. Returns Internal on a broken invariant (leak), OK otherwise.
  Status RunFragmentTurn(Run& run, std::vector<Run>& batch,
                         double* own_cycles);
  /// The current fragment unit as an operator: what the router routes and
  /// the cpux provider runs. Only the member matching the request kind is
  /// used.
  struct UnitOp {
    ops::JoinOp join;
    ops::GroupByOp groupby;
  };
  /// One fragment body: upload → operate → download on the current unit
  /// (or a host-side cpux run when `use_cpux`, with vgpu OOM fallback).
  /// `executed` reports the backend the unit actually ran on (differs from
  /// the resolved one when the cpux → vgpu OOM fallback fires).
  Status RunUnit(Run& run, const UnitOp& op, bool use_cpux,
                 ops::Backend* executed);
  /// Routes one fragment unit through ops::RouteJoin/RouteGroupBy (request
  /// override → service default → cost; hedged off a quarantined backend)
  /// and names the choice for telemetry: "<backend>" when forced,
  /// "auto:<backend>" when costed, "hedge:<backend>" when hedged.
  /// Non-const: consulting the breaker can move it open → half-open.
  bool ResolveUseCpux(const Run& run, const UnitOp& op, std::string* label);
  /// The lazily created service-owned cpux provider.
  ops::CpuxProvider& Cpux();
  void Finalize(Run& run, Status status);
  /// Meters the submission-time admission decision (exactly once per
  /// submitted query) into the obs registry.
  static void RecordAdmission(const QueryOutcome& out);
  /// Meters a terminal outcome (status counter + per-tenant wait/run/
  /// preemption histograms), exactly once per submitted query — from
  /// Finalize, or from the reject paths that never reach it.
  static void RecordTerminal(const QueryOutcome& out);

  vgpu::Device& device_;
  uint64_t budget_bytes_ = 0;
  size_t max_queue_ = 0;
  BackoffPolicy backoff_;
  uint64_t sched_seed_ = 0;
  ops::Backend default_backend_ = ops::Backend::kVgpu;
  int cpux_threads_ = 1;
  int transient_retry_limit_ = 8;
  BackendHealth health_;
  std::unique_ptr<ops::CpuxProvider> cpux_;
  uint64_t reserved_bytes_ = 0;
  std::map<std::string, TenantState> tenants_;
  std::vector<Run> pending_;
  std::vector<QueryOutcome> outcomes_;
  double idle_cycles_ = 0;
  double backoff_cycles_ = 0;
  /// Fragment turns taken since construction (nested ones included).
  uint64_t turns_taken_ = 0;
  /// First broken invariant met inside a nested pass, which cannot return
  /// it through the device's hook; the enclosing pass returns it.
  Status nested_error_;
};

}  // namespace gpujoin::service

#endif  // GPUJOIN_SERVICE_QUERY_SERVICE_H_
