// Multi-tenant scheduler (DESIGN.md §13): fragment decomposition
// correctness, deficit-weighted round-robin interleaving, work-conserving
// priority preemption — higher tiers run nested at every kernel seam and
// inside every transfer, two deep, through outer deadlines, cancels and
// nested transient faults, with own-cycle accounting that sums back to
// the clock — per-tenant quotas with bounded borrowing and structured
// kTenantOverQuota backpressure, and the determinism contract — a drained
// workload replays bit-identically across repeats and across
// GPUJOIN_SIM_THREADS fan-outs, and every scheduling decision is
// assertable from obs::Tracer spans and instants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/explain.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "join/out_of_core.h"
#include "service/query_service.h"
#include "storage/table.h"
#include "test_util.h"
#include "vgpu/device.h"
#include "workload/generator.h"

namespace gpujoin::service {
namespace {

using ::gpujoin::join::FragmentPlan;
using ::gpujoin::join::FragmentUnit;
using ::gpujoin::testing::MakeTestDevice;

workload::JoinWorkload JoinWorkloadOf(uint64_t r_rows, uint64_t s_rows,
                                      uint64_t seed) {
  workload::JoinWorkloadSpec spec;
  spec.r_rows = r_rows;
  spec.s_rows = s_rows;
  spec.r_payload_cols = 1;
  spec.s_payload_cols = 1;
  spec.seed = seed;
  return workload::GenerateJoinInput(spec).ValueOrDie();
}

HostTable GroupByWorkloadOf(uint64_t rows, uint64_t groups, uint64_t seed) {
  workload::GroupByWorkloadSpec spec;
  spec.rows = rows;
  spec.num_groups = groups;
  spec.payload_cols = 1;
  spec.seed = seed;
  return workload::GenerateGroupByInput(spec).ValueOrDie();
}

QueryRequest JoinRequest(const workload::JoinWorkload& w, std::string name) {
  QueryRequest req;
  req.name = std::move(name);
  req.kind = QueryKind::kJoin;
  req.join_algo = join::JoinAlgo::kPhjOm;
  req.r = &w.r;
  req.s = &w.s;
  return req;
}

QueryRequest GroupByRequest(const HostTable& input, std::string name) {
  QueryRequest req;
  req.name = std::move(name);
  req.kind = QueryKind::kGroupBy;
  req.groupby_algo = groupby::GroupByAlgo::kHashPartitioned;
  req.groupby_spec.aggregates.push_back({1, groupby::AggOp::kSum});
  req.r = &input;
  return req;
}

/// Order-sensitive FNV-1a over every cell: equal only for bit-identical
/// outputs (same rows, same order).
uint64_t OrderedChecksum(const HostTable& t) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(t.num_rows());
  for (const HostColumn& c : t.columns) {
    for (int64_t v : c.values) mix(static_cast<uint64_t>(v));
  }
  return h;
}

/// Order-independent row fingerprint: a fragmented query's output is a
/// permutation of the unfragmented output, so compare row multisets.
uint64_t UnorderedRowChecksum(const HostTable& t) {
  uint64_t sum = 0;
  for (uint64_t i = 0; i < t.num_rows(); ++i) {
    uint64_t row = 1469598103934665603ull;
    for (const HostColumn& c : t.columns) {
      row ^= static_cast<uint64_t>(c.values[i]) + 0x9e3779b97f4a7c15ull +
             (row << 6) + (row >> 2);
    }
    sum += row;  // Commutative combine.
  }
  return sum;
}

/// Everything that must replay identically for one query.
struct OutcomeFingerprint {
  StatusCode code = StatusCode::kOk;
  std::string message;
  uint64_t output_rows = 0;
  uint64_t checksum = 0;
  int fragments_total = 0;
  int fragment_turns = 0;
  int preemptions = 0;
  double wait_cycles = 0;
  double run_cycles = 0;
  double finished_at = 0;

  bool operator==(const OutcomeFingerprint& o) const {
    return code == o.code && message == o.message &&
           output_rows == o.output_rows && checksum == o.checksum &&
           fragments_total == o.fragments_total &&
           fragment_turns == o.fragment_turns &&
           preemptions == o.preemptions && wait_cycles == o.wait_cycles &&
           run_cycles == o.run_cycles && finished_at == o.finished_at;
  }
};

OutcomeFingerprint Fingerprint(const QueryOutcome& out) {
  OutcomeFingerprint fp;
  fp.code = out.status.code();
  fp.message = out.status.message();
  fp.output_rows = out.output_rows;
  fp.checksum = OrderedChecksum(out.output);
  fp.fragments_total = out.fragments_total;
  fp.fragment_turns = out.fragment_turns;
  fp.preemptions = out.preemptions;
  fp.wait_cycles = out.wait_cycles;
  fp.run_cycles = out.run_cycles;
  fp.finished_at = out.finished_at_cycles;
  return fp;
}

/// Checks the service's own-cycle accounting after a Drain on a fresh
/// device: outcome run_cycles plus idle and backoff cycles sum to the
/// clock, and each tenant's wait/run counters sum its outcomes'.
void ExpectCyclesSumBack(const QueryService& service,
                         const vgpu::Device& device) {
  double run = 0;
  std::map<std::string, std::pair<double, double>> by_tenant;
  for (const QueryOutcome& out : service.outcomes()) {
    run += out.run_cycles;
    by_tenant[out.tenant].first += out.wait_cycles;
    by_tenant[out.tenant].second += out.run_cycles;
  }
  const double advance = device.elapsed_cycles();
  EXPECT_NEAR(run + service.idle_cycles() + service.backoff_cycles(), advance,
              1e-9 * advance + 1e-6);
  for (const auto& [name, sums] : by_tenant) {
    const TenantState* t = service.tenant(name);
    ASSERT_NE(t, nullptr) << name;
    EXPECT_NEAR(t->stats.wait_cycles, sums.first, 1e-9 * advance + 1e-6);
    EXPECT_NEAR(t->stats.run_cycles, sums.second, 1e-9 * advance + 1e-6);
  }
}

// ---------------------------------------------------------------------------
// Fragment decomposition
// ---------------------------------------------------------------------------

TEST(FragmentPlanTest, JoinPlanCoPartitionsAndCoversAllRows) {
  const workload::JoinWorkload w = JoinWorkloadOf(1 << 10, 1 << 11, 3);
  const FragmentPlan plan = FragmentPlan::ForJoin(w.r, w.s, 3).ValueOrDie();
  EXPECT_TRUE(plan.fragmented());
  EXPECT_LE(plan.units().size(), size_t{1} << 3);

  uint64_t r_rows = 0;
  for (const FragmentUnit& u : plan.units()) {
    r_rows += u.r->num_rows();
    // Co-partitioning: every key of a pair lands in the same radix digit,
    // so a fragment join is self-contained.
    std::map<int64_t, bool> r_keys;
    for (int64_t k : u.r->columns[0].values) r_keys[k] = true;
    for (int64_t k : u.s->columns[0].values) {
      const int64_t digit = k & ((1 << 3) - 1);
      EXPECT_EQ(digit, u.index & ((1 << 3) - 1));
      (void)digit;
    }
    for (const auto& [k, unused] : r_keys) {
      EXPECT_EQ(k & ((1 << 3) - 1), u.index & ((1 << 3) - 1));
    }
  }
  // Rows only go missing via dropped pairs whose other side is empty; with
  // 2^10 build rows over 8 digits every digit is populated.
  EXPECT_EQ(r_rows, w.r.num_rows());
}

TEST(FragmentPlanTest, SingleFragmentAliasesCallerTables) {
  const workload::JoinWorkload w = JoinWorkloadOf(64, 64, 5);
  const FragmentPlan plan = FragmentPlan::ForJoin(w.r, w.s, 0).ValueOrDie();
  EXPECT_FALSE(plan.fragmented());
  ASSERT_EQ(plan.units().size(), 1u);
  EXPECT_EQ(plan.units()[0].r, &w.r);  // No copy: bit-identity with the
  EXPECT_EQ(plan.units()[0].s, &w.s);  // pre-scheduler execution path.
}

TEST(FragmentPlanTest, DeriveBitsScalesWithPressure) {
  // The scheduler's policy: [0, 6] bits against a quarter of the budget.
  EXPECT_EQ(join::DeriveFragmentBits(100, 1000 * 0.25, 0, 6), 0);
  EXPECT_EQ(join::DeriveFragmentBits(500, 1000 * 0.25, 0, 6), 1);
  EXPECT_EQ(join::DeriveFragmentBits(1000, 1000 * 0.25, 0, 6), 2);
  EXPECT_EQ(join::DeriveFragmentBits(1u << 20, 1000 * 0.25, 0, 6), 6);  // Cap.
  EXPECT_EQ(join::DeriveFragmentBits(1u << 20, 1000 * 0.25, 0, 0), 0);
  EXPECT_EQ(join::DeriveFragmentBits(1u << 20, 1000 * 0.0, 0, 6), 0);
}

// ---------------------------------------------------------------------------
// Fragmented execution correctness
// ---------------------------------------------------------------------------

TEST(SchedulerTest, FragmentedJoinMatchesDirectRowMultiset) {
  const workload::JoinWorkload w = JoinWorkloadOf(1 << 10, 1 << 11, 17);

  vgpu::Device direct_dev = MakeTestDevice();
  ASSERT_OK_AND_ASSIGN(join::ResilientJoinResult direct,
                       join::RunJoinResilient(direct_dev, join::JoinAlgo::kPhjOm,
                                              w.r, w.s, {}));

  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  QueryRequest req = JoinRequest(w, "fragmented");
  req.fragment_bits_override = 2;
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));
  ASSERT_OK(service.Drain());

  const QueryOutcome& out = service.outcome(id);
  ASSERT_OK(out.status);
  EXPECT_EQ(out.fragments_total, 4);
  EXPECT_GE(out.fragment_turns, 4);
  EXPECT_EQ(out.output_rows, direct.output_rows);
  EXPECT_EQ(UnorderedRowChecksum(out.output), UnorderedRowChecksum(direct.output));
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(SchedulerTest, FragmentedGroupByMatchesDirectRowMultiset) {
  const HostTable g = GroupByWorkloadOf(1 << 11, 1 << 6, 23);

  vgpu::Device direct_dev = MakeTestDevice();
  uint64_t direct_groups = 0;
  uint64_t direct_sum = 0;
  {
    groupby::GroupBySpec spec;
    spec.aggregates.push_back({1, groupby::AggOp::kSum});
    ASSERT_OK_AND_ASSIGN(
        groupby::ResilientGroupByResult direct,
        groupby::RunGroupByResilient(direct_dev,
                                     groupby::GroupByAlgo::kHashPartitioned,
                                     g, spec, {}));
    direct_groups = direct.output_rows;
    direct_sum = UnorderedRowChecksum(direct.output);
  }

  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  QueryRequest req = GroupByRequest(g, "fragmented_gb");
  req.fragment_bits_override = 2;
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));
  ASSERT_OK(service.Drain());

  const QueryOutcome& out = service.outcome(id);
  ASSERT_OK(out.status);
  // Groups never span fragments, so the group count and row multiset match.
  EXPECT_EQ(out.output_rows, direct_groups);
  EXPECT_EQ(UnorderedRowChecksum(out.output), direct_sum);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

struct WorkloadResult {
  std::vector<OutcomeFingerprint> outcomes;
  double elapsed_cycles = 0;
  uint64_t reserved_after = 0;
};

/// A mixed two-tenant workload with fragmentation, interleaving, and a
/// deferred high-priority arrival — every scheduler feature at once.
WorkloadResult RunMixedWorkload(int sim_threads) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 31);
  const workload::JoinWorkload small = JoinWorkloadOf(1 << 8, 1 << 9, 37);
  const HostTable g = GroupByWorkloadOf(1 << 10, 1 << 5, 41);

  WorkloadResult result;
  vgpu::Device device = MakeTestDevice();
  device.set_parallel_sim(sim_threads);
  ServiceOptions options;
  options.tenants.push_back({"batch", 0, 0, 8});
  options.tenants.push_back({"interactive", 0, 0, 8});
  QueryService service(device, options);

  QueryRequest a = JoinRequest(hog, "hog");
  a.tenant = "batch";
  a.fragment_bits_override = 3;
  QueryRequest b = JoinRequest(small, "small");
  b.tenant = "interactive";
  QueryRequest c = GroupByRequest(g, "gb");
  c.tenant = "batch";
  c.fragment_bits_override = 2;
  QueryRequest d = JoinRequest(small, "late_vip");
  d.tenant = "interactive";
  d.priority = 5;
  d.arrival_cycles = 400'000;

  std::vector<int> ids;
  for (QueryRequest* req : {&a, &b, &c, &d}) {
    ids.push_back(service.Submit(std::move(*req)).ValueOrDie());
  }
  EXPECT_TRUE(service.Drain().ok());

  ExpectCyclesSumBack(service, device);
  for (int id : ids) result.outcomes.push_back(Fingerprint(service.outcome(id)));
  result.elapsed_cycles = device.elapsed_cycles();
  result.reserved_after = service.reserved_bytes();
  EXPECT_TRUE(device.CheckNoLeaks().ok());
  return result;
}

TEST(SchedulerTest, MixedWorkloadReplaysBitIdentically) {
  const WorkloadResult first = RunMixedWorkload(1);
  const WorkloadResult second = RunMixedWorkload(1);
  ASSERT_EQ(first.outcomes.size(), second.outcomes.size());
  for (size_t i = 0; i < first.outcomes.size(); ++i) {
    EXPECT_TRUE(first.outcomes[i] == second.outcomes[i]) << "query " << i;
  }
  EXPECT_DOUBLE_EQ(first.elapsed_cycles, second.elapsed_cycles);
  EXPECT_EQ(first.reserved_after, 0u);
  EXPECT_EQ(second.reserved_after, 0u);
}

TEST(SchedulerTest, SchedulingIsIdenticalAcrossSimThreadCounts) {
  const WorkloadResult sequential = RunMixedWorkload(1);
  const WorkloadResult parallel = RunMixedWorkload(8);
  ASSERT_EQ(sequential.outcomes.size(), parallel.outcomes.size());
  for (size_t i = 0; i < sequential.outcomes.size(); ++i) {
    EXPECT_TRUE(sequential.outcomes[i] == parallel.outcomes[i])
        << "query " << i;
  }
  EXPECT_DOUBLE_EQ(sequential.elapsed_cycles, parallel.elapsed_cycles);
}

// ---------------------------------------------------------------------------
// Interleaving and preemption
// ---------------------------------------------------------------------------

TEST(SchedulerTest, InterleavingLetsShortQueryFinishFirst) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 43);
  const workload::JoinWorkload small = JoinWorkloadOf(1 << 7, 1 << 8, 47);

  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  QueryRequest a = JoinRequest(hog, "hog");
  a.fragment_bits_override = 3;
  QueryRequest b = JoinRequest(small, "small");
  b.fragment_bits_override = 0;
  // The hog is submitted first, yet the short query slips between its
  // fragments and completes first.
  const int hog_id = service.Submit(std::move(a)).ValueOrDie();
  const int small_id = service.Submit(std::move(b)).ValueOrDie();
  ASSERT_OK(service.Drain());
  ASSERT_OK(service.outcome(hog_id).status);
  ASSERT_OK(service.outcome(small_id).status);
  EXPECT_EQ(service.outcome(hog_id).fragments_total, 8);
  EXPECT_LT(service.outcome(small_id).finished_at_cycles,
            service.outcome(hog_id).finished_at_cycles);
  ASSERT_OK(device.CheckNoLeaks());
}

/// One query run alone on a fresh device: its ordered output checksum and
/// its preemption seams inside the turn of fragment `fragment` — the start
/// of every kernel and the midpoint of every host transfer (read from the
/// trace of the solo run).
struct SoloRun {
  uint64_t checksum = 0;
  double cycles = 0;
  uint64_t kernels = 0;
  std::vector<double> seams;
  std::vector<double> kernel_starts;  // Every kernel of the run, in order.
};

SoloRun RunSolo(QueryRequest request, int fragment) {
  SoloRun solo;
  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  const int id = service.Submit(std::move(request)).ValueOrDie();
  EXPECT_TRUE(service.Drain().ok());
  tracer.set_enabled(false);
  EXPECT_TRUE(service.outcome(id).status.ok());
  solo.checksum = OrderedChecksum(service.outcome(id).output);
  solo.cycles = device.elapsed_cycles();
  solo.kernels = service.outcome(id).kernels_launched;
  const std::string prefix = std::to_string(fragment) + "/";
  double begin = -1, end = -1;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.category != "sched") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "fragment" && value.rfind(prefix, 0) == 0) {
        begin = span.start_cycles;
        end = span.end_cycles;
      }
    }
  }
  EXPECT_GE(begin, 0) << "no turn span for fragment " << fragment;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.category == "kernel") {
      solo.kernel_starts.push_back(span.start_cycles);
    }
    if (span.start_cycles < begin || span.start_cycles >= end) continue;
    if (span.category == "kernel") {
      solo.seams.push_back(span.start_cycles);
    } else if (span.category == "transfer") {
      solo.seams.push_back(span.start_cycles + span.duration_cycles() / 2);
    }
  }
  tracer.Clear();
  return solo;
}

/// Sweeps a higher-priority arrival over every seam of one fragment of
/// `hog` at 1, 4 and 7 simulation threads (and replays the 1-thread run):
/// the arrival runs nested exactly at the seam and finishes first, the hog
/// continues where it stopped, and nothing is discarded or re-run.
void SweepPreemptionSeams(const QueryRequest& hog, const QueryRequest& vip) {
  const SoloRun solo = RunSolo(hog, /*fragment=*/1);
  const SoloRun vip_solo = RunSolo(vip, /*fragment=*/0);
  ASSERT_GT(solo.seams.size(), 2u);
  for (double seam : solo.seams) {
    std::vector<OutcomeFingerprint> reference;
    for (int threads : {1, 1, 4, 7}) {
      vgpu::Device device = MakeTestDevice();
      device.set_parallel_sim(threads);
      QueryService service(device);
      QueryRequest a = hog;
      QueryRequest b = vip;
      b.priority = 10;
      b.arrival_cycles = seam;
      const int hog_id = service.Submit(std::move(a)).ValueOrDie();
      const int vip_id = service.Submit(std::move(b)).ValueOrDie();
      ASSERT_OK(service.Drain());

      const QueryOutcome& h = service.outcome(hog_id);
      const QueryOutcome& v = service.outcome(vip_id);
      ASSERT_TRUE(h.status.ok()) << seam << " " << h.status.ToString();
      ASSERT_TRUE(v.status.ok()) << seam << " " << v.status.ToString();
      // Work-conserving: the arrival starts exactly at its seam and
      // finishes before the hog, which continues without a re-run.
      EXPECT_EQ(v.started_at_cycles, seam);
      EXPECT_LT(v.finished_at_cycles, h.finished_at_cycles);
      EXPECT_EQ(h.preemptions, 1) << seam;
      EXPECT_EQ(h.fragment_turns, h.fragments_total) << seam;
      EXPECT_EQ(v.fragment_turns, v.fragments_total) << seam;
      EXPECT_EQ(OrderedChecksum(h.output), solo.checksum) << seam;
      EXPECT_EQ(OrderedChecksum(v.output), vip_solo.checksum) << seam;
      // The hog's own work is its solo work: the nested turn is the vip's.
      // Not to the cycle: the nested kernels leave the shared L2 and DRAM
      // rows in a different state for the hog's next kernels.
      EXPECT_NEAR(h.run_cycles, solo.cycles, 1e-2 * solo.cycles);
      ExpectCyclesSumBack(service, device);
      EXPECT_EQ(service.reserved_bytes(), 0u);
      ASSERT_OK(device.CheckNoLeaks());

      std::vector<OutcomeFingerprint> fps = {Fingerprint(h), Fingerprint(v)};
      if (reference.empty()) {
        reference = fps;
      } else {
        EXPECT_TRUE(fps[0] == reference[0]) << seam << " threads " << threads;
        EXPECT_TRUE(fps[1] == reference[1]) << seam << " threads " << threads;
      }
    }
  }
}

TEST(SchedulerTest, HighPriorityArrivalPreemptsAtSeamAndResumes) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 53);
  const workload::JoinWorkload vip = JoinWorkloadOf(1 << 7, 1 << 8, 59);
  QueryRequest a = JoinRequest(hog, "hog");
  a.fragment_bits_override = 3;
  SweepPreemptionSeams(a, JoinRequest(vip, "vip"));
}

TEST(SchedulerTest, GroupByFragmentPreemptsAtEverySeam) {
  const HostTable hog = GroupByWorkloadOf(1 << 12, 1 << 7, 83);
  const HostTable vip = GroupByWorkloadOf(1 << 8, 1 << 4, 89);
  QueryRequest a = GroupByRequest(hog, "hog_gb");
  a.fragment_bits_override = 2;
  SweepPreemptionSeams(a, GroupByRequest(vip, "vip_gb"));
}

TEST(SchedulerTest, TransferInterruptedByNestedTurnSplitsIntoTwoSpans) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 53);
  const workload::JoinWorkload vip = JoinWorkloadOf(1 << 7, 1 << 8, 59);
  QueryRequest a = JoinRequest(hog, "hog");
  a.fragment_bits_override = 3;

  obs::Tracer& tracer = obs::Tracer::Global();
  auto transfers = [&tracer] {
    std::vector<const obs::SpanRecord*> out;
    for (const obs::SpanRecord& span : tracer.spans()) {
      if (span.category == "transfer") out.push_back(&span);
    }
    return out;
  };
  auto bytes_of = [](const obs::SpanRecord& span) {
    for (const auto& [key, value] : span.attrs) {
      if (key == "bytes") return std::stoull(value);
    }
    return 0ull;
  };

  // Solo: the first fragment's upload and the bytes every transfer moves.
  tracer.Clear();
  tracer.set_enabled(true);
  double upload_begin = 0, upload_end = 0;
  uint64_t solo_bytes = 0;
  size_t solo_transfers = 0;
  {
    vgpu::Device device = MakeTestDevice();
    QueryService service(device);
    service.Submit(a).ValueOrDie();
    ASSERT_OK(service.Drain());
    const auto spans = transfers();
    ASSERT_GE(spans.size(), 2u);
    EXPECT_EQ(spans[0]->name, "h2d");
    upload_begin = spans[0]->start_cycles;
    upload_end = spans[0]->end_cycles;
    for (const obs::SpanRecord* span : spans) solo_bytes += bytes_of(*span);
    solo_transfers = spans.size();
  }

  // The arrival lands inside that upload: the upload is charged up to the
  // arrival, the vip runs, and the rest of the upload follows.
  tracer.Clear();
  const double arrival = upload_begin + (upload_end - upload_begin) * 0.75;
  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  const int hog_id = service.Submit(a).ValueOrDie();
  QueryRequest b = JoinRequest(vip, "vip");
  b.priority = 10;
  b.arrival_cycles = arrival;
  const int vip_id = service.Submit(std::move(b)).ValueOrDie();
  ASSERT_OK(service.Drain());
  tracer.set_enabled(false);
  const QueryOutcome& v = service.outcome(vip_id);
  ASSERT_OK(v.status);
  EXPECT_EQ(v.started_at_cycles, arrival);

  const auto spans = transfers();
  ASSERT_EQ(spans.size(), solo_transfers + 1);
  EXPECT_EQ(spans[0]->start_cycles, upload_begin);
  EXPECT_EQ(spans[0]->end_cycles, arrival);
  EXPECT_EQ(spans[1]->name, "h2d");
  EXPECT_GE(spans[1]->start_cycles, v.finished_at_cycles);
  // Charged cycles and bytes are unchanged by the split.
  EXPECT_NEAR(spans[0]->duration_cycles() + spans[1]->duration_cycles(),
              upload_end - upload_begin, 1e-6);
  uint64_t bytes = 0;
  for (const obs::SpanRecord* span : spans) bytes += bytes_of(*span);
  EXPECT_EQ(bytes, solo_bytes);

  // The hog's turn span records the nested interval, so its own cycles —
  // what EXPLAIN shows — exclude the vip's work.
  double hog_own = 0;
  bool saw_nested = false;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.category != "sched" || span.name != "turn:hog") continue;
    hog_own += span.own_cycles();
    if (span.nested_cycles > 0) {
      saw_nested = true;
      EXPECT_DOUBLE_EQ(span.nested_cycles,
                       v.finished_at_cycles - v.started_at_cycles);
    }
  }
  EXPECT_TRUE(saw_nested);
  EXPECT_NEAR(hog_own, service.outcome(hog_id).run_cycles, 1e-6);
  const std::string explain = obs::RenderExplain(tracer, {});
  EXPECT_NE(explain.find("transfer:h2d"), std::string::npos);
  EXPECT_NE(explain.find("nested_cycles="), std::string::npos);
  tracer.Clear();
}

TEST(SchedulerTest, InterruptedPhaseSpansRecordTheNestedInterval) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 53);
  const workload::JoinWorkload vip = JoinWorkloadOf(1 << 7, 1 << 8, 59);
  QueryRequest a = JoinRequest(hog, "hog");
  a.fragment_bits_override = 3;
  const SoloRun solo = RunSolo(a, 1);
  // A kernel seam in the middle of the fragment: inside a phase span.
  const double seam = solo.seams[solo.seams.size() / 2];

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);
  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  service.Submit(a).ValueOrDie();
  QueryRequest b = JoinRequest(vip, "vip");
  b.priority = 10;
  b.arrival_cycles = seam;
  const int vid = service.Submit(std::move(b)).ValueOrDie();
  ASSERT_OK(service.Drain());
  tracer.set_enabled(false);
  const QueryOutcome& v = service.outcome(vid);
  ASSERT_OK(v.status);

  // Every span open at the seam (turn, query, attempt, phase) records the
  // nested interval; the vip's own spans are roots of their own tree.
  std::map<std::string, int> interrupted;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.nested_cycles == 0) continue;
    EXPECT_DOUBLE_EQ(span.nested_cycles,
                     v.finished_at_cycles - v.started_at_cycles);
    EXPECT_LE(span.start_cycles, seam);
    EXPECT_GE(span.end_cycles, v.finished_at_cycles);
    interrupted[span.category]++;
  }
  EXPECT_EQ(interrupted["sched"], 1);
  EXPECT_EQ(interrupted["phase"], 1);
  EXPECT_GE(interrupted["query"], 1);
  EXPECT_EQ(interrupted["kernel"], 0);
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.name == "turn:vip") EXPECT_EQ(span.parent, -1);
  }
  tracer.Clear();
}

TEST(SchedulerTest, ThreePriorityTiersNestTurnsInsideNestedTurns) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 97);
  const workload::JoinWorkload mid = JoinWorkloadOf(1 << 10, 1 << 11, 101);
  const workload::JoinWorkload top = JoinWorkloadOf(1 << 7, 1 << 8, 103);
  QueryRequest h = JoinRequest(hog, "hog");
  h.fragment_bits_override = 3;
  QueryRequest m = JoinRequest(mid, "mid");
  m.priority = 1;
  m.fragment_bits_override = 1;
  QueryRequest t = JoinRequest(top, "top");
  t.priority = 2;
  const SoloRun hog_solo = RunSolo(h, 1);
  const SoloRun mid_solo = RunSolo(m, 0);
  const SoloRun top_solo = RunSolo(t, 0);
  m.arrival_cycles = hog_solo.seams[hog_solo.seams.size() / 2];

  // Where the mid-tier query runs when nested in the hog.
  double mid_begin = 0, mid_end = 0;
  {
    vgpu::Device device = MakeTestDevice();
    QueryService service(device);
    service.Submit(h).ValueOrDie();
    const int id = service.Submit(m).ValueOrDie();
    ASSERT_OK(service.Drain());
    mid_begin = service.outcome(id).started_at_cycles;
    mid_end = service.outcome(id).finished_at_cycles;
  }
  t.arrival_cycles = mid_begin + (mid_end - mid_begin) / 2;

  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const obs::MetricsSnapshot before = reg.Snapshot();
  const int hid = service.Submit(h).ValueOrDie();
  const int mid_id = service.Submit(m).ValueOrDie();
  const int tid = service.Submit(t).ValueOrDie();
  ASSERT_OK(service.Drain());
  // The registry's double entries reconcile with nested turns too.
  const obs::MetricsSnapshot delta = reg.Snapshot().Delta(before);
  uint64_t turns = 0, preemptions = 0;
  double run_cycles = 0;
  for (const QueryOutcome& out : service.outcomes()) {
    turns += static_cast<uint64_t>(out.fragment_turns);
    preemptions += static_cast<uint64_t>(out.preemptions);
    run_cycles += out.run_cycles;
  }
  EXPECT_EQ(delta.CounterTotal("service_admissions_total"), 3u);
  EXPECT_EQ(delta.CounterTotal("service_outcomes_total"), 3u);
  EXPECT_EQ(delta.CounterTotal("sched_turns_total"), turns);
  EXPECT_EQ(delta.CounterTotal("service_backend_resolved_total"), turns);
  EXPECT_EQ(delta.CounterTotal("sched_preemptions_total"), preemptions);
  const obs::HistogramData* run_hist =
      delta.Histogram("service_run_cycles", {{"tenant", "default"}});
  ASSERT_NE(run_hist, nullptr);
  EXPECT_NEAR(run_hist->sum, run_cycles, 1e-6 * run_cycles);
  const QueryOutcome& ho = service.outcome(hid);
  const QueryOutcome& mo = service.outcome(mid_id);
  const QueryOutcome& to = service.outcome(tid);
  ASSERT_OK(ho.status);
  ASSERT_OK(mo.status);
  ASSERT_OK(to.status);
  EXPECT_EQ(mo.started_at_cycles, mid_begin);
  EXPECT_LT(to.finished_at_cycles, mo.finished_at_cycles);
  EXPECT_LT(mo.finished_at_cycles, ho.finished_at_cycles);
  EXPECT_EQ(ho.preemptions, 1);
  EXPECT_EQ(mo.preemptions, 1);  // The top tier nested inside the mid's turn.
  for (const QueryOutcome* out : {&ho, &mo, &to}) {
    EXPECT_EQ(out->fragment_turns, out->fragments_total) << out->name;
  }
  EXPECT_EQ(OrderedChecksum(ho.output), hog_solo.checksum);
  EXPECT_EQ(OrderedChecksum(mo.output), mid_solo.checksum);
  EXPECT_EQ(OrderedChecksum(to.output), top_solo.checksum);
  EXPECT_NEAR(ho.run_cycles, hog_solo.cycles, 1e-2 * hog_solo.cycles);
  EXPECT_NEAR(mo.run_cycles, mid_solo.cycles, 1e-2 * mid_solo.cycles);
  ExpectCyclesSumBack(service, device);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(SchedulerTest, OuterDeadlineTrippingWhileNestedUnwindsCleanly) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 107);
  const workload::JoinWorkload vip = JoinWorkloadOf(1 << 9, 1 << 10, 109);
  QueryRequest h = JoinRequest(hog, "hog");
  h.fragment_bits_override = 3;
  const SoloRun solo = RunSolo(h, 1);
  const double seam = solo.seams[solo.seams.size() / 2];
  const SoloRun vip_solo = RunSolo(JoinRequest(vip, "vip"), 0);

  // The hog's latency deadline expires halfway through the nested turn.
  h.lifecycle.deadline_cycles = seam + vip_solo.cycles / 2;
  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  const int hid = service.Submit(h).ValueOrDie();
  QueryRequest v = JoinRequest(vip, "vip");
  v.priority = 10;
  v.arrival_cycles = seam;
  const int vid = service.Submit(std::move(v)).ValueOrDie();
  ASSERT_OK(service.Drain());
  EXPECT_TRUE(service.outcome(hid).status.IsDeadlineExceeded())
      << service.outcome(hid).status.ToString();
  ASSERT_OK(service.outcome(vid).status);
  EXPECT_EQ(OrderedChecksum(service.outcome(vid).output), vip_solo.checksum);
  EXPECT_EQ(service.outcome(hid).preemptions, 1);
  ExpectCyclesSumBack(service, device);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

/// Requests cancellation of `token` at the first kernel that begins at or
/// after `at_cycles` — with the hog preempted there, a nested kernel.
class CancelAtClock : public vgpu::KernelObserver {
 public:
  CancelAtClock(vgpu::CancelToken token, double at_cycles)
      : token_(std::move(token)), at_cycles_(at_cycles) {}
  void OnKernelBegin(const vgpu::Device& device, const char*) override {
    if (device.elapsed_cycles() >= at_cycles_) {
      token_.RequestCancel("cancelled while a nested turn ran");
    }
  }
  void OnKernelEnd(const vgpu::Device&, const char*, const vgpu::KernelStats&,
                   double) override {}

 private:
  vgpu::CancelToken token_;
  double at_cycles_;
};

TEST(SchedulerTest, OuterCancelWhileNestedUnwindsCleanly) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 113);
  const workload::JoinWorkload vip = JoinWorkloadOf(1 << 8, 1 << 9, 127);
  QueryRequest h = JoinRequest(hog, "hog");
  h.fragment_bits_override = 3;
  const SoloRun solo = RunSolo(h, 1);
  // A kernel seam: the hook runs before that kernel's bracket opens, so
  // the first kernel the observer sees at the seam is the vip's.
  const double seam = solo.seams[1];
  const SoloRun vip_solo = RunSolo(JoinRequest(vip, "vip"), 0);

  vgpu::Device device = MakeTestDevice();
  CancelAtClock observer(h.lifecycle.token, seam);
  device.set_kernel_observer(&observer);
  QueryService service(device);
  const int hid = service.Submit(h).ValueOrDie();
  QueryRequest v = JoinRequest(vip, "vip");
  v.priority = 10;
  v.arrival_cycles = seam;
  const int vid = service.Submit(std::move(v)).ValueOrDie();
  ASSERT_OK(service.Drain());
  device.set_kernel_observer(nullptr);
  EXPECT_TRUE(service.outcome(hid).status.IsCancelled())
      << service.outcome(hid).status.ToString();
  ASSERT_OK(service.outcome(vid).status);
  EXPECT_EQ(OrderedChecksum(service.outcome(vid).output), vip_solo.checksum);
  ExpectCyclesSumBack(service, device);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(SchedulerTest, TransientFaultInNestedQueryIsClearedBeforeResuming) {
  const workload::JoinWorkload hog = JoinWorkloadOf(1 << 11, 1 << 12, 131);
  const workload::JoinWorkload vip = JoinWorkloadOf(1 << 8, 1 << 9, 137);
  QueryRequest h = JoinRequest(hog, "hog");
  h.fragment_bits_override = 3;
  const SoloRun solo = RunSolo(h, 1);
  const SoloRun vip_solo = RunSolo(JoinRequest(vip, "vip"), 0);

  // The vip arrives at seams[1], the first kernel of fragment 1 (seams[0]
  // is its upload), so its second kernel is launch number `before` + 2,
  // with `before` the kernels the solo run launched ahead of that seam.
  const uint64_t before = static_cast<uint64_t>(
      std::count_if(solo.kernel_starts.begin(), solo.kernel_starts.end(),
                    [&](double at) { return at < solo.seams[1]; }));
  vgpu::Device device = MakeTestDevice();
  device.set_fault_injector(vgpu::FaultInjector::FailNthKernel(before + 2));
  QueryService service(device);
  const int hid = service.Submit(h).ValueOrDie();
  QueryRequest v = JoinRequest(vip, "vip");
  v.priority = 10;
  v.arrival_cycles = solo.seams[1];
  const int vid = service.Submit(std::move(v)).ValueOrDie();
  ASSERT_OK(service.Drain());
  EXPECT_EQ(device.fault_injector().injected_kernel_faults(), 1u);
  ASSERT_OK(service.outcome(vid).status);
  ASSERT_OK(service.outcome(hid).status);
  // The vip's ladder absorbed the fault and re-ran its kernel; the hog
  // never saw it.
  EXPECT_GT(service.outcome(vid).kernels_launched, vip_solo.kernels);
  EXPECT_EQ(service.outcome(hid).kernels_launched, solo.kernels);
  EXPECT_EQ(OrderedChecksum(service.outcome(vid).output), vip_solo.checksum);
  EXPECT_EQ(OrderedChecksum(service.outcome(hid).output), solo.checksum);
  ASSERT_OK(device.TransientFaultStatus());
  ExpectCyclesSumBack(service, device);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

// ---------------------------------------------------------------------------
// Tenant quotas
// ---------------------------------------------------------------------------

TEST(SchedulerTest, BoundedBorrowingAdmitsOverQuotaTenant) {
  const workload::JoinWorkload w = JoinWorkloadOf(1 << 9, 1 << 10, 61);
  const uint64_t need = stats::EstimateJoinMemory(w.r, w.s).total_bytes();

  vgpu::Device device = MakeTestDevice();
  ServiceOptions options;
  // Quota covers half the need; borrowing covers the rest.
  options.tenants.push_back({"starved", need / 2, need, 4});
  QueryService service(device, options);
  QueryRequest req = JoinRequest(w, "borrower");
  req.tenant = "starved";
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));

  EXPECT_EQ(service.outcome(id).admission, AdmissionDecision::kAdmitted);
  EXPECT_GT(service.outcome(id).borrowed_bytes, 0u);
  const TenantState* t = service.tenant("starved");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->stats.borrowed_bytes, service.outcome(id).borrowed_bytes);

  ASSERT_OK(service.Drain());
  ASSERT_OK(service.outcome(id).status);
  EXPECT_EQ(t->stats.reserved_bytes, 0u);
  EXPECT_EQ(t->stats.borrowed_bytes, 0u);
  EXPECT_EQ(service.reserved_bytes(), 0u);
}

TEST(SchedulerTest, QuotaInfeasibleQueryFailsWithTenantOverQuota) {
  const workload::JoinWorkload w = JoinWorkloadOf(1 << 9, 1 << 10, 67);
  const uint64_t need = stats::EstimateJoinMemory(w.r, w.s).total_bytes();

  vgpu::Device device = MakeTestDevice();
  ServiceOptions options;
  // Quota + borrow allowance can never cover the query, but the global
  // budget could: structured tenant backpressure, not a global rejection.
  options.tenants.push_back({"capped", need / 4, need / 4, 4});
  QueryService service(device, options);
  QueryRequest req = JoinRequest(w, "too_big_for_tenant");
  req.tenant = "capped";
  ASSERT_OK_AND_ASSIGN(int id, service.Submit(std::move(req)));
  EXPECT_EQ(service.outcome(id).admission, AdmissionDecision::kQueued);

  ASSERT_OK(service.Drain());
  const QueryOutcome& out = service.outcome(id);
  EXPECT_TRUE(out.status.IsTenantOverQuota()) << out.status.ToString();
  const TenantState* t = service.tenant("capped");
  ASSERT_NE(t, nullptr);
  EXPECT_GE(t->stats.over_quota, 1u);
  EXPECT_EQ(service.reserved_bytes(), 0u);
  ASSERT_OK(device.CheckNoLeaks());
}

TEST(SchedulerTest, TenantQueueLimitRejectsImmediately) {
  const workload::JoinWorkload w = JoinWorkloadOf(1 << 9, 1 << 10, 71);
  const uint64_t need = stats::EstimateJoinMemory(w.r, w.s).total_bytes();

  vgpu::Device device = MakeTestDevice();
  ServiceOptions options;
  options.max_queue = 16;  // Global queue has room: the tenant limit binds.
  options.tenants.push_back({"narrow", need, 0, 0});
  QueryService service(device, options);

  QueryRequest first = JoinRequest(w, "first");
  first.tenant = "narrow";
  ASSERT_OK_AND_ASSIGN(int first_id, service.Submit(std::move(first)));
  EXPECT_EQ(service.outcome(first_id).admission, AdmissionDecision::kAdmitted);

  QueryRequest second = JoinRequest(w, "second");
  second.tenant = "narrow";
  ASSERT_OK_AND_ASSIGN(int second_id, service.Submit(std::move(second)));
  const QueryOutcome& out = service.outcome(second_id);
  EXPECT_EQ(out.admission, AdmissionDecision::kRejected);
  EXPECT_TRUE(out.status.IsTenantOverQuota()) << out.status.ToString();

  ASSERT_OK(service.Drain());
  ASSERT_OK(service.outcome(first_id).status);
  EXPECT_EQ(service.reserved_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST(SchedulerTest, PerTenantLatencyIsAssertableFromTraces) {
  const workload::JoinWorkload w1 = JoinWorkloadOf(1 << 9, 1 << 10, 73);
  const workload::JoinWorkload w2 = JoinWorkloadOf(1 << 8, 1 << 9, 79);

  obs::Tracer& tracer = obs::Tracer::Global();
  tracer.Clear();
  tracer.set_enabled(true);

  vgpu::Device device = MakeTestDevice();
  QueryService service(device);
  QueryRequest a = JoinRequest(w1, "alpha_q");
  a.tenant = "alpha";
  a.fragment_bits_override = 2;
  QueryRequest b = JoinRequest(w2, "beta_q");
  b.tenant = "beta";
  const int aid = service.Submit(std::move(a)).ValueOrDie();
  const int bid = service.Submit(std::move(b)).ValueOrDie();
  ASSERT_OK(service.Drain());
  tracer.set_enabled(false);

  // Every fragment turn is a "sched" span annotated with its tenant.
  std::map<std::string, int> turns_by_tenant;
  for (const obs::SpanRecord& span : tracer.spans()) {
    if (span.category != "sched") continue;
    for (const auto& [key, value] : span.attrs) {
      if (key == "tenant") turns_by_tenant[value]++;
    }
  }
  EXPECT_EQ(turns_by_tenant["alpha"], service.outcome(aid).fragment_turns);
  EXPECT_EQ(turns_by_tenant["beta"], service.outcome(bid).fragment_turns);

  // Completion instants carry machine-parseable per-query latency that
  // matches the outcome telemetry.
  auto parse = [](const std::string& detail, const std::string& key) {
    const size_t pos = detail.find(key + "=");
    EXPECT_NE(pos, std::string::npos) << detail;
    return std::stod(detail.substr(pos + key.size() + 1));
  };
  int completions = 0;
  for (const obs::EventRecord& ev : tracer.events()) {
    if (ev.name != "sched:complete") continue;
    ++completions;
    const bool is_alpha = ev.detail.find("tenant=alpha") != std::string::npos;
    const QueryOutcome& out = service.outcome(is_alpha ? aid : bid);
    // std::to_string renders 6 decimal places; compare to that precision.
    EXPECT_NEAR(parse(ev.detail, "wait_cycles"), out.wait_cycles, 1e-3);
    EXPECT_NEAR(parse(ev.detail, "run_cycles"), out.run_cycles, 1e-3);
  }
  EXPECT_EQ(completions, 2);
  tracer.Clear();
}

}  // namespace
}  // namespace gpujoin::service
