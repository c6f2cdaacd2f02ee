// Helpers the closed-loop workloads share: metered set-up steps, result
// download and checking, and folding one query into a pass.

#ifndef GPUJOIN_PERFBENCH_QUERY_UTIL_H_
#define GPUJOIN_PERFBENCH_QUERY_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/status.h"
#include "cpux/context.h"
#include "cpux/join.h"
#include "join/join.h"
#include "storage/table.h"

namespace perfbench {

/// The value of a set-up step that must not fail; aborts with its status.
template <typename T>
T MustOk(gpujoin::Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n",
                 r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

inline QueryRecord NewRecord(std::string name, int oracle, uint64_t tuples) {
  QueryRecord rec;
  rec.name = std::move(name);
  rec.oracle = oracle;
  rec.input_tuples = tuples;
  return rec;
}

std::unique_ptr<gpujoin::vgpu::Device> NewDeviceMetered(Meter& meter);
std::unique_ptr<gpujoin::cpux::Context> NewCpuxMetered(Meter& meter);

/// One small vgpu join and one small cpux join, so first-touch and
/// thread start-up costs land in set-up.
void WarmUp(Meter& meter, gpujoin::cpux::Context& cpux, uint64_t seed);

/// Copies a device result to the host (metered as storage) and digests it.
RowDigest Download(Meter& meter, int query, const gpujoin::Table& output);

void AddJoinPhases(Acc& acc, const gpujoin::join::PhaseBreakdown& p);
void AddGroupByPhases(Acc& acc, const gpujoin::join::PhaseBreakdown& p);

/// Digests of fn(0) .. fn(n-1), computed on kCpuxThreads threads (the
/// oracles are independent of each other and of the measured passes).
std::vector<RowDigest> ParallelOracles(
    size_t n, const std::function<std::vector<std::vector<int64_t>>(size_t)>& fn);

/// Folds a simulated query into the pass and its sim digest.
void AddSimQuery(PassResult& pr, SimDigest& sd, QueryRecord rec,
                 const CallCost& cost, bool ok);
/// Folds a cpux query into the pass: host phases, CPU time, peak bytes,
/// and the output digest.
void AddCpuxQuery(Meter& meter, PassResult& pr, SimDigest& sd, QueryRecord rec,
                  const gpujoin::Result<gpujoin::cpux::CpuxRunResult>& res);

}  // namespace perfbench

#endif  // GPUJOIN_PERFBENCH_QUERY_UTIL_H_
