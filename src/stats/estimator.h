// Cardinality and selectivity estimation for the planners. Real optimizers
// decide from estimates, not oracles: EstimateKeyStats is a HyperLogLog
// sketch built in one sequential pass over the column (charged), which also
// yields the column's exact min and max from the same read; the
// match-ratio estimator probes a sample of the probe side's keys against
// the build side's key set.

#ifndef GPUJOIN_STATS_ESTIMATOR_H_
#define GPUJOIN_STATS_ESTIMATOR_H_

#include <cstdint>

#include "common/status.h"
#include "storage/column.h"
#include "storage/table.h"
#include "vgpu/device.h"

namespace gpujoin::stats {

/// Host-side device-memory estimate for admission control: computed from
/// host staging tables BEFORE anything touches the device, so the service
/// layer can reserve budget (or queue the query) without spending simulated
/// cycles. Deliberately conservative — an admitted query that still hits a
/// real OOM falls back to the resilience ladders.
struct MemoryEstimate {
  /// Bytes the uploaded base tables will occupy device-resident.
  uint64_t input_bytes = 0;
  /// Peak transient working state (hash tables, partition buffers, match
  /// lists) over the query's lifetime.
  uint64_t working_bytes = 0;
  /// Upper bound on the materialized result.
  uint64_t output_bytes = 0;

  uint64_t total_bytes() const {
    return input_bytes + working_bytes + output_bytes;
  }
};

/// Admission estimate for a two-table join (keys in column 0). Assumes the
/// worst common case: every probe row matches once, working state sized as
/// a partitioned hash join's peak (partitioned copies of both inputs plus
/// the per-partition hash tables).
MemoryEstimate EstimateJoinMemory(const HostTable& r, const HostTable& s);

/// Admission estimate for a grouped aggregation over `input` producing
/// `num_aggregates` aggregate columns. Group count is unknown host-side, so
/// the output bound assumes every row is its own group.
MemoryEstimate EstimateGroupByMemory(const HostTable& input,
                                     int num_aggregates);

/// What one scan of a key column learns about it.
struct KeyStats {
  /// HyperLogLog distinct-count estimate (>= 1).
  uint64_t distinct = 1;
  /// Exact extremes. An empty column reports min > max.
  int64_t min = 0;
  int64_t max = 0;
};

/// One streaming kernel over a device column: a HyperLogLog distinct-count
/// estimate (typical error ~1.04/sqrt(2^precision_bits), ~1.6% at 12 bits)
/// plus the exact min and max. The extremes are two register compares per
/// element beside the hash, so the scan's charge stays one memory-bound
/// read.
Result<KeyStats> EstimateKeyStats(vgpu::Device& device,
                                  const DeviceColumn& column,
                                  int precision_bits = 12);

/// Estimates the fraction of `probe_keys` values present in `build_keys`
/// by testing `sample_size` evenly spaced probe keys against a hash set of
/// the build keys (one build scan + the sampled probes, charged).
Result<double> EstimateMatchRatio(vgpu::Device& device,
                                  const DeviceColumn& build_keys,
                                  const DeviceColumn& probe_keys,
                                  uint64_t sample_size = 1024);

}  // namespace gpujoin::stats

#endif  // GPUJOIN_STATS_ESTIMATOR_H_
