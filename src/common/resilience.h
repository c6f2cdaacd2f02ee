// The degradation ladder shared by the resilient query-layer wrappers
// (join, group-by, join pipeline). Every time a wrapper catches a failure
// and moves along its ladder (retry, re-plan, out-of-core fallback), it
// records one step so callers can see exactly how a query was salvaged, and
// consults one BackoffPolicy for how long to wait (in simulated cycles)
// before the next attempt. RunLadder is the one retry loop; each operator
// supplies only its rungs.

#ifndef GPUJOIN_COMMON_RESILIENCE_H_
#define GPUJOIN_COMMON_RESILIENCE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace gpujoin {

namespace vgpu {
class Device;
}  // namespace vgpu

/// One rung taken on a degradation ladder.
struct DegradationStep {
  /// Machine-checkable action name, e.g. "retry_more_partition_bits",
  /// "out_of_core_fallback", "algo_fallback".
  std::string action;
  /// Human-readable context: the error that triggered the step and the
  /// parameters chosen for the next attempt.
  std::string detail;
};

/// Seeded exponential backoff with jitter, measured in SIMULATED cycles so
/// retry schedules are deterministic and bit-identical on replay (no wall
/// clock, no global RNG — same contract as vgpu::FaultInjector). One policy
/// is shared by every retry loop in the query layer: the degradation ladder
/// (RunLadder) and the service's admission queue and fragment retries.
struct BackoffPolicy {
  /// In a ladder: the transient faults it absorbs before kUnavailable
  /// propagates (attempts across the resource rungs are bounded by the
  /// ladder's own max_attempts). In the service's admission queue: the
  /// reservation attempts for a queued query, first try included.
  int max_attempts = 4;
  /// Delay charged before retry #1 (i.e. attempt 2). 0 disables delays
  /// while keeping the attempt cap.
  double base_cycles = 50'000;
  /// Growth factor per retry (>= 1).
  double multiplier = 2.0;
  /// Delay ceiling before jitter.
  double max_cycles = 5e7;
  /// Jitter fraction in [0, 1): the delay is scaled by a deterministic
  /// draw from [1 - jitter, 1 + jitter) so synchronized retries de-correlate.
  double jitter = 0.25;
  /// Seed for the jitter stream (splitmix64 of seed ^ retry index).
  uint64_t seed = 0x9e3779b97f4a7c15ull;

  /// True while `attempt` (1-based, first try included) is within budget.
  bool AttemptAllowed(int attempt) const { return attempt <= max_attempts; }

  /// Simulated-cycle delay to charge before retry `retry_index` (1-based:
  /// 1 = the delay between attempts 1 and 2). Deterministic per (policy,
  /// retry_index); never negative.
  double DelayCycles(int retry_index) const {
    if (retry_index < 1 || base_cycles <= 0) return 0;
    double delay = base_cycles;
    for (int i = 1; i < retry_index; ++i) {
      delay = std::min(delay * std::max(multiplier, 1.0), max_cycles);
    }
    delay = std::min(delay, max_cycles);
    if (jitter > 0) {
      // splitmix64 of (seed ^ retry_index) -> uniform in [0, 1).
      uint64_t z = seed ^ (static_cast<uint64_t>(retry_index) *
                           0xbf58476d1ce4e5b9ull);
      z += 0x9e3779b97f4a7c15ull;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      z ^= z >> 31;
      const double u =
          static_cast<double>(z >> 11) / static_cast<double>(1ull << 53);
      delay *= 1.0 - jitter + 2.0 * jitter * u;
    }
    return delay;
  }
};

/// The retry budget of every ladder (join, group-by, pipeline join).
struct LadderBudget {
  /// Attempts across the resource rungs, first try included.
  int max_attempts = 4;
  /// Delay before every retry, charged to the simulated clock;
  /// backoff.max_attempts bounds transient retries.
  BackoffPolicy backoff;
};

/// One operator's degradation ladder, as data for RunLadder.
struct Ladder {
  /// `op` label of the resilience metrics ("join", "groupby", "pipeline").
  std::string op;
  /// Error prefix ("RunJoinResilient") and operator name ("PHJ-OM").
  std::string caller, subject;
  LadderBudget budget;
  /// Label of attempt n's `attempt` span (a transient retry re-runs n).
  std::function<std::string(int n)> span_label;
  /// Runs the current rung once; a failure must free what it allocated.
  std::function<Status()> attempt;
  /// After resource failure `failure` of attempt n: moves to the next rung
  /// and returns its step, or nullopt when none is left.
  std::function<std::optional<DegradationStep>(const Status& failure, int n)>
      escalate;
};

/// Runs `ladder` until an attempt succeeds, appending every step to `log`;
/// returns the attempts consumed (transient retries excluded).
///   - kUnavailable re-runs the same rung (within backoff.max_attempts,
///     then propagates so the caller can hedge).
///   - kResourceExhausted / kOutOfMemory escalates; with no rung or budget
///     left, a structured kResourceExhausted carrying the log.
///   - Other errors, and a failed attempt that leaked (kInternal),
///     propagate.
Result<int> RunLadder(vgpu::Device& device, const Ladder& ladder,
                      std::vector<DegradationStep>* log);

}  // namespace gpujoin

#endif  // GPUJOIN_COMMON_RESILIENCE_H_
