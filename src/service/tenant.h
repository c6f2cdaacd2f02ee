// Per-tenant admission quotas for the multi-tenant scheduler (DESIGN.md
// §13). The single service budget splits into named tenant quotas; a
// tenant may borrow a bounded number of bytes beyond its quota from the
// globally unreserved pool, and each tenant has its own queue limit so one
// noisy tenant's backlog cannot consume the shared queue. Over-quota
// submissions fail with the structured kTenantOverQuota status instead of
// silently queueing behind the whole service.
//
// All accounting is plain uint64 arithmetic in subtraction form
// (`need <= limit - used`), never addition form (`used + need <= limit`),
// so absurd near-UINT64_MAX estimates reject instead of wrapping.

#ifndef GPUJOIN_SERVICE_TENANT_H_
#define GPUJOIN_SERVICE_TENANT_H_

#include <cstdint>
#include <string>

namespace gpujoin::service {

/// Configuration of one named tenant.
struct TenantQuota {
  std::string name;
  /// Reservation quota in bytes. 0 = the full service budget.
  uint64_t quota_bytes = 0;
  /// Bytes the tenant may hold beyond its quota, taken from the globally
  /// unreserved pool (bounded borrowing). 0 = no borrowing.
  uint64_t borrow_limit_bytes = 0;
  /// Queued submissions this tenant may hold (beyond its reservations)
  /// before Submit rejects with kTenantOverQuota.
  size_t max_queue = 8;
};

/// Live accounting and lifetime counters for one tenant.
struct TenantStats {
  /// Bytes currently reserved by the tenant (quota use + borrowed).
  uint64_t reserved_bytes = 0;
  /// Portion of reserved_bytes borrowed beyond the quota.
  uint64_t borrowed_bytes = 0;
  /// Submissions currently queued (arrived but unreserved).
  size_t queued = 0;

  // Lifetime counters (never reset; one service instance = one lifetime).
  uint64_t admitted = 0;
  uint64_t queued_total = 0;
  uint64_t rejected = 0;
  /// Rejections that were tenant-limited (quota/borrow/tenant queue), a
  /// subset of `rejected`.
  uint64_t over_quota = 0;
  uint64_t completed = 0;
  /// Times a fragment turn of this tenant's queries ran higher-priority
  /// turns nested at one of its seams.
  uint64_t preemptions = 0;
  /// Simulated cycles the tenant's queries spent waiting (admission to
  /// first fragment) and running (their own turn cycles, nested
  /// higher-priority turns excluded).
  double wait_cycles = 0;
  double run_cycles = 0;
};

}  // namespace gpujoin::service

#endif  // GPUJOIN_SERVICE_TENANT_H_
