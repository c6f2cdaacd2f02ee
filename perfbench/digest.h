// Hashes the benchmark uses to check results.
//
// RowDigest is an order-independent digest of a set of rows: each row is
// hashed on its own and the row hashes are summed, so two tables with the
// same rows in any order digest equally. It compares a query's output with
// its host oracle without sorting the output.
//
// SimDigest is an order-dependent running hash of every simulated
// statistic a run produces (cycles, KernelStats counters, peak bytes,
// output digests). Two runs of the same seed must give the same value at
// any GPUJOIN_SIM_THREADS: it is the simulator's bit-identity check.

#ifndef GPUJOIN_PERFBENCH_DIGEST_H_
#define GPUJOIN_PERFBENCH_DIGEST_H_

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"
#include "vgpu/stats.h"

namespace perfbench {

inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t mixed_sum = 0;

  template <typename Row>
  void AddRow(const Row& row) {
    uint64_t h = 0x6a09e667f3bcc909ull;
    for (int64_t v : row) h = Mix64(h ^ static_cast<uint64_t>(v));
    ++rows;
    sum += h;
    mixed_sum += Mix64(h ^ 0x3c6ef372fe94f82bull);
  }
  bool operator==(const RowDigest&) const = default;
};

inline RowDigest DigestRows(const std::vector<std::vector<int64_t>>& rows) {
  RowDigest d;
  for (const auto& row : rows) d.AddRow(row);
  return d;
}

inline RowDigest DigestTable(const gpujoin::HostTable& t) {
  RowDigest d;
  std::vector<int64_t> row(t.columns.size());
  for (uint64_t i = 0; i < t.num_rows(); ++i) {
    for (size_t c = 0; c < t.columns.size(); ++c) {
      row[c] = t.columns[c].values[i];
    }
    d.AddRow(row);
  }
  return d;
}

class SimDigest {
 public:
  void Add(uint64_t v) { h_ = Mix64(h_ ^ v); }
  void Add(double v) { Add(std::bit_cast<uint64_t>(v)); }
  void Add(const RowDigest& d) {
    Add(d.rows);
    Add(d.sum);
    Add(d.mixed_sum);
  }
  void Add(const gpujoin::vgpu::KernelStats& s) {
    for (uint64_t v : {s.warp_instructions, s.mem_instructions, s.transactions,
                       s.sectors, s.l2_hit_sectors, s.dram_sectors,
                       s.dram_row_misses, s.bytes_read, s.bytes_written,
                       s.shared_accesses, s.atomic_serializations}) {
      Add(v);
    }
    for (double v : {s.serial_cycles, s.compute_cycles, s.memory_cycles,
                     s.cycles}) {
      Add(v);
    }
  }
  void Add(const std::string& s) {
    for (char c : s) Add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
    Add(static_cast<uint64_t>(s.size()));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench

#endif  // GPUJOIN_PERFBENCH_DIGEST_H_
