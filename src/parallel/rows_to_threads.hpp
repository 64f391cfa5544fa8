// Flop-balanced static row partitioning — the paper's RowsToThreads (Fig. 6).
//
// Per-row flops are counted in parallel from the CSR structure of A and B,
// prefix-summed, and thread boundaries found by binary search so each thread
// receives an (approximately) equal share of scalar multiplications rather
// than an equal share of rows.  This is the light-weight load balancer the
// paper uses instead of OpenMP dynamic/guided scheduling (§4.1).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hpp"
#include "parallel/lowbnd.hpp"
#include "parallel/prefix_sum.hpp"

namespace spgemm::parallel {

/// Per-row flop counts for C = A*B from raw CSR structure arrays.
/// flop[i] = sum over nonzeros a_ik of nnz(b_k*).  `flop` must hold
/// `nrows_a` elements.
template <IndexType IT>
void count_flops_per_row(std::size_t nrows_a, const Offset* rpts_a,
                         const IT* cols_a, const Offset* rpts_b,
                         Offset* flop) {
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < nrows_a; ++i) {
    Offset acc = 0;
    for (Offset j = rpts_a[i]; j < rpts_a[i + 1]; ++j) {
      const auto k = static_cast<std::size_t>(cols_a[j]);
      acc += rpts_b[k + 1] - rpts_b[k];
    }
    flop[i] = acc;
  }
}

/// Result of RowsToThreads: row ranges plus the flop prefix array, which the
/// two-phase kernels reuse for hash-table sizing (max flop per row).
struct RowPartition {
  /// offsets[t]..offsets[t+1] is the row range of thread t; size nthreads+1.
  std::vector<std::size_t> offsets;
  /// Exclusive prefix over per-row flops; size nrows+1; back() = total flop.
  std::vector<Offset> flop_prefix;

  [[nodiscard]] int threads() const {
    return static_cast<int>(offsets.size()) - 1;
  }
  [[nodiscard]] Offset total_flop() const { return flop_prefix.back(); }

  /// Max per-row flop within thread t's range (hash-table sizing input).
  /// `row_bound`, when given, is a second CSR row-pointer array that caps
  /// each row: row i then counts min(flop_i, row_bound[i+1] - row_bound[i])
  /// (a masked product's row never holds more entries than its mask row).
  [[nodiscard]] Offset max_row_flop(int t,
                                    const Offset* row_bound = nullptr) const {
    Offset best = 0;
    for (std::size_t i = offsets[static_cast<std::size_t>(t)];
         i < offsets[static_cast<std::size_t>(t) + 1]; ++i) {
      Offset f = flop_prefix[i + 1] - flop_prefix[i];
      if (row_bound != nullptr) {
        f = std::min(f, row_bound[i + 1] - row_bound[i]);
      }
      if (f > best) best = f;
    }
    return best;
  }
};

/// Build a flop-balanced partition of `nrows_a` rows across `nthreads`.
/// Implements paper Fig. 6 verbatim: count flops, prefix-sum, lowbnd.
template <IndexType IT>
RowPartition rows_to_threads(std::size_t nrows_a, const Offset* rpts_a,
                             const IT* cols_a, const Offset* rpts_b,
                             int nthreads) {
  RowPartition part;
  part.flop_prefix.resize(nrows_a + 1);
  count_flops_per_row(nrows_a, rpts_a, cols_a, rpts_b,
                      part.flop_prefix.data());
  part.flop_prefix[nrows_a] = 0;
  exclusive_scan_inplace(part.flop_prefix.data(), nrows_a + 1);
  const Offset total = part.flop_prefix[nrows_a];

  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, 0);
  const double ave =
      static_cast<double>(total) / static_cast<double>(nthreads);
#pragma omp parallel for schedule(static)
  for (int t = 1; t < nthreads; ++t) {
    const auto target = static_cast<Offset>(ave * t);
    part.offsets[static_cast<std::size_t>(t)] =
        lowbnd(part.flop_prefix.data(), nrows_a + 1, target);
    // lowbnd may return nrows_a+? clamp to nrows_a.
    if (part.offsets[static_cast<std::size_t>(t)] > nrows_a) {
      part.offsets[static_cast<std::size_t>(t)] = nrows_a;
    }
  }
  part.offsets[static_cast<std::size_t>(nthreads)] = nrows_a;
  return part;
}

/// Equal-rows partition (the naive static split the paper's Fig. 9 ablates
/// against).  Still computes the flop prefix: kernels need it for
/// accumulator sizing regardless of how rows are assigned.
template <IndexType IT>
RowPartition rows_equal(std::size_t nrows_a, const Offset* rpts_a,
                        const IT* cols_a, const Offset* rpts_b,
                        int nthreads) {
  RowPartition part;
  part.flop_prefix.resize(nrows_a + 1);
  count_flops_per_row(nrows_a, rpts_a, cols_a, rpts_b,
                      part.flop_prefix.data());
  part.flop_prefix[nrows_a] = 0;
  exclusive_scan_inplace(part.flop_prefix.data(), nrows_a + 1);

  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, 0);
  const std::size_t chunk =
      (nrows_a + static_cast<std::size_t>(nthreads) - 1) /
      static_cast<std::size_t>(nthreads);
  for (int t = 0; t <= nthreads; ++t) {
    part.offsets[static_cast<std::size_t>(t)] =
        std::min(nrows_a, chunk * static_cast<std::size_t>(t));
  }
  return part;
}

}  // namespace spgemm::parallel
