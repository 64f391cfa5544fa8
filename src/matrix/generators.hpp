// Structured synthetic generators besides R-MAT: banded FEM-like matrices
// and exact-size uniform random matrices.  These back the SuiteSparse
// proxy registry (see suitesparse_proxy.hpp and the README "Stand-in
// kernels" table).
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "common/random.hpp"
#include "common/types.hpp"
#include "matrix/coo.hpp"
#include "matrix/csr.hpp"

namespace spgemm {

/// Banded matrix: row i holds `degree` nonzeros at columns i-degree/2 ..
/// i+degree/2 (clipped to [0, n)), mimicking the regular local coupling of
/// FEM/mesh matrices.  A^2 of such a matrix has ~2x the bandwidth, giving
/// the high compression ratios (~degree/4) of the paper's FEM inputs.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> banded_matrix(IT n, IT degree, std::uint64_t seed = 42) {
  degree = std::min(degree, n);
  CsrMatrix<IT, VT> out(n, n);
  // Window [lo, lo+degree) is slid back from the borders so every row holds
  // exactly `degree` nonzeros (matching the constant row density of FEM
  // stiffness matrices).
  const IT half = degree / 2;
  const auto window_lo = [n, half, degree](IT i) {
    IT lo = i >= half ? i - half : IT{0};
    if (lo + degree > n) lo = n - degree;
    return lo;
  };
  for (IT i = 0; i < n; ++i) {
    out.rpts[static_cast<std::size_t>(i) + 1] = degree;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    out.rpts[i + 1] += out.rpts[i];
  }
  out.cols.resize(static_cast<std::size_t>(out.nnz()));
  out.vals.resize(static_cast<std::size_t>(out.nnz()));
#pragma omp parallel for schedule(static)
  for (IT i = 0; i < n; ++i) {
    SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(i) + 1)));
    const IT lo = window_lo(i);
    const IT hi = lo + degree;
    auto slot = static_cast<std::size_t>(out.row_begin(i));
    for (IT c = lo; c < hi; ++c) {
      out.cols[slot] = c;
      out.vals[slot] = static_cast<VT>(rng.next_double() + 0x1.0p-53);
      ++slot;
    }
  }
  out.sortedness = Sortedness::kSorted;
  return out;
}

/// Scattered-band matrix: row i holds exactly `degree` nonzeros at distinct
/// random columns inside a window of `window` columns around the diagonal.
/// Generalizes banded_matrix (window == degree) toward the fuzzier local
/// coupling of real FEM/mesh matrices: the compression ratio of A^2 is
/// ~degree^2 / (2*window), so the window width tunes CR independently of
/// the density — which is how the SuiteSparse proxies are calibrated to
/// the paper's Table 2 statistics.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> scattered_band_matrix(IT n, IT degree, IT window,
                                        std::uint64_t seed = 42) {
  degree = std::min(degree, n);
  window = std::clamp(window, degree, n);
  CsrMatrix<IT, VT> out(n, n);
  for (IT i = 0; i < n; ++i) {
    out.rpts[static_cast<std::size_t>(i) + 1] = degree;
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    out.rpts[i + 1] += out.rpts[i];
  }
  out.cols.resize(static_cast<std::size_t>(out.nnz()));
  out.vals.resize(static_cast<std::size_t>(out.nnz()));
  const IT half = window / 2;
#pragma omp parallel
  {
    std::vector<IT> pool(static_cast<std::size_t>(window));
#pragma omp for schedule(static)
    for (IT i = 0; i < n; ++i) {
      SplitMix64 rng(seed ^ (0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(i) + 1)));
      IT lo = i >= half ? i - half : IT{0};
      if (lo + window > n) lo = n - window;
      // Partial Fisher-Yates: the first `degree` pool entries become the
      // row's distinct columns.
      std::iota(pool.begin(), pool.end(), lo);
      for (IT k = 0; k < degree; ++k) {
        const auto j = static_cast<std::size_t>(k) +
                       rng.next_below(static_cast<std::uint64_t>(window - k));
        std::swap(pool[static_cast<std::size_t>(k)], pool[j]);
      }
      std::sort(pool.begin(), pool.begin() + degree);
      auto slot = static_cast<std::size_t>(out.row_begin(i));
      for (IT k = 0; k < degree; ++k) {
        out.cols[slot] = pool[static_cast<std::size_t>(k)];
        out.vals[slot] = static_cast<VT>(rng.next_double() + 0x1.0p-53);
        ++slot;
      }
    }
  }
  out.sortedness = Sortedness::kSorted;
  return out;
}

/// Uniform random matrix with exactly-n dimensions (not constrained to
/// powers of two like R-MAT) and ~`nnz_target` nonzeros before dedup.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> uniform_random_matrix(IT nrows, IT ncols, Offset nnz_target,
                                        std::uint64_t seed = 42) {
  CooMatrix<IT, VT> coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  const auto total = static_cast<std::size_t>(nnz_target);
  coo.rows.resize(total);
  coo.cols.resize(total);
  coo.vals.resize(total);
  constexpr std::uint64_t kBlocks = 64;
  const std::size_t per_block = (total + kBlocks - 1) / kBlocks;
#pragma omp parallel for schedule(static)
  for (std::uint64_t blk = 0; blk < kBlocks; ++blk) {
    SplitMix64 seeder(seed + 0xABCDEF * (blk + 1));
    Xoshiro256 rng(seeder.next());
    const std::size_t begin = static_cast<std::size_t>(blk) * per_block;
    const std::size_t end = std::min(total, begin + per_block);
    for (std::size_t e = begin; e < end; ++e) {
      coo.rows[e] = static_cast<IT>(
          rng.next_below(static_cast<std::uint64_t>(nrows)));
      coo.cols[e] = static_cast<IT>(
          rng.next_below(static_cast<std::uint64_t>(ncols)));
      coo.vals[e] = static_cast<VT>(rng.next_double() + 0x1.0p-53);
    }
  }
  return csr_from_coo(std::move(coo));
}

}  // namespace spgemm
