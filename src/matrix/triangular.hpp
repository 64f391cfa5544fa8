// Triangle-counting preprocessing (paper §5.6): reorder the vertices of an
// undirected graph by increasing degree, then split the reordered adjacency
// matrix A into strictly-lower L and strictly-upper U so that L*U generates
// all wedges through each vertex's lower-numbered neighbours.
//
// Every step but the degree sort runs in parallel over rows (OpenMP, the
// caller's thread count); each row writes only its own output range and
// the offsets come from an integer scan, so the result is identical at any
// thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <vector>

#include "common/types.hpp"
#include "matrix/csr.hpp"
#include "parallel/prefix_sum.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
struct TriangularSplit {
  CsrMatrix<IT, VT> reordered;  ///< A after symmetric permutation
  CsrMatrix<IT, VT> lower;      ///< strictly lower triangle, unit values
  CsrMatrix<IT, VT> upper;      ///< strictly upper triangle, unit values
};

/// Symmetric permutation of a square matrix: B = P A P^T with
/// B[p(i)][p(j)] = A[i][j], where p = perm[i] is the new label of old
/// vertex i.  Output rows are sorted.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> symmetric_permute(const CsrMatrix<IT, VT>& a,
                                    const std::vector<IT>& perm) {
  const auto n = static_cast<std::size_t>(a.nrows);
  CsrMatrix<IT, VT> out(a.nrows, a.ncols);
  // Count: new row perm[i] receives row i's entries.
#pragma omp parallel for schedule(static)
  for (std::size_t i = 0; i < n; ++i) {
    out.rpts[static_cast<std::size_t>(perm[i])] =
        a.rpts[i + 1] - a.rpts[i];
  }
  out.rpts[n] = 0;
  parallel::exclusive_scan_inplace(out.rpts.data(), n + 1);
  out.cols.resize(static_cast<std::size_t>(a.nnz()));
  out.vals.resize(static_cast<std::size_t>(a.nnz()));
#pragma omp parallel for schedule(dynamic, 256)
  for (std::size_t i = 0; i < n; ++i) {
    auto slot = static_cast<std::size_t>(
        out.rpts[static_cast<std::size_t>(perm[i])]);
    for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
      out.cols[slot] = perm[static_cast<std::size_t>(
          a.cols[static_cast<std::size_t>(j)])];
      out.vals[slot] = a.vals[static_cast<std::size_t>(j)];
      ++slot;
    }
  }
  out.sortedness = Sortedness::kUnsorted;
  out.sort_rows();
  return out;
}

/// Permutation that relabels vertices in increasing-degree order.
template <IndexType IT, ValueType VT>
std::vector<IT> degree_order(const CsrMatrix<IT, VT>& a) {
  std::vector<IT> by_degree(static_cast<std::size_t>(a.nrows));
  std::iota(by_degree.begin(), by_degree.end(), IT{0});
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](IT x, IT y) { return a.row_nnz(x) < a.row_nnz(y); });
  std::vector<IT> perm(static_cast<std::size_t>(a.nrows));
  for (std::size_t rank = 0; rank < by_degree.size(); ++rank) {
    perm[static_cast<std::size_t>(by_degree[rank])] = static_cast<IT>(rank);
  }
  return perm;
}

namespace detail {

/// Strictly lower (keep_lower) or strictly upper triangle of `a`, with its
/// values copied or, when `unit_values`, set to 1.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> strict_triangle(const CsrMatrix<IT, VT>& a, bool keep_lower,
                                  bool unit_values) {
  const auto n = static_cast<std::size_t>(a.nrows);
  const auto keep = [keep_lower](IT c, std::size_t i) {
    const auto row = static_cast<IT>(i);
    return keep_lower ? c < row : c > row;
  };
  CsrMatrix<IT, VT> out(a.nrows, a.ncols);
#pragma omp parallel for schedule(dynamic, 256)
  for (std::size_t i = 0; i < n; ++i) {
    Offset count = 0;
    for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
      if (keep(a.cols[static_cast<std::size_t>(j)], i)) ++count;
    }
    out.rpts[i] = count;
  }
  out.rpts[n] = 0;
  parallel::exclusive_scan_inplace(out.rpts.data(), n + 1);
  out.cols.resize(static_cast<std::size_t>(out.nnz()));
  out.vals.resize(static_cast<std::size_t>(out.nnz()));
#pragma omp parallel for schedule(dynamic, 256)
  for (std::size_t i = 0; i < n; ++i) {
    auto slot = static_cast<std::size_t>(out.rpts[i]);
    for (Offset j = a.rpts[i]; j < a.rpts[i + 1]; ++j) {
      const IT c = a.cols[static_cast<std::size_t>(j)];
      if (keep(c, i)) {
        out.cols[slot] = c;
        out.vals[slot] =
            unit_values ? VT{1} : a.vals[static_cast<std::size_t>(j)];
        ++slot;
      }
    }
  }
  out.sortedness = a.sortedness;
  return out;
}

}  // namespace detail

/// Extract the strictly lower (keep_lower=true) or strictly upper triangle.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> triangle_part(const CsrMatrix<IT, VT>& a, bool keep_lower) {
  return detail::strict_triangle(a, keep_lower, /*unit_values=*/false);
}

/// Full preprocessing pipeline: degree reorder, then split A = L + U
/// (diagonal entries are dropped; they carry no triangle information).  L
/// and U carry unit values — triangle counting needs the structure only —
/// so callers need no binarized copy of A.
template <IndexType IT, ValueType VT>
TriangularSplit<IT, VT> prepare_triangle_split(const CsrMatrix<IT, VT>& a) {
  TriangularSplit<IT, VT> out;
  out.reordered = symmetric_permute(a, degree_order(a));
  out.lower = detail::strict_triangle(out.reordered, /*keep_lower=*/true,
                                      /*unit_values=*/true);
  out.upper = detail::strict_triangle(out.reordered, /*keep_lower=*/false,
                                      /*unit_values=*/true);
  return out;
}

}  // namespace spgemm
