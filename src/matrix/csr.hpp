// Compressed Sparse Rows — the operational format of every kernel.
//
// Row pointers are always 64-bit (see common/types.hpp).  Sortedness of
// column indices within rows is tracked explicitly because the paper treats
// sorted and unsorted CSR as distinct operating modes with materially
// different performance (Table 1, §5.4.4).
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "matrix/coo.hpp"
#include "mem/default_init.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT>
struct CsrMatrix {
  using index_type = IT;
  using value_type = VT;

  IT nrows = 0;
  IT ncols = 0;
  /// Body arrays use mem::Buffer: resize leaves new elements uninitialized,
  /// so sizing the output costs no zeroing pass and the writing thread gets
  /// the first touch (NUMA placement follows the flop partition).
  mem::Buffer<Offset> rpts;  ///< length nrows+1
  mem::Buffer<IT> cols;      ///< length nnz
  mem::Buffer<VT> vals;      ///< length nnz
  Sortedness sortedness = Sortedness::kSorted;

  CsrMatrix() : rpts(1, 0) {}
  CsrMatrix(IT rows_, IT cols_)
      : nrows(rows_), ncols(cols_),
        rpts(static_cast<std::size_t>(rows_) + 1, 0) {}

  [[nodiscard]] Offset nnz() const { return rpts.empty() ? 0 : rpts.back(); }
  [[nodiscard]] bool claims_sorted() const {
    return sortedness == Sortedness::kSorted;
  }

  [[nodiscard]] Offset row_begin(IT i) const {
    return rpts[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] Offset row_end(IT i) const {
    return rpts[static_cast<std::size_t>(i) + 1];
  }
  [[nodiscard]] Offset row_nnz(IT i) const {
    return row_end(i) - row_begin(i);
  }

  /// Structural invariants; throws on violation.  If the matrix claims to
  /// be sorted, ascending column order within rows is enforced too.
  void validate() const {
    if (rpts.size() != static_cast<std::size_t>(nrows) + 1) {
      throw std::invalid_argument("CsrMatrix: rpts length != nrows+1");
    }
    if (rpts.front() != 0) {
      throw std::invalid_argument("CsrMatrix: rpts[0] != 0");
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(nrows); ++i) {
      if (rpts[i] > rpts[i + 1]) {
        throw std::invalid_argument("CsrMatrix: rpts not monotone");
      }
    }
    if (static_cast<std::size_t>(rpts.back()) != cols.size() ||
        cols.size() != vals.size()) {
      throw std::invalid_argument("CsrMatrix: nnz arrays disagree");
    }
    for (IT i = 0; i < nrows; ++i) {
      for (Offset j = row_begin(i); j < row_end(i); ++j) {
        if (cols[static_cast<std::size_t>(j)] < 0 ||
            cols[static_cast<std::size_t>(j)] >= ncols) {
          throw std::out_of_range("CsrMatrix: column index out of bounds");
        }
        if (claims_sorted() && j > row_begin(i) &&
            cols[static_cast<std::size_t>(j - 1)] >=
                cols[static_cast<std::size_t>(j)]) {
          throw std::invalid_argument(
              "CsrMatrix: claims sorted but row is not ascending");
        }
      }
    }
  }

  /// True iff every row is ascending (ignores the sortedness claim).
  [[nodiscard]] bool rows_are_ascending() const {
    for (IT i = 0; i < nrows; ++i) {
      for (Offset j = row_begin(i) + 1; j < row_end(i); ++j) {
        if (cols[static_cast<std::size_t>(j - 1)] >=
            cols[static_cast<std::size_t>(j)]) {
          return false;
        }
      }
    }
    return true;
  }

  /// Sort every row by column index (values permuted alongside) and mark
  /// the matrix sorted.  Work is handed out in chunks of about
  /// kSortChunkEntries entries, not rows: after a degree reorder the
  /// longest rows sit together at the end, and a row-count chunk would give
  /// all of them to one thread.  A row belongs to the chunk that holds its
  /// first entry, so a row longer than a chunk gets a chunk of its own.
  void sort_rows() {
    constexpr Offset kSortChunkEntries = 4096;
    const Offset chunks = (nnz() + kSortChunkEntries - 1) / kSortChunkEntries;
    const auto first_row_at = [this](Offset entry) {
      return static_cast<IT>(
          std::lower_bound(rpts.data(), rpts.data() + nrows, entry) -
          rpts.data());
    };
    std::vector<std::pair<IT, VT>> buffer;
#pragma omp parallel for schedule(dynamic, 1) private(buffer)
    for (Offset chunk = 0; chunk < chunks; ++chunk) {
      const IT end = first_row_at((chunk + 1) * kSortChunkEntries);
      for (IT i = first_row_at(chunk * kSortChunkEntries); i < end; ++i) {
        const Offset begin = row_begin(i);
        const Offset len = row_nnz(i);
        if (len < 2) continue;
        buffer.resize(static_cast<std::size_t>(len));
        for (Offset j = 0; j < len; ++j) {
          buffer[static_cast<std::size_t>(j)] = {
              cols[static_cast<std::size_t>(begin + j)],
              vals[static_cast<std::size_t>(begin + j)]};
        }
        std::sort(
            buffer.begin(), buffer.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
        for (Offset j = 0; j < len; ++j) {
          cols[static_cast<std::size_t>(begin + j)] =
              buffer[static_cast<std::size_t>(j)].first;
          vals[static_cast<std::size_t>(begin + j)] =
              buffer[static_cast<std::size_t>(j)].second;
        }
      }
    }
    sortedness = Sortedness::kSorted;
  }

  /// Dense row-major copy; intended for small test matrices only.
  [[nodiscard]] std::vector<VT> to_dense() const {
    std::vector<VT> dense(static_cast<std::size_t>(nrows) *
                              static_cast<std::size_t>(ncols),
                          VT{0});
    for (IT i = 0; i < nrows; ++i) {
      for (Offset j = row_begin(i); j < row_end(i); ++j) {
        dense[static_cast<std::size_t>(i) * static_cast<std::size_t>(ncols) +
              static_cast<std::size_t>(cols[static_cast<std::size_t>(j)])] +=
            vals[static_cast<std::size_t>(j)];
      }
    }
    return dense;
  }
};

/// Build a CSR from COO triplets (sorted, duplicates combined).
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> csr_from_coo(CooMatrix<IT, VT> coo) {
  coo.validate();
  coo.sort_and_combine();
  CsrMatrix<IT, VT> out(coo.nrows, coo.ncols);
  const std::size_t nnz = coo.nnz();
  out.cols.resize(nnz);
  out.vals.resize(nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    ++out.rpts[static_cast<std::size_t>(coo.rows[i]) + 1];
  }
  for (std::size_t i = 0; i < static_cast<std::size_t>(coo.nrows); ++i) {
    out.rpts[i + 1] += out.rpts[i];
  }
  for (std::size_t i = 0; i < nnz; ++i) {
    out.cols[i] = coo.cols[i];
    out.vals[i] = coo.vals[i];
  }
  out.sortedness = Sortedness::kSorted;
  return out;
}

/// Convenience builder from explicit triplet arrays (tests, examples).
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> csr_from_triplets(
    IT nrows, IT ncols,
    const std::vector<std::tuple<IT, IT, VT>>& triplets) {
  CooMatrix<IT, VT> coo;
  coo.nrows = nrows;
  coo.ncols = ncols;
  coo.reserve(triplets.size());
  for (const auto& [r, c, v] : triplets) coo.push_back(r, c, v);
  return csr_from_coo(std::move(coo));
}

/// n-by-n identity.
template <IndexType IT, ValueType VT>
CsrMatrix<IT, VT> csr_identity(IT n) {
  CsrMatrix<IT, VT> out(n, n);
  out.cols.resize(static_cast<std::size_t>(n));
  out.vals.assign(static_cast<std::size_t>(n), VT{1});
  for (IT i = 0; i < n; ++i) {
    out.rpts[static_cast<std::size_t>(i) + 1] = i + 1;
    out.cols[static_cast<std::size_t>(i)] = i;
  }
  return out;
}

}  // namespace spgemm
