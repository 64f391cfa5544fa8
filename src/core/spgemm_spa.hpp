// SPA SpGEMM: two-phase Gustavson with a dense sparse accumulator.
//
// This kernel is the repository's stand-in for Intel MKL's sorted-capable
// mkl_sparse_spmm path (see README "Stand-in kernels"): O(ncols)
// accumulator per thread, insert cost insensitive to collisions, output
// sortedness selectable by sorting the touched-column list.
#pragma once

#include "core/spgemm_handle.hpp"
#include "core/spgemm_policies.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_spa(const CsrMatrix<IT, VT>& a,
                             const CsrMatrix<IT, VT>& b,
                             const SpGemmOptions& opts = {},
                             SpGemmStats* stats = nullptr, SR semiring = {}) {
  return detail::run_once<IT, VT>(
      a, b, opts, detail::SpaPlanPolicy<IT, VT>{}, stats, semiring);
}

}  // namespace spgemm
