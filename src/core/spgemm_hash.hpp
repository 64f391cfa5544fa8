// Hash SpGEMM (paper §4.2.1): the two-phase tile loop with the linear-probing
// hash accumulator, sized per thread to the maximum per-row flop of its row
// block (paper Fig. 7).
#pragma once

#include "core/spgemm_handle.hpp"
#include "core/spgemm_policies.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_hash(const CsrMatrix<IT, VT>& a,
                              const CsrMatrix<IT, VT>& b,
                              const SpGemmOptions& opts = {},
                              SpGemmStats* stats = nullptr,
                              SR semiring = {}) {
  return detail::run_once<IT, VT>(
      a, b, opts, detail::HashPlanPolicy<IT, VT>{}, stats, semiring);
}

}  // namespace spgemm
