// HashVector SpGEMM (paper §4.2.2): the two-phase tile loop with the chunked
// SIMD-probed hash accumulator.  Identical structure to Hash SpGEMM; only
// the probing data structure differs (paper Fig. 8).
#pragma once

#include "core/spgemm_handle.hpp"
#include "core/spgemm_policies.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_hashvector(const CsrMatrix<IT, VT>& a,
                                    const CsrMatrix<IT, VT>& b,
                                    const SpGemmOptions& opts = {},
                                    SpGemmStats* stats = nullptr,
                                    SR semiring = {}) {
  return detail::run_once<IT, VT>(
      a, b, opts, detail::HashVecPlanPolicy<IT, VT>{opts.probe}, stats,
      semiring);
}

}  // namespace spgemm
