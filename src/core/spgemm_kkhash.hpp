// Two-level hash map SpGEMM: the KokkosKernels 'kkmem' stand-in (see README
// "Stand-in kernels").  Two-phase, chained hash accumulator, natively
// unsorted output (paper Table 1 lists KokkosKernels as Any/Unsorted).
#pragma once

#include "core/spgemm_handle.hpp"
#include "core/spgemm_policies.hpp"

namespace spgemm {

template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> spgemm_kkhash(const CsrMatrix<IT, VT>& a,
                                const CsrMatrix<IT, VT>& b,
                                const SpGemmOptions& opts = {},
                                SpGemmStats* stats = nullptr,
                                SR semiring = {}) {
  return detail::run_once<IT, VT>(
      a, b, opts, detail::KkHashPlanPolicy<IT, VT>{}, stats, semiring);
}

}  // namespace spgemm
