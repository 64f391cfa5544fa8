// Masked SpGEMM: C = M .* (A * B) computed without materializing A*B.
//
// The triangle-counting pipeline of §5.6 multiplies L*U only to immediately
// intersect the wedge matrix with the edge mask; masked SpGEMM fuses the
// two steps (Azad et al. [4]).  The mask is an operand of the one tile loop
// (detail::KernelPlan, core/spgemm_handle.hpp): per output row the thread
// scatters the mask row into dense flags, probes once with a flag test in
// front of every accumulate, and clears the flags, so work drops from
// O(flop) hash traffic to O(flop) flag tests plus O(nnz(M_i*)) accumulator
// entries, and the one-shot order runs no symbolic pass at all.  Repeated
// masked products plan an SpGemmHandle with the mask attached
// (set_epilogue_mask before plan()) and replay its in-mask slot streams.
#pragma once

#include <stdexcept>

#include "common/types.hpp"
#include "core/multiply.hpp"
#include "core/semiring.hpp"
#include "core/spgemm_options.hpp"
#include "matrix/csr.hpp"

namespace spgemm {

/// C = mask .* (A * B), structure restricted to `mask` (values of mask are
/// ignored).  Output rows are emitted sorted iff requested.  Runs any
/// two-phase kernel; other choices (and kAuto) run Hash.  A mask column
/// outside [0, b.ncols) throws SpGemmError(kBadInput).
template <IndexType IT, ValueType VT, typename SR = PlusTimes>
CsrMatrix<IT, VT> multiply_masked(const CsrMatrix<IT, VT>& a,
                                  const CsrMatrix<IT, VT>& b,
                                  const CsrMatrix<IT, VT>& mask,
                                  const SpGemmOptions& opts = {},
                                  SpGemmStats* stats = nullptr,
                                  SR /*semiring*/ = {}) {
  if (a.ncols != b.nrows) {
    throw std::invalid_argument("multiply_masked: inner dims disagree");
  }
  if (mask.nrows != a.nrows || mask.ncols != b.ncols) {
    throw std::invalid_argument("multiply_masked: mask shape mismatch");
  }
  SpGemmOptions masked = opts;
  if (!is_two_phase(masked.algorithm)) masked.algorithm = Algorithm::kHash;
  masked.epilogue = {};
  const detail::EpilogueContext<IT, VT> ectx{&mask, nullptr};
  return detail::multiply_two_phase<SR>(a, b, masked, stats, &ectx);
}

}  // namespace spgemm
