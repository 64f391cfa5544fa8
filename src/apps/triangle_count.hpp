// Triangle counting via SpGEMM (paper §5.6, after Azad, Buluç & Gilbert
// [4]).
//
// Pipeline: reorder vertices by increasing degree, split the adjacency
// matrix A = L + U into strict triangles (unit-valued, so wedge counts are
// pure path counts), compute the wedge matrix W = L*U (the SpGEMM step the
// paper benchmarks), then count the wedges that close into triangles: with
// the smallest-labelled vertex as the wedge apex, every triangle {i, j, k}
// (k < j < i) is counted exactly once by sum( (L*U) .* L ).
//
// Three counters share that pipeline and differ in where the mask L is
// applied:
//   * count_triangles         — materializes W, then masked_sum (the
//                               paper's Fig. 17 pipeline);
//   * count_triangles_masked  — the masked product L .* (L*U), tested at
//                               probe time, kept as out.wedges;
//   * count_triangles_fused   — the same masked product with a kMaskReduce
//                               epilogue that sums each filtered row and
//                               keeps nothing.
// The masked two run one pass with no symbolic phase: only wedges that L
// keeps ever reach an accumulator.  Under Algorithm::kAuto both run the
// Hash kernel (masked_count_kernel): the Table 4 recipe has no rule for a
// masked product, and whether SPA beats Hash there is unmeasured.
#pragma once

#include <cstdint>

#include "core/multiply.hpp"
#include "core/spgemm_masked.hpp"
#include "matrix/ops.hpp"
#include "matrix/triangular.hpp"
#include "parallel/omp_utils.hpp"

namespace spgemm::apps {

/// The kernel the masked counters run: the requested one, or Hash under
/// kAuto.
inline Algorithm masked_count_kernel(Algorithm requested) {
  return requested == Algorithm::kAuto ? Algorithm::kHash : requested;
}

template <IndexType IT, ValueType VT>
struct TriangleCountResult {
  std::int64_t triangles = 0;
  SpGemmStats spgemm_stats;   ///< timings of the L*U multiply
  CsrMatrix<IT, VT> wedges;   ///< W = L*U (kept for inspection/tests)
};

/// Masked variant: fuses the L*U product with the edge-mask intersection
/// via multiply_masked(), never materializing the wedge matrix.  Returns
/// the same count as count_triangles() with wedges restricted to L's
/// structure (out.wedges holds the masked product).
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles_masked(
    const CsrMatrix<IT, VT>& a, SpGemmOptions opts = {}) {
  parallel::ScopedNumThreads scoped(opts.threads);
  const TriangularSplit<IT, VT> split = prepare_triangle_split(a);
  opts.algorithm = masked_count_kernel(opts.algorithm);

  TriangleCountResult<IT, VT> out;
  out.wedges = multiply_masked(split.lower, split.upper, split.lower, opts,
                               &out.spgemm_stats);
  double closed = 0.0;
  for (const VT v : out.wedges.vals) closed += static_cast<double>(v);
  out.triangles = static_cast<std::int64_t>(closed + 0.5);
  return out;
}

/// Fused-epilogue variant: the wedge matrix W = L*U is never materialized.
/// The product is masked by L at probe time, and a kMaskReduce epilogue
/// folds each filtered row's wedge counts into a scalar while the row is
/// still in the accumulator's staging buffer — zero entries are kept, so
/// the pipeline's peak memory is the inputs plus thread scratch.  Counts
/// are integer-valued doubles, so the per-thread fold is exact and the
/// result matches count_triangles() bit-for-bit.  out.wedges stays empty.
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles_fused(
    const CsrMatrix<IT, VT>& a, SpGemmOptions opts = {}) {
  parallel::ScopedNumThreads scoped(opts.threads);
  const TriangularSplit<IT, VT> split = prepare_triangle_split(a);
  opts.algorithm = masked_count_kernel(opts.algorithm);
  opts.epilogue.kind = EpilogueKind::kMaskReduce;

  TriangleCountResult<IT, VT> out;
  EpilogueResult closed;
  multiply_with_epilogue(split.lower, split.upper, opts, &closed,
                         &split.lower, &out.spgemm_stats);
  out.triangles = static_cast<std::int64_t>(closed.reduce + 0.5);
  return out;
}

/// Count triangles of the undirected graph whose adjacency matrix is `a`
/// (must be structurally symmetric; values are ignored — structure only).
template <IndexType IT, ValueType VT>
TriangleCountResult<IT, VT> count_triangles(const CsrMatrix<IT, VT>& a,
                                            SpGemmOptions opts = {}) {
  parallel::ScopedNumThreads scoped(opts.threads);
  const TriangularSplit<IT, VT> split = prepare_triangle_split(a);

  if (opts.algorithm == Algorithm::kAuto) {
    opts.algorithm = recipe::select_for(
        split.lower, split.upper, recipe::Operation::kTriangular,
        opts.sort_output, recipe::DataOrigin::kReal);
  }
  TriangleCountResult<IT, VT> out;
  out.wedges =
      multiply(split.lower, split.upper, opts, &out.spgemm_stats);
  const double closed = masked_sum(out.wedges, split.lower);
  out.triangles = static_cast<std::int64_t>(closed + 0.5);
  return out;
}

}  // namespace spgemm::apps
