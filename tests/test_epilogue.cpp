// Fused epilogue pipelines (core/spgemm_options.hpp EpilogueSpec, the
// one-shot and fused-replay passes of core/spgemm_handle.hpp,
// core/spgemm_rap.hpp, engine wiring).
//
// The contract under test is bit-identity: a fused epilogue must produce
// EXACTLY the bytes of the unfused multiply followed by the equivalent
// postprocess, across kernels, thread counts, and the one-shot /
// planned-replay / engine-served paths — fusion changes where the work
// runs, never what it computes.  Inputs are unit-valued so every reduction
// is integer-valued and the scalar outputs are exact at any fold order.
//
// Plus the cache-poisoning hazard: fused and unfused plans over the same
// structure must occupy distinct PlanCache entries — a fused plan served
// to an unfused caller would silently return pruned rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/amg_galerkin.hpp"
#include "apps/markov_cluster.hpp"
#include "apps/triangle_count.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_rap.hpp"
#include "engine/spgemm_engine.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using Engine = engine::SpGemmEngine<I, double>;

constexpr Algorithm kKernels[] = {Algorithm::kHash, Algorithm::kHashVector,
                                  Algorithm::kSpa};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed) {
  Matrix m = rmat_matrix<I, double>(
      RmatParams::g500(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.nrows, y.nrows) << label;
  ASSERT_EQ(x.ncols, y.ncols) << label;
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    ASSERT_EQ(x.vals[i], y.vals[i]) << label << " at vals[" << i << "]";
  }
}

/// Sequential sum of C's entries that fall on mask's structure — the
/// oracle for kMaskReduce (matrix/ops.hpp masked_sum, minus the OpenMP).
double masked_sum_ref(const Matrix& c, const Matrix& mask) {
  std::vector<double> dense(static_cast<std::size_t>(c.ncols), 0.0);
  double total = 0.0;
  for (I i = 0; i < c.nrows; ++i) {
    for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
      dense[static_cast<std::size_t>(c.cols[static_cast<std::size_t>(j)])] =
          c.vals[static_cast<std::size_t>(j)];
    }
    for (Offset j = mask.row_begin(i); j < mask.row_end(i); ++j) {
      total += dense[static_cast<std::size_t>(
          mask.cols[static_cast<std::size_t>(j)])];
    }
    for (Offset j = c.row_begin(i); j < c.row_end(i); ++j) {
      dense[static_cast<std::size_t>(c.cols[static_cast<std::size_t>(j)])] =
          0.0;
    }
  }
  return total;
}

SpGemmOptions base_opts(Algorithm algo, int threads) {
  SpGemmOptions opts;
  opts.algorithm = algo;
  opts.threads = threads;
  opts.sort_output = SortOutput::kYes;
  return opts;
}

// ---------------------------------------------------------------------------
// kPruneScale: fused == unfused-then-inflate_and_prune, kernels x threads,
// one-shot and planned-replay paths.
// ---------------------------------------------------------------------------

TEST(EpiloguePruneScale, BitIdenticalAcrossKernelsAndThreads) {
  const Matrix a = unit_valued_rmat(7, 8, 23);
  const double inflation = 2.0;
  const double prune_below = 2.5;  // drops every count of 1, keeps >= 2
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions plain = base_opts(algo, threads);
      const Matrix c = multiply(a, a, plain);
      const Matrix expected =
          apps::detail::inflate_and_prune(c, inflation, prune_below);
      ASSERT_LT(expected.nnz(), c.nnz()) << label << ": prune is a no-op";

      SpGemmOptions fused = plain;
      fused.epilogue.kind = EpilogueKind::kPruneScale;
      fused.epilogue.inflation = inflation;
      fused.epilogue.prune_below = prune_below;

      SpGemmStats stats;
      const Matrix got =
          multiply_with_epilogue(a, a, fused, nullptr, nullptr, &stats);
      expect_bitwise_equal(got, expected, label + " one-shot");
      EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(a.nrows))
          << label;
      EXPECT_EQ(stats.nnz_out, static_cast<Offset>(expected.nnz())) << label;
    }
  }
}

TEST(EpiloguePruneScale, HandleReplayBitIdentical) {
  Matrix a = unit_valued_rmat(7, 8, 29);
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions fused = base_opts(algo, threads);
      fused.epilogue.kind = EpilogueKind::kPruneScale;
      fused.epilogue.inflation = 2.0;
      fused.epilogue.prune_below = 2.5;

      SpGemmHandle<I, double> handle(a, a, fused);
      const Matrix first = handle.execute(a, a);
      const Matrix oracle =
          multiply_with_epilogue(a, a, fused, nullptr, nullptr);
      expect_bitwise_equal(first, oracle, label + " plan+execute");

      // Numeric-only replay over the same values, then over updated ones.
      expect_bitwise_equal(handle.execute(a, a), oracle, label + " replay");
      for (auto& v : a.vals) v = 2.0;
      const Matrix updated = handle.execute(a, a);
      const Matrix updated_oracle =
          multiply_with_epilogue(a, a, fused, nullptr, nullptr);
      expect_bitwise_equal(updated, updated_oracle,
                           label + " values-update replay");
      for (auto& v : a.vals) v = 1.0;
    }
  }
}

TEST(EpiloguePruneScale, CollectsExactColumnSums) {
  const Matrix a = unit_valued_rmat(6, 8, 31);
  SpGemmOptions fused = base_opts(Algorithm::kHash, 4);
  fused.epilogue.kind = EpilogueKind::kPruneScale;
  fused.epilogue.inflation = 2.0;
  fused.epilogue.prune_below = 2.5;
  fused.epilogue.collect_column_sums = true;

  EpilogueResult result;
  const Matrix kept = multiply_with_epilogue(a, a, fused, &result);
  ASSERT_EQ(result.col_sums.size(), static_cast<std::size_t>(a.ncols));
  EXPECT_EQ(result.rows, static_cast<std::uint64_t>(a.nrows));
  std::vector<double> expected(static_cast<std::size_t>(a.ncols), 0.0);
  for (std::size_t j = 0; j < kept.cols.size(); ++j) {
    expected[static_cast<std::size_t>(kept.cols[j])] += kept.vals[j];
  }
  // Integer-valued sums: exact at every fold order.
  EXPECT_EQ(result.col_sums, expected);
}

// ---------------------------------------------------------------------------
// kMaskReduce: reduce == masked_sum of the unfused product; no output rows.
// ---------------------------------------------------------------------------

TEST(EpilogueMaskReduce, MatchesMaskedSumOracle) {
  const Matrix a = unit_valued_rmat(7, 8, 37);
  const TriangularSplit<I, double> split = prepare_triangle_split(a);
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions plain = base_opts(algo, threads);
      const Matrix wedges = multiply(split.lower, split.upper, plain);
      const double expected = masked_sum_ref(wedges, split.lower);

      SpGemmOptions fused = plain;
      fused.epilogue.kind = EpilogueKind::kMaskReduce;
      EpilogueResult result;
      SpGemmStats stats;
      const Matrix empty = multiply_with_epilogue(
          split.lower, split.upper, fused, &result, &split.lower, &stats);
      EXPECT_EQ(result.reduce, expected) << label;
      EXPECT_EQ(empty.nnz(), std::size_t{0}) << label;
      EXPECT_EQ(stats.nnz_out, Offset{0}) << label;
    }
  }
}

TEST(EpilogueMaskReduce, RejectsMissingOrMisshapenMask) {
  const Matrix a = unit_valued_rmat(5, 4, 41);
  SpGemmOptions fused = base_opts(Algorithm::kHash, 2);
  fused.epilogue.kind = EpilogueKind::kMaskReduce;
  EXPECT_THROW(multiply_with_epilogue(a, a, fused), std::invalid_argument);
  const Matrix wrong(a.nrows / 2, a.ncols);
  EXPECT_THROW(multiply_with_epilogue(a, a, fused, nullptr, &wrong),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// kRap: multiply_rap == R * (A * P) with a sorted intermediate.
// ---------------------------------------------------------------------------

TEST(EpilogueRap, BitIdenticalToTwoStepAcrossKernelsAndThreads) {
  const Matrix a = apps::poisson_2d<I, double>(24, 24);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 3);
  const Matrix r = transpose(p);
  for (const Algorithm algo : kKernels) {
    for (const int threads : kThreadCounts) {
      const std::string label =
          std::string(algorithm_name(algo)) + " t" + std::to_string(threads);
      SpGemmOptions opts = base_opts(algo, threads);
      const Matrix two_step = multiply(r, multiply(a, p, opts), opts);
      SpGemmStats stats;
      const Matrix fused = multiply_rap(r, a, p, opts, &stats);
      expect_bitwise_equal(fused, two_step, label);
      EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(r.nrows))
          << label;
    }
  }
}

TEST(EpilogueRap, RmatOperatorMatchesTwoStep) {
  Matrix a = unit_valued_rmat(7, 8, 43);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 4);
  const Matrix r = transpose(p);
  SpGemmOptions opts = base_opts(Algorithm::kHash, 4);
  expect_bitwise_equal(multiply_rap(r, a, p, opts),
                       multiply(r, multiply(a, p, opts), opts), "rmat rap");
}

// ---------------------------------------------------------------------------
// App-level parity: the ported pipelines agree with their unfused selves.
// ---------------------------------------------------------------------------

TEST(EpilogueApps, MclFusedMatchesUnfused) {
  const Matrix graph = unit_valued_rmat(7, 4, 47);
  apps::MclParams fused_params;
  fused_params.max_iterations = 8;
  apps::MclParams plain_params = fused_params;
  plain_params.fuse_epilogue = false;
  const auto fused = apps::markov_cluster(graph, fused_params);
  const auto plain = apps::markov_cluster(graph, plain_params);
  EXPECT_EQ(fused.cluster_of, plain.cluster_of);
  EXPECT_EQ(fused.clusters, plain.clusters);
  EXPECT_EQ(fused.iterations, plain.iterations);
  EXPECT_EQ(fused.converged, plain.converged);
}

TEST(EpilogueApps, TriangleCountFusedMatchesUnfused) {
  const Matrix a = unit_valued_rmat(7, 8, 53);
  const auto plain = apps::count_triangles(a);
  const auto fused = apps::count_triangles_fused(a);
  EXPECT_EQ(fused.triangles, plain.triangles);
  EXPECT_EQ(fused.wedges.nnz(), std::size_t{0});
}

TEST(EpilogueApps, GalerkinFusedMatchesTwoStep) {
  const Matrix a = apps::poisson_2d<I, double>(20, 20);
  const Matrix p = apps::aggregation_prolongator<I, double>(a.nrows, 4);
  SpGemmOptions opts = base_opts(Algorithm::kHash, 4);
  const auto plain = apps::galerkin_product(a, p, opts);
  const auto fused = apps::galerkin_product_fused(a, p, opts);
  expect_bitwise_equal(fused.coarse, plain.coarse, "galerkin");

  // Reassembler in fused-RAP mode: every step is the fused pass.
  apps::GalerkinReassembler<I, double> rap(a, p, opts, /*fuse_rap=*/true);
  expect_bitwise_equal(rap.reassemble(a), plain.coarse, "reassembler");
  EXPECT_EQ(rap.reassemblies(), std::uint64_t{1});
}

// ---------------------------------------------------------------------------
// PlanCache separation: fused and unfused plans over the same structure
// never share an entry — and epilogue specs fingerprint distinctly.
// ---------------------------------------------------------------------------

TEST(EpiloguePlanCache, SpecFingerprintsDistinguishEpilogues) {
  EpilogueSpec none;
  EXPECT_EQ(none.fingerprint(), std::uint64_t{0});
  EpilogueSpec prune;
  prune.kind = EpilogueKind::kPruneScale;
  prune.inflation = 2.0;
  prune.prune_below = 1e-4;
  EpilogueSpec mask;
  mask.kind = EpilogueKind::kMaskReduce;
  EXPECT_NE(prune.fingerprint(), std::uint64_t{0});
  EXPECT_NE(mask.fingerprint(), std::uint64_t{0});
  EXPECT_NE(prune.fingerprint(), mask.fingerprint());
  EpilogueSpec prune_other = prune;
  prune_other.prune_below = 1e-3;
  EXPECT_NE(prune.fingerprint(), prune_other.fingerprint());
}

TEST(EpiloguePlanCache, FusedAndUnfusedOccupyDistinctEntries) {
  const Matrix a = unit_valued_rmat(6, 8, 59);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);

  Engine::Request fused_req;
  fused_req.a = &a;
  fused_req.b = &a;
  fused_req.epilogue.kind = EpilogueKind::kPruneScale;
  fused_req.epilogue.inflation = 2.0;
  fused_req.epilogue.prune_below = 2.5;

  const Engine::Product fused_first = eng.submit(fused_req).get();
  EXPECT_FALSE(fused_first.cache_hit);
  const Engine::Product fused_again = eng.submit(fused_req).get();
  EXPECT_TRUE(fused_again.cache_hit);
  expect_bitwise_equal(fused_again.c, fused_first.c, "fused hit");

  // Same structure, no epilogue: a poisoned shared entry would serve the
  // PRUNED plan here — the unfused product must be a miss and must carry
  // the full intermediate.
  const Engine::Product plain = eng.submit(Engine::Request{&a, &a}).get();
  EXPECT_FALSE(plain.cache_hit);
  SpGemmOptions opts = eo.plan;
  opts.threads = plain.threads_used;
  expect_bitwise_equal(plain.c, multiply(a, a, opts), "unfused after fused");
  ASSERT_GT(plain.c.nnz(), fused_first.c.nnz());

  SpGemmOptions fused_opts = opts;
  fused_opts.threads = fused_first.threads_used;
  fused_opts.epilogue = fused_req.epilogue;
  expect_bitwise_equal(
      fused_first.c,
      multiply_with_epilogue(a, a, fused_opts, nullptr, nullptr),
      "fused product");
}

TEST(EpilogueEngine, MaskReduceServedThroughEngine) {
  const Matrix a = unit_valued_rmat(6, 8, 61);
  const TriangularSplit<I, double> split = prepare_triangle_split(a);
  Engine eng;

  Engine::Request req;
  req.a = &split.lower;
  req.b = &split.upper;
  req.epilogue.kind = EpilogueKind::kMaskReduce;
  req.epilogue_mask = &split.lower;

  SpGemmOptions oracle_opts;
  oracle_opts.sort_output = SortOutput::kYes;
  const double expected = masked_sum_ref(
      multiply(split.lower, split.upper, oracle_opts), split.lower);
  const Engine::Product first = eng.submit(req).get();
  EXPECT_EQ(first.epilogue.reduce, expected);
  const Engine::Product again = eng.submit(req).get();
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.epilogue.reduce, expected);

  // A kMaskReduce request without its mask is a typed admission error.
  Engine::Request bad = req;
  bad.epilogue_mask = nullptr;
  EXPECT_THROW(eng.submit(bad).get(), SpGemmError);
}

// A mask rides only with kMaskReduce: a request of any other kind that
// carries one is an unmasked product and shares the unmasked plan.  Masked
// and unmasked requests alternating over one (A, B) keep two cache entries
// and hit both, with every result matching its oracle.
TEST(EpilogueEngine, MaskedAndUnmaskedRequestsShareNoPlan) {
  const Matrix a = unit_valued_rmat(7, 8, 67);
  const TriangularSplit<I, double> split = prepare_triangle_split(a);
  engine::EngineOptions eo;
  eo.plan.algorithm = Algorithm::kHash;
  Engine eng(eo);

  Engine::Request plain{&split.lower, &split.upper};
  plain.epilogue_mask = &split.lower;  // ignored: no kMaskReduce
  Engine::Request reduce = plain;
  reduce.epilogue.kind = EpilogueKind::kMaskReduce;

  SpGemmOptions oracle_opts = eo.plan;
  oracle_opts.sort_output = SortOutput::kYes;
  const double expected = masked_sum_ref(
      multiply(split.lower, split.upper, oracle_opts), split.lower);
  for (int round = 0; round < 3; ++round) {
    const std::string label = "round " + std::to_string(round);
    const Engine::Product p = eng.submit(plain).get();
    EXPECT_EQ(p.cache_hit, round > 0) << label;
    SpGemmOptions opts = eo.plan;
    opts.threads = p.threads_used;
    expect_bitwise_equal(p.c, multiply(split.lower, split.upper, opts),
                         label + " unmasked");
    const Engine::Product r = eng.submit(reduce).get();
    EXPECT_EQ(r.cache_hit, round > 0) << label;
    EXPECT_EQ(r.epilogue.reduce, expected) << label;
    EXPECT_EQ(r.c.nnz(), 0) << label;
  }
}

}  // namespace
}  // namespace spgemm
