// Masked products at probe time (core/spgemm_handle.hpp KernelPlan with a
// mask operand; multiply_masked, kMaskReduce, SpGemmHandle with a mask).
//
// The contract: a masked product is the full product filtered by the mask,
// bit for bit — every in-mask entry folds the same contributions in the
// same traversal order, the mask only skips the others.  It must hold for
// every two-phase kernel, every thread count, the one-shot and the
// plan/replay paths (captured and re-probed rows alike), and for masks that
// are general, empty, equal to the product, full of columns the product
// never produces, or unsorted.  kMaskReduce must equal the masked_sum
// oracle exactly on integer-valued inputs.  A mask column out of range is a
// typed kBadInput error, never an out-of-bounds access.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/triangle_count.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_masked.hpp"
#include "matrix/rmat.hpp"
#include "matrix/triangular.hpp"
#include "parallel/omp_utils.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

constexpr Algorithm kTwoPhaseKernels[] = {
    Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa,
    Algorithm::kKkHash, Algorithm::kAdaptive};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

/// Integer-valued copy (1, 2 or 3): every sum of products is exact.
Matrix integer_valued(Matrix m) {
  for (std::size_t k = 0; k < m.vals.size(); ++k) {
    m.vals[k] = static_cast<double>(1 + k % 3);
  }
  return m;
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.nrows, y.nrows) << label;
  ASSERT_EQ(x.ncols, y.ncols) << label;
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t k = 0; k < x.vals.size(); ++k) {
    ASSERT_EQ(x.vals[k], y.vals[k]) << label << " at vals[" << k << "]";
  }
}

/// Oracle: the entries of `full` whose column is in the same mask row, in
/// full's order.
Matrix filter_by_mask(const Matrix& full, const Matrix& mask) {
  Matrix out(full.nrows, full.ncols);
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(full.ncols), 0);
  for (I i = 0; i < full.nrows; ++i) {
    for (Offset j = mask.row_begin(i); j < mask.row_end(i); ++j) {
      flags[static_cast<std::size_t>(mask.cols[static_cast<std::size_t>(j)])] =
          1;
    }
    for (Offset j = full.row_begin(i); j < full.row_end(i); ++j) {
      const I c = full.cols[static_cast<std::size_t>(j)];
      if (flags[static_cast<std::size_t>(c)] != 0) {
        out.cols.push_back(c);
        out.vals.push_back(full.vals[static_cast<std::size_t>(j)]);
      }
    }
    out.rpts[static_cast<std::size_t>(i) + 1] =
        static_cast<Offset>(out.cols.size());
    for (Offset j = mask.row_begin(i); j < mask.row_end(i); ++j) {
      flags[static_cast<std::size_t>(mask.cols[static_cast<std::size_t>(j)])] =
          0;
    }
  }
  out.sortedness = full.sortedness;
  return out;
}

/// Sequential sum of C's entries on the mask's positions — matrix/ops.hpp
/// masked_sum without the OpenMP.
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

SpGemmOptions opts_for(Algorithm algo, int threads,
                       SortOutput sort = SortOutput::kYes) {
  SpGemmOptions opts;
  opts.algorithm = algo;
  opts.threads = threads;
  opts.sort_output = sort;
  return opts;
}

struct Operands {
  Matrix a;
  Matrix b;
};

Operands make_operands(bool integer) {
  Operands ops{rmat_matrix<I, double>(RmatParams::g500(7, 6, 101)),
               rmat_matrix<I, double>(RmatParams::er(7, 6, 102))};
  if (integer) {
    ops.a = integer_valued(std::move(ops.a));
    ops.b = integer_valued(std::move(ops.b));
  }
  return ops;
}

/// Up to 16 columns per row that the product row never produces, plus the
/// row's first product column on even rows.
Matrix never_produced_mask(const Matrix& full) {
  Matrix mask(full.nrows, full.ncols);
  const auto n = static_cast<std::size_t>(full.ncols);
  std::vector<std::uint8_t> produced(n, 0);
  for (I i = 0; i < full.nrows; ++i) {
    std::vector<I> row;
    for (Offset j = full.row_begin(i); j < full.row_end(i); ++j) {
      produced[static_cast<std::size_t>(
          full.cols[static_cast<std::size_t>(j)])] = 1;
    }
    for (std::size_t t = 0; t < 16; ++t) {
      const auto c = (static_cast<std::size_t>(i) * 7 + t * 13) % n;
      if (produced[c] == 0) row.push_back(static_cast<I>(c));
    }
    if (i % 2 == 0 && full.row_nnz(i) > 0) {
      row.push_back(full.cols[static_cast<std::size_t>(full.row_begin(i))]);
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    for (const I c : row) mask.cols.push_back(c);
    mask.vals.resize(mask.cols.size(), 1.0);
    mask.rpts[static_cast<std::size_t>(i) + 1] =
        static_cast<Offset>(mask.cols.size());
    for (Offset j = full.row_begin(i); j < full.row_end(i); ++j) {
      produced[static_cast<std::size_t>(
          full.cols[static_cast<std::size_t>(j)])] = 0;
    }
  }
  return mask;
}

/// The mask shapes every path is checked on.
struct MaskCase {
  std::string name;
  Matrix mask;
};

std::vector<MaskCase> mask_cases(const Operands& ops) {
  const I n = ops.a.nrows;
  const Matrix full = multiply(ops.a, ops.b, opts_for(Algorithm::kHash, 1));
  Matrix er = rmat_matrix<I, double>(RmatParams::er(7, 8, 103));
  Matrix unsorted = er;
  for (I i = 0; i < n; ++i) {
    std::reverse(unsorted.cols.begin() + unsorted.row_begin(i),
                 unsorted.cols.begin() + unsorted.row_end(i));
  }
  unsorted.sortedness = Sortedness::kUnsorted;
  return {{"er", er},
          {"empty", Matrix(n, ops.b.ncols)},
          {"full-product", full},
          {"never-produced", never_produced_mask(full)},
          {"unsorted", unsorted}};
}

std::string label_of(Algorithm algo, int threads, const std::string& what) {
  return std::string(algorithm_name(algo)) + " t" + std::to_string(threads) +
         " " + what;
}

// ---------------------------------------------------------------------------
// One-shot: multiply_masked == full product, then filter (bitwise).
// ---------------------------------------------------------------------------

TEST(MaskedProbe, OneShotEqualsFilteredFullProductBitwise) {
  const Operands ops = make_operands(/*integer=*/false);
  const std::vector<MaskCase> masks = mask_cases(ops);
  for (const Algorithm algo : kTwoPhaseKernels) {
    for (const int threads : kThreadCounts) {
      const SpGemmOptions opts = opts_for(algo, threads);
      const Matrix full = multiply(ops.a, ops.b, opts);
      for (const MaskCase& mc : masks) {
        const std::string label = label_of(algo, threads, mc.name);
        const Matrix expected = filter_by_mask(full, mc.mask);
        SpGemmStats stats;
        const Matrix got = multiply_masked(ops.a, ops.b, mc.mask, opts, &stats);
        expect_bitwise_equal(got, expected, label);
        EXPECT_EQ(got.sortedness, Sortedness::kSorted) << label;
        EXPECT_EQ(stats.symbolic_probes, 0u) << label;
        EXPECT_EQ(stats.nnz_out, static_cast<Offset>(expected.nnz())) << label;
      }
    }
  }
}

TEST(MaskedProbe, OneShotUnsortedOutputHoldsTheSameEntries) {
  const Operands ops = make_operands(/*integer=*/false);
  const std::vector<MaskCase> masks = mask_cases(ops);
  for (const Algorithm algo : kTwoPhaseKernels) {
    const SpGemmOptions sorted = opts_for(algo, 4);
    const SpGemmOptions unsorted = opts_for(algo, 4, SortOutput::kNo);
    for (const MaskCase& mc : masks) {
      const std::string label = label_of(algo, 4, mc.name);
      Matrix got = multiply_masked(ops.a, ops.b, mc.mask, unsorted);
      EXPECT_EQ(got.sortedness, Sortedness::kUnsorted) << label;
      got.sort_rows();
      expect_bitwise_equal(
          got, multiply_masked(ops.a, ops.b, mc.mask, sorted), label);
    }
  }
}

// ---------------------------------------------------------------------------
// Plan + replay: a handle planned with a mask attached.
// ---------------------------------------------------------------------------

/// Capture settings the replay path is checked under: default, every row
/// re-probed, and a small forced budget that mixes captured and re-probed
/// rows within a thread.
std::vector<std::pair<std::string, SpGemmOptions>> capture_modes(
    SpGemmOptions base) {
  SpGemmOptions off = base;
  off.reuse = StructureReuse::kOff;
  SpGemmOptions mixed = base;
  mixed.reuse = StructureReuse::kOn;
  mixed.reuse_budget_bytes = 2048;
  return {{"default", base}, {"reprobe", off}, {"mixed", mixed}};
}

TEST(MaskedProbe, HandleReplayEqualsFilteredFullProductBitwise) {
  Operands ops = make_operands(/*integer=*/false);
  const std::vector<MaskCase> masks = mask_cases(ops);
  for (const Algorithm algo : kTwoPhaseKernels) {
    for (const int threads : kThreadCounts) {
      for (const auto& [mode, opts] : capture_modes(opts_for(algo, threads))) {
        const Matrix full = multiply(ops.a, ops.b, opts);
        for (const MaskCase& mc : masks) {
          const std::string label =
              label_of(algo, threads, mc.name + " " + mode);
          const Matrix expected = filter_by_mask(full, mc.mask);
          SpGemmHandle<I, double> handle;
          handle.set_epilogue_mask(&mc.mask);
          handle.plan(ops.a, ops.b, opts);
          EXPECT_EQ(handle.nnz_out(), static_cast<Offset>(expected.nnz()))
              << label;
          if (mode == "mixed" && mc.name == "er") {
            EXPECT_GT(handle.capture_rate(), 0.0) << label;
            EXPECT_LT(handle.capture_rate(), 1.0) << label;
          } else if (mode == "reprobe") {
            EXPECT_EQ(handle.capture_rate(), 0.0) << label;
          } else if (mode == "default" && mc.name != "full-product") {
            // The default budget captures every row of these masks; rows
            // without products count as captured, as in an unmasked plan.
            // (The full-product mask keeps every product, so its late rows
            // overflow the two-slots-per-flop capture bound and re-probe.)
            EXPECT_EQ(handle.capture_rate(), 1.0) << label;
          }
          expect_bitwise_equal(handle.execute(ops.a, ops.b), expected,
                               label + " first");
          expect_bitwise_equal(handle.execute(ops.a, ops.b), expected,
                               label + " replay");
          Matrix out;
          handle.execute_into(ops.a, ops.b, out);
          expect_bitwise_equal(out, expected, label + " execute_into");
        }
      }
    }
  }
}

TEST(MaskedProbe, HandleReplayFollowsValueUpdates) {
  Operands ops = make_operands(/*integer=*/false);
  const std::vector<MaskCase> masks = mask_cases(ops);
  for (const Algorithm algo : kTwoPhaseKernels) {
    const SpGemmOptions opts = opts_for(algo, 4);
    for (const MaskCase& mc : masks) {
      Operands live = ops;
      SpGemmHandle<I, double> handle;
      handle.set_epilogue_mask(&mc.mask);
      handle.plan(live.a, live.b, opts);
      for (auto& v : live.a.vals) v = std::sqrt(v) + 0.25;
      expect_bitwise_equal(
          handle.execute(live.a, live.b),
          filter_by_mask(multiply(live.a, live.b, opts), mc.mask),
          label_of(algo, 4, mc.name + " updated values"));
    }
  }
}

// ---------------------------------------------------------------------------
// kMaskReduce: the row is filtered while probing, then summed.
// ---------------------------------------------------------------------------

TEST(MaskedProbe, MaskReduceMatchesOracleExactlyOnIntegerValues) {
  const Operands ops = make_operands(/*integer=*/true);
  const std::vector<MaskCase> masks = mask_cases(ops);
  for (const Algorithm algo : kTwoPhaseKernels) {
    for (const int threads : kThreadCounts) {
      SpGemmOptions plain = opts_for(algo, threads);
      SpGemmStats plain_stats;
      const Matrix full = multiply(ops.a, ops.b, plain, &plain_stats);
      SpGemmOptions fused = plain;
      fused.epilogue.kind = EpilogueKind::kMaskReduce;
      for (const MaskCase& mc : masks) {
        const std::string label = label_of(algo, threads, mc.name);
        const double expected = masked_sum_ref(full, mc.mask);

        EpilogueResult result;
        SpGemmStats stats;
        const Matrix empty = multiply_with_epilogue(ops.a, ops.b, fused,
                                                    &result, &mc.mask, &stats);
        EXPECT_EQ(result.reduce, expected) << label << " one-shot";
        EXPECT_EQ(empty.nnz(), 0) << label;
        EXPECT_EQ(stats.symbolic_probes, 0u) << label;
        EXPECT_EQ(stats.flop, plain_stats.flop) << label;
        EXPECT_EQ(stats.epilogue_rows, static_cast<std::uint64_t>(ops.a.nrows))
            << label;

        for (const auto& [mode, opts] : capture_modes(fused)) {
          SpGemmHandle<I, double> handle;
          handle.set_epilogue_mask(&mc.mask);
          handle.plan(ops.a, ops.b, opts);
          EXPECT_EQ(handle.flop(), plain_stats.flop) << label;
          (void)handle.execute(ops.a, ops.b);
          EXPECT_EQ(handle.epilogue_result().reduce, expected)
              << label << " handle " << mode;
          (void)handle.execute(ops.a, ops.b);
          EXPECT_EQ(handle.epilogue_result().reduce, expected)
              << label << " replay " << mode;
        }
      }
    }
  }
}

TEST(MaskedProbe, MaskReduceWithinToleranceOnRealValues) {
  const Operands ops = make_operands(/*integer=*/false);
  const std::vector<MaskCase> masks = mask_cases(ops);
  double max_a = 0.0;
  double max_b = 0.0;
  for (const double v : ops.a.vals) max_a = std::max(max_a, std::abs(v));
  for (const double v : ops.b.vals) max_b = std::max(max_b, std::abs(v));
  Offset max_row = 0;
  for (I i = 0; i < ops.a.nrows; ++i) {
    Offset flop = 0;
    for (Offset j = ops.a.row_begin(i); j < ops.a.row_end(i); ++j) {
      flop += ops.b.row_nnz(ops.a.cols[static_cast<std::size_t>(j)]);
    }
    max_row = std::max(max_row, flop);
  }
  constexpr double kEps = 1e-13;
  for (const Algorithm algo : kTwoPhaseKernels) {
    for (const int threads : kThreadCounts) {
      SpGemmOptions fused = opts_for(algo, threads);
      const Matrix full = multiply(ops.a, ops.b, fused);
      fused.epilogue.kind = EpilogueKind::kMaskReduce;
      for (const MaskCase& mc : masks) {
        const double expected = masked_sum_ref(full, mc.mask);
        // SNIPPETS #2: |exp - got| <= eps * max_val, with max_val bounding
        // the sum: nnz(mask) entries of at most max_row * max|a| * max|b|.
        const double max_val = static_cast<double>(mc.mask.nnz()) *
                               static_cast<double>(max_row) * max_a * max_b;
        EpilogueResult result;
        (void)multiply_with_epilogue(ops.a, ops.b, fused, &result, &mc.mask);
        EXPECT_LE(std::abs(expected - result.reduce), kEps * max_val)
            << label_of(algo, threads, mc.name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The mask is a plan operand: drift is a typed error, a same-structure copy
// is accepted, ensure_planned replans on a new mask.
// ---------------------------------------------------------------------------

TEST(MaskedProbe, HandleRejectsMaskDrift) {
  const Operands ops = make_operands(/*integer=*/true);
  const std::vector<MaskCase> masks = mask_cases(ops);
  const Matrix& planned = masks[0].mask;
  const Matrix& other = masks[3].mask;
  for (const EpilogueKind kind :
       {EpilogueKind::kNone, EpilogueKind::kMaskReduce}) {
    SpGemmOptions opts = opts_for(Algorithm::kHash, 4);
    opts.epilogue.kind = kind;
    SpGemmHandle<I, double> handle;
    handle.set_epilogue_mask(&planned);
    handle.plan(ops.a, ops.b, opts);
    (void)handle.execute(ops.a, ops.b);

    // A copy with the planned structure: O(1) check misses, fingerprint
    // accepts.
    const Matrix copy = planned;
    handle.set_epilogue_mask(&copy);
    EXPECT_NO_THROW((void)handle.execute(ops.a, ops.b));

    handle.set_epilogue_mask(&other);
    try {
      (void)handle.execute(ops.a, ops.b);
      ADD_FAILURE() << "execute with a drifted mask did not throw";
    } catch (const SpGemmError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kBadInput);
    }
    if (kind == EpilogueKind::kNone) {
      handle.set_epilogue_mask(nullptr);
      try {
        (void)handle.execute(ops.a, ops.b);
        ADD_FAILURE() << "execute of a masked plan without a mask";
      } catch (const SpGemmError& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBadInput);
      }
    }

    // ensure_planned sees the new mask and replans.
    handle.set_epilogue_mask(&other);
    EXPECT_TRUE(handle.ensure_planned(ops.a, ops.b, opts));
    EXPECT_FALSE(handle.ensure_planned(ops.a, ops.b, opts));
    (void)handle.execute(ops.a, ops.b);
  }

  // A mask attached after an unmasked plan is drift too.
  SpGemmHandle<I, double> plain(ops.a, ops.b, opts_for(Algorithm::kHash, 2));
  plain.set_epilogue_mask(&planned);
  EXPECT_THROW((void)plain.execute(ops.a, ops.b), SpGemmError);
}

// ---------------------------------------------------------------------------
// Mask column bounds: checked while scattering, typed error after the pass.
// ---------------------------------------------------------------------------

void expect_bad_input(const std::function<void()>& run,
                      const std::string& label) {
  try {
    run();
    ADD_FAILURE() << label << ": no error for an out-of-range mask column";
  } catch (const SpGemmError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadInput) << label;
  }
}

TEST(MaskedProbe, OutOfRangeMaskColumnsAreTypedErrors) {
  const Operands ops = make_operands(/*integer=*/true);
  const Matrix good = mask_cases(ops)[0].mask;
  for (const I bad_col : {ops.b.ncols, ops.b.ncols + 1000, I{-1}}) {
    Matrix bad = good;
    bad.cols[bad.cols.size() / 2] = bad_col;
    for (const Algorithm algo : kTwoPhaseKernels) {
      for (const int threads : {1, 4}) {
        const std::string label =
            label_of(algo, threads, "col " + std::to_string(bad_col));
        SpGemmOptions opts = opts_for(algo, threads);
        expect_bad_input(
            [&] { (void)multiply_masked(ops.a, ops.b, bad, opts); },
            label + " multiply_masked");
        SpGemmOptions fused = opts;
        fused.epilogue.kind = EpilogueKind::kMaskReduce;
        expect_bad_input(
            [&] {
              (void)multiply_with_epilogue(ops.a, ops.b, fused, nullptr, &bad);
            },
            label + " kMaskReduce");
        SpGemmHandle<I, double> handle;
        handle.set_epilogue_mask(&bad);
        expect_bad_input([&] { handle.plan(ops.a, ops.b, fused); },
                         label + " plan");
        EXPECT_FALSE(handle.planned()) << label;
        // The failed pass left the recycled thread state clean.
        handle.set_epilogue_mask(&good);
        handle.plan(ops.a, ops.b, fused);
        (void)handle.execute(ops.a, ops.b);
        EXPECT_EQ(handle.epilogue_result().reduce,
                  masked_sum_ref(multiply(ops.a, ops.b, opts), good))
            << label;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Triangle split: parallel, unit-valued, identical at any thread count.
// ---------------------------------------------------------------------------

TEST(MaskedProbe, TriangleSplitIsThreadCountInvariant) {
  RmatParams p = RmatParams::g500(9, 8, 107);
  p.symmetric = true;
  const Matrix g = rmat_matrix<I, double>(p);
  TriangularSplit<I, double> serial;
  {
    parallel::ScopedNumThreads one(1);
    serial = prepare_triangle_split(g);
  }
  ASSERT_GT(serial.lower.nnz(), 0);
  for (const double v : serial.lower.vals) ASSERT_EQ(v, 1.0);
  for (const double v : serial.upper.vals) ASSERT_EQ(v, 1.0);
  expect_bitwise_equal(serial.upper, transpose(serial.lower), "U == L^T");
  for (const int threads : {2, 4}) {
    parallel::ScopedNumThreads scoped(threads);
    const TriangularSplit<I, double> par = prepare_triangle_split(g);
    const std::string label = "t" + std::to_string(threads);
    expect_bitwise_equal(par.reordered, serial.reordered, label + " reordered");
    expect_bitwise_equal(par.lower, serial.lower, label + " lower");
    expect_bitwise_equal(par.upper, serial.upper, label + " upper");
  }
}

TEST(MaskedProbe, TriangleCountersAgreeAcrossKernelsAndThreads) {
  RmatParams p = RmatParams::g500(9, 8, 109);
  p.symmetric = true;
  const Matrix g = rmat_matrix<I, double>(p);
  const std::int64_t expected = apps::count_triangles(g).triangles;
  ASSERT_GT(expected, 0);
  for (const Algorithm algo : kTwoPhaseKernels) {
    for (const int threads : kThreadCounts) {
      const SpGemmOptions opts = opts_for(algo, threads);
      const std::string label = label_of(algo, threads, "tricount");
      const auto fused = apps::count_triangles_fused(g, opts);
      EXPECT_EQ(fused.triangles, expected) << label;
      EXPECT_EQ(fused.spgemm_stats.symbolic_probes, 0u) << label;
      EXPECT_EQ(apps::count_triangles_masked(g, opts).triangles, expected)
          << label;
    }
  }
}

}  // namespace
}  // namespace spgemm
