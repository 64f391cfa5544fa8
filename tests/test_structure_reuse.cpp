// Tiled structure-reuse properties of the one tile loop
// (core/spgemm_handle.hpp).
//
// The capture/replay pipeline folds numeric contributions in exactly the
// traversal order of the classic re-probing path, so reuse-on and reuse-off
// products must be BIT-identical — structure and values — in both sorted
// and unsorted modes, at any thread count, with batched or per-key probing,
// and across capture-budget fallbacks (dense rows spilling the budget).  With
// integer-valued doubles the products are exact, so the reference oracle
// must match bitwise too.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "core/spgemm_hash.hpp"
#include "core/spgemm_policies.hpp"
#include "matrix/ops.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;

/// RMAT input with all values forced to 1.0: every partial product and sum
/// is an integer far below 2^53, so floating-point addition is exact and
/// bitwise comparison against the reference is meaningful.
Matrix unit_valued_rmat(int scale, int edge_factor, std::uint64_t seed,
                        bool g500 = true) {
  Matrix m = rmat_matrix<I, double>(
      g500 ? RmatParams::g500(scale, edge_factor, seed)
           : RmatParams::er(scale, edge_factor, seed));
  for (auto& v : m.vals) v = 1.0;
  return m;
}

/// A matrix with empty rows, a dense row (hits every column), and normal
/// sparse rows — exercises capture, fallback and zero-count paths at once.
Matrix mixed_density_matrix(I n) {
  std::vector<std::tuple<I, I, double>> trips;
  for (I j = 0; j < n; ++j) trips.emplace_back(0, j, 1.0);  // dense row 0
  // Rows 2, 5, 8, ... sparse; rows 1, 4, 7, ... empty.
  for (I i = 2; i < n; i += 3) {
    trips.emplace_back(i, i % n, 1.0);
    trips.emplace_back(i, (i * 7 + 3) % n, 1.0);
    trips.emplace_back(i, (i * 13 + 1) % n, 1.0);
  }
  return csr_from_triplets<I, double>(n, n, trips);
}

void expect_bitwise_equal(const Matrix& x, const Matrix& y,
                          const std::string& label) {
  ASSERT_EQ(x.rpts, y.rpts) << label;
  ASSERT_EQ(x.cols, y.cols) << label;
  ASSERT_EQ(x.vals.size(), y.vals.size()) << label;
  for (std::size_t i = 0; i < x.vals.size(); ++i) {
    ASSERT_EQ(x.vals[i], y.vals[i]) << label << " at vals[" << i << "]";
  }
}

/// Accumulator `Base` with its batching gate (kBatchMinTableBytes) fixed
/// open or shut, counting the insert_tagged_batch calls the driver makes.
template <typename Base, bool kBatched>
struct GatedAcc : Base {
  GatedAcc(Base base, std::atomic<std::uint64_t>* calls)
      : Base(std::move(base)), batch_calls(calls) {}
  [[nodiscard]] bool batch_worthwhile() const { return kBatched; }
  void insert_tagged_batch(const I* keys, std::size_t n, I* slots_out) {
    batch_calls->fetch_add(1, std::memory_order_relaxed);
    Base::insert_tagged_batch(keys, n, slots_out);
  }
  std::atomic<std::uint64_t>* batch_calls;
};

/// A library policy over GatedAcc: the driver batches on every thread
/// (kBatched) or on none, whatever the table size.
template <typename BasePolicy, bool kBatched>
struct GatedPolicy : BasePolicy {
  using Acc = GatedAcc<typename BasePolicy::Acc, kBatched>;
  std::atomic<std::uint64_t>* batch_calls = nullptr;
  Acc make() const { return Acc(BasePolicy::make(), batch_calls); }
};

/// Batched and per-key probing must be bit-identical to `expected` (the
/// batch-capture contract of accumulator/hash_table.hpp).  The gated
/// policies make the batch pipeline really run on small inputs, and the
/// call count proves it did.
template <typename BasePolicy>
void expect_batched_matches_per_key(const Matrix& a,
                                    const SpGemmOptions& opts,
                                    const BasePolicy& base,
                                    const Matrix& expected) {
  std::atomic<std::uint64_t> batched_calls{0};
  std::atomic<std::uint64_t> per_key_calls{0};
  const Matrix batched = detail::run_once<I, double>(
      a, a, opts, GatedPolicy<BasePolicy, true>{base, &batched_calls},
      nullptr);
  const Matrix per_key = detail::run_once<I, double>(
      a, a, opts, GatedPolicy<BasePolicy, false>{base, &per_key_calls},
      nullptr);
  EXPECT_GT(batched_calls.load(), 0u) << "the batched path did not run";
  EXPECT_EQ(per_key_calls.load(), 0u);
  expect_bitwise_equal(expected, batched, "batched probing");
  expect_bitwise_equal(expected, per_key, "per-key probing");
}

struct ReuseParam {
  Algorithm algo;
  SortOutput sort;
  int threads;
};

std::string reuse_name(const ::testing::TestParamInfo<ReuseParam>& info) {
  const ReuseParam& p = info.param;
  std::string name = algorithm_name(p.algo);
  name += p.sort == SortOutput::kYes ? "_sorted" : "_unsorted";
  name += "_t" + std::to_string(p.threads);
  // Every case runs the one static tile schedule; the suffix keeps the
  // case names stable across the schedule's history.
  name += "_static_tiles";
  for (char& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

class ReuseSweep : public ::testing::TestWithParam<ReuseParam> {};

TEST_P(ReuseSweep, ReuseOnOffAndReferenceBitIdentical) {
  const ReuseParam& p = GetParam();
  const Matrix a = unit_valued_rmat(7, 8, 31);

  SpGemmOptions opts;
  opts.algorithm = p.algo;
  opts.sort_output = p.sort;
  opts.threads = p.threads;

  opts.reuse = StructureReuse::kOn;
  SpGemmStats on_stats;
  const Matrix with_reuse = multiply(a, a, opts, &on_stats);

  opts.reuse = StructureReuse::kOff;
  SpGemmStats off_stats;
  const Matrix without_reuse = multiply(a, a, opts, &off_stats);

  expect_bitwise_equal(with_reuse, without_reuse, "reuse on vs off");
  EXPECT_NO_THROW(with_reuse.validate());

  // The kernels whose accumulators opt into batched probing: batched and
  // per-key must match across sortedness and threads.
  opts.reuse = StructureReuse::kOn;
  if (p.algo == Algorithm::kHash) {
    expect_batched_matches_per_key(a, opts, detail::HashPlanPolicy<I, double>{},
                                   with_reuse);
  } else if (p.algo == Algorithm::kHashVector) {
    expect_batched_matches_per_key(
        a, opts, detail::HashVecPlanPolicy<I, double>{opts.probe}, with_reuse);
  }

  // Reuse observability: every row should be captured at the default
  // budget, and the replayed numeric phase must not probe.
  EXPECT_GT(on_stats.tile_count, 0u);
  EXPECT_EQ(on_stats.reuse_rows_captured, on_stats.reuse_rows_total);
  EXPECT_EQ(on_stats.numeric_probes, 0u);
  EXPECT_EQ(off_stats.reuse_rows_captured, 0u);
  EXPECT_EQ(on_stats.probes,
            on_stats.symbolic_probes + on_stats.numeric_probes);

  // Against the oracle: with unit values the product is exact, so sorted
  // output must match the reference bitwise.
  if (p.sort == SortOutput::kYes) {
    const Matrix expected = spgemm_reference(a, a);
    expect_bitwise_equal(with_reuse, expected, "reuse vs reference");
  } else {
    EXPECT_TRUE(approx_equal(with_reuse, spgemm_reference(a, a)));
  }
}

std::vector<ReuseParam> build_reuse_sweep() {
  std::vector<ReuseParam> out;
  for (const Algorithm algo :
       {Algorithm::kHash, Algorithm::kHashVector, Algorithm::kSpa,
        Algorithm::kKkHash}) {
    for (const SortOutput sort : {SortOutput::kYes, SortOutput::kNo}) {
      for (const int threads : {1, 4}) {
        out.push_back({algo, sort, threads});
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(DriverKernels, ReuseSweep,
                         ::testing::ValuesIn(build_reuse_sweep()),
                         reuse_name);

// ---------------------------------------------------------------------------
// Budget fallback: dense rows exceeding the capture budget re-probe, and
// the result is still bit-identical to reuse-off and the reference.
// ---------------------------------------------------------------------------

TEST(ReuseBudget, DenseRowsFallBackAndStayExact) {
  const Matrix a = mixed_density_matrix(256);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 2;
  opts.tile_rows = 8;
  // Row 0 is fully dense: its A*A flop is 256 * nnz-per-B-row; a budget of
  // 1 KiB (256 int32 slots) cannot capture it, while many sparse rows fit.
  opts.reuse = StructureReuse::kOn;
  opts.reuse_budget_bytes = 1024;
  SpGemmStats stats;
  const Matrix tiny_budget = multiply(a, a, opts, &stats);
  EXPECT_GT(stats.reuse_rows_captured, 0u);
  EXPECT_LT(stats.reuse_rows_captured, stats.reuse_rows_total);
  EXPECT_GT(stats.numeric_probes, 0u);  // fallback rows re-probe
  EXPECT_GT(stats.reuse_hit_rate(), 0.0);
  EXPECT_LT(stats.reuse_hit_rate(), 1.0);

  opts.reuse = StructureReuse::kOff;
  const Matrix no_reuse = multiply(a, a, opts);
  expect_bitwise_equal(tiny_budget, no_reuse, "tiny budget vs reuse off");

  const Matrix expected = spgemm_reference(a, a);
  expect_bitwise_equal(tiny_budget, expected, "tiny budget vs reference");
}

TEST(ReuseBudget, ZeroRowBudgetCapturesNothing) {
  // Identity rows carry exactly one flop each; a one-slot budget (a row
  // needs flop + nnz = 2 slots) forces every row onto the fallback path.
  const auto a = csr_identity<I, double>(32);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOn;
  opts.reuse_budget_bytes = 4;  // one int32 slot: no row fits
  SpGemmStats stats;
  const Matrix c = multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.reuse_rows_captured, 0u);
  expect_bitwise_equal(c, spgemm_reference(a, a), "no capture vs reference");
}

// ---------------------------------------------------------------------------
// Edge cases: empty matrix, empty rows, tile size 1, tile larger than the
// matrix.
// ---------------------------------------------------------------------------

TEST(ReuseEdgeCases, EmptyAndTinyMatrices) {
  for (const std::size_t tile_rows : {std::size_t{1}, std::size_t{100000}}) {
    SpGemmOptions opts;
    opts.algorithm = Algorithm::kHash;
    opts.tile_rows = tile_rows;
    opts.reuse = StructureReuse::kOn;

    const Matrix empty(4, 4);
    const Matrix ce = multiply(empty, empty, opts);
    EXPECT_EQ(ce.nnz(), 0);

    const Matrix a = mixed_density_matrix(64);  // has empty rows
    SpGemmStats stats;
    const Matrix c = multiply(a, a, opts, &stats);
    expect_bitwise_equal(c, spgemm_reference(a, a), "mixed density");
    EXPECT_EQ(stats.nnz_out, c.nnz());
  }
}

TEST(ReuseEdgeCases, ThreadCountInvariance) {
  const Matrix a = unit_valued_rmat(8, 8, 23);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOn;
  opts.threads = 1;
  const Matrix baseline = multiply(a, a, opts);
  for (const int threads : {2, 3, 8}) {
    opts.threads = threads;
    const Matrix c = multiply(a, a, opts);
    expect_bitwise_equal(c, baseline, "threads=" + std::to_string(threads));
  }
}

// ---------------------------------------------------------------------------
// Stats contracts of the tiled driver.
// ---------------------------------------------------------------------------

TEST(ReuseStats, SymbolicProbesReported) {
  const Matrix a = unit_valued_rmat(8, 8, 11);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.reuse = StructureReuse::kOff;
  SpGemmStats stats;
  multiply(a, a, opts, &stats);
  // Both phases probe when reuse is off, and the collision factor derived
  // from one phase alone would understate the total by roughly half.
  EXPECT_GT(stats.symbolic_probes, 0u);
  EXPECT_GT(stats.numeric_probes, 0u);
  EXPECT_EQ(stats.probes, stats.symbolic_probes + stats.numeric_probes);
  const auto flop = static_cast<double>(stats.flop);
  EXPECT_GE(static_cast<double>(stats.probes) / flop, 1.9)
      << "two probing phases must cost at least ~2 probes per flop";
}

TEST(ReuseStats, TileCountMatchesTileSize) {
  const Matrix a = unit_valued_rmat(7, 4, 3);  // 128 rows
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 1;
  opts.tile_rows = 32;
  SpGemmStats stats;
  multiply(a, a, opts, &stats);
  EXPECT_EQ(stats.tile_count, 4u);
  EXPECT_EQ(stats.reuse_rows_total, 128u);
}

// ---------------------------------------------------------------------------
// Planner integration: measured collision factor and tile choice.
// ---------------------------------------------------------------------------

TEST(ReusePlanner, PlanMeasuresCollisionFactorAndTiles) {
  const Matrix a = unit_valued_rmat(8, 8, 29);
  SpGemmStats stats;
  SpGemmHandle<I, double> plan(a, a, {}, &stats);
  EXPECT_GT(plan.symbolic_probes(), 0u);
  EXPECT_EQ(stats.symbolic_probes, plan.symbolic_probes());
  EXPECT_GE(plan.collision_factor(), 1.0);  // >= one probe per insert
  EXPECT_GE(plan.planned_tile_rows(), 16u);
  EXPECT_TRUE(plan.reuse_pays());
  EXPECT_EQ(stats.nnz_out, plan.nnz_out());
  EXPECT_GT(stats.plan_ms, 0.0);
}

TEST(ReusePlanner, CollisionFactorFlooredUnderBatchedProbing) {
  // Rows 0..8191 hold columns 0..3, so every 8- or 16-lane batch window
  // holds keys that duplicate an earlier lane and retire WITHOUT a probe
  // round.  Row 8192 holds columns 0..8191: its 8192 * 4 = 32768 products
  // size the single thread's table at 65536 slots (256 KiB), so the
  // table-size gate (kBatchMinTableBytes) opens and the plan probes
  // batched.  The cost model's c is defined against per-key probing (>= one
  // round per key); collision_factor() must floor the batched round count
  // so reuse_pays() is not skewed on exactly these duplicate-heavy inputs.
  const I n = 32768;
  std::vector<std::tuple<I, I, double>> trips;
  for (I i = 0; i < 8192; ++i) {
    for (I j = 0; j < 4; ++j) trips.emplace_back(i, j, 1.0);
  }
  for (I j = 0; j < 8192; ++j) trips.emplace_back(8192, j, 1.0);
  const Matrix a = csr_from_triplets<I, double>(n, n, trips);
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHashVector;
  opts.threads = 1;
  SpGemmStats stats;
  SpGemmHandle<I, double> plan(a, a, opts, &stats);
  // The duplicate-in-flight shortcut exists on the SIMD tiers only; the
  // scalar batch resolves every key with a round, like the per-key walk.
  if (resolve_probe_kind(opts.probe) != ProbeKind::kScalar) {
    ASSERT_LT(stats.symbolic_probes, stats.symbolic_keys)
        << "the batched path must retire duplicate keys without a round";
  }
  EXPECT_GE(plan.collision_factor(), 1.0);
  EXPECT_TRUE(plan.reuse_pays());
}

TEST(ReusePlanner, CostModelTileChoiceScalesWithDensity) {
  // Denser products get smaller tiles (capture footprint per row grows).
  const std::size_t budget = model::kDefaultReuseBudgetBytes;
  const std::size_t sparse_tiles =
      model::choose_tile_rows(/*flop=*/1 << 12, /*nrows=*/1 << 10, budget, 4);
  const std::size_t dense_tiles =
      model::choose_tile_rows(/*flop=*/1 << 24, /*nrows=*/1 << 10, budget, 4);
  EXPECT_GE(sparse_tiles, dense_tiles);
  EXPECT_GE(dense_tiles, 16u);
  EXPECT_FALSE(model::reuse_pays(1.2, 0));
  EXPECT_TRUE(model::reuse_pays(1.2, budget));
}

}  // namespace
}  // namespace spgemm
