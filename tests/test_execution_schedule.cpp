// ExecutionSchedule contracts (parallel/execution_schedule.hpp) and the
// memory-model budget derivation behind it (model::derive_schedule_budgets).
//
// The schedule-level tests drive for_each_tile() SEQUENTIALLY — one
// simulated thread at a time — which makes otherwise racy properties
// deterministic: a thread that traverses before the owner ever runs MUST
// steal the owner's entire queue.  The SpGEMM-level tests then check the
// property that makes any of this safe: the assignment policy can never
// change the product, only who computes it, so static, dynamic and stealing
// runs are bit-identical to the serial oracle under adversarial row skew.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/multiply.hpp"
#include "core/spgemm_handle.hpp"
#include "matrix/rmat.hpp"
#include "model/cost_model.hpp"
#include "model/memory_model.hpp"
#include "parallel/execution_schedule.hpp"
#include "parallel/rows_to_threads.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Matrix = CsrMatrix<I, double>;
using parallel::ExecutionSchedule;
using parallel::RowPartition;
using parallel::TileRange;
using parallel::TileSchedule;

/// Partition `flops` (one entry per row) across `nthreads`, flop-balanced.
RowPartition partition_of(const std::vector<Offset>& flops, int nthreads) {
  // Build a tiny CSR pair whose product has exactly these per-row flops:
  // row i of A holds flops[i] entries pointing at singleton rows of B.
  // Simpler: assemble the partition directly from a prefix sum.
  RowPartition part;
  part.flop_prefix.resize(flops.size() + 1);
  part.flop_prefix[0] = 0;
  for (std::size_t i = 0; i < flops.size(); ++i) {
    part.flop_prefix[i + 1] = part.flop_prefix[i] + flops[i];
  }
  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, 0);
  const double ave = static_cast<double>(part.flop_prefix.back()) /
                     static_cast<double>(nthreads);
  for (int t = 1; t < nthreads; ++t) {
    const auto target = static_cast<Offset>(ave * t);
    std::size_t lo = 0;
    while (lo < flops.size() && part.flop_prefix[lo] < target) ++lo;
    part.offsets[static_cast<std::size_t>(t)] = lo;
  }
  part.offsets[static_cast<std::size_t>(nthreads)] = flops.size();
  return part;
}

/// A deliberately imbalanced partition: thread 0 owns every row, the other
/// threads own empty ranges (what rows_equal produces when all nonzeros sit
/// in the first rows).
RowPartition single_owner_partition(const std::vector<Offset>& flops,
                                    int nthreads) {
  RowPartition part = partition_of(flops, 1);
  part.offsets.assign(static_cast<std::size_t>(nthreads) + 1, flops.size());
  part.offsets[0] = 0;
  return part;
}

/// Sequentially drain every simulated thread in `order`; returns how many
/// times each row was visited.
std::vector<int> drain(ExecutionSchedule& schedule,
                       const std::vector<int>& order, std::size_t nrows) {
  std::vector<int> visits(nrows, 0);
  for (const int tid : order) {
    schedule.for_each_tile(
        tid, [&](std::size_t /*index*/, const TileRange& tile,
                 bool /*stolen*/) {
          for (std::size_t r = tile.row_begin; r < tile.row_end; ++r) {
            ++visits[r];
          }
        });
  }
  return visits;
}

TEST(ExecutionSchedule, EveryPolicyCoversEveryRowExactlyOnce) {
  const std::vector<Offset> flops = {0, 7, 1, 0,  900, 3, 3,  0,
                                     5, 0, 2, 40, 1,   0, 60, 9};
  for (const int nthreads : {1, 2, 3, 5}) {
    const RowPartition part = partition_of(flops, nthreads);
    for (const TileSchedule policy :
         {TileSchedule::kStatic, TileSchedule::kDynamic,
          TileSchedule::kStealing}) {
      ExecutionSchedule schedule;
      schedule.build(part, policy, /*row_cap=*/2, /*target_flop=*/10);
      std::vector<int> order;
      for (int t = 0; t < nthreads; ++t) order.push_back(t);
      const std::vector<int> visits = drain(schedule, order, flops.size());
      for (std::size_t r = 0; r < flops.size(); ++r) {
        EXPECT_EQ(visits[r], 1)
            << "row " << r << " threads " << nthreads << " policy "
            << parallel::tile_schedule_name(policy);
      }
    }
  }
}

TEST(ExecutionSchedule, RepeatedPassesAfterBeginPass) {
  const std::vector<Offset> flops(64, 4);
  const RowPartition part = partition_of(flops, 3);
  for (const TileSchedule policy :
       {TileSchedule::kDynamic, TileSchedule::kStealing}) {
    ExecutionSchedule schedule;
    schedule.build(part, policy, 4, 0);
    for (int pass = 0; pass < 3; ++pass) {
      schedule.begin_pass();
      const std::vector<int> visits = drain(schedule, {0, 1, 2}, 64);
      for (std::size_t r = 0; r < 64; ++r) {
        EXPECT_EQ(visits[r], 1) << "pass " << pass;
      }
    }
  }
}

TEST(ExecutionSchedule, IdleThreadStealsEntireBusyQueue) {
  // All flop sits in thread 0's range; simulated thread 1 runs FIRST, so
  // every one of thread 0's tiles must arrive via steals — fully
  // deterministic because the traversal is sequential.
  const std::vector<Offset> flops(32, 8);
  const RowPartition part = single_owner_partition(flops, 2);
  ASSERT_EQ(part.offsets[1], 32u) << "thread 1 must own an empty range";

  ExecutionSchedule schedule;
  schedule.build(part, TileSchedule::kStealing, 4, 0);
  ASSERT_GT(schedule.tile_count(), 1u);
  EXPECT_EQ(schedule.owned_count(0), schedule.tile_count());
  EXPECT_EQ(schedule.owned_count(1), 0u);

  std::size_t thread1_tiles = 0;
  std::size_t stolen_tiles = 0;
  schedule.for_each_tile(1, [&](std::size_t /*index*/, const TileRange&,
                                bool stolen) {
    ++thread1_tiles;
    if (stolen) ++stolen_tiles;
  });
  EXPECT_EQ(thread1_tiles, schedule.tile_count());
  EXPECT_EQ(stolen_tiles, schedule.tile_count());
  EXPECT_EQ(schedule.steals(), schedule.tile_count());

  // The rightful owner arrives late and finds nothing.
  std::size_t thread0_tiles = 0;
  schedule.for_each_tile(0, [&](std::size_t, const TileRange&, bool) {
    ++thread0_tiles;
  });
  EXPECT_EQ(thread0_tiles, 0u);
}

TEST(ExecutionSchedule, ThievesTakeFromTheBackOwnersFromTheFront) {
  // Let the owner claim its first tile, then a thief steals once: the
  // stolen tile must be the LAST of the owner's deque (coldest for the
  // owner), and the owner's own traversal runs front-to-back.
  const std::vector<Offset> flops(24, 8);
  const RowPartition part = single_owner_partition(flops, 2);
  ExecutionSchedule schedule;
  schedule.build(part, TileSchedule::kStealing, 4, 0);
  const std::size_t ntiles = schedule.tile_count();
  ASSERT_GE(ntiles, 3u);

  std::vector<std::size_t> thief_order;
  schedule.for_each_tile(1, [&](std::size_t index, const TileRange&,
                                bool stolen) {
    EXPECT_TRUE(stolen);
    thief_order.push_back(index);
  });
  ASSERT_EQ(thief_order.size(), ntiles);
  for (std::size_t k = 0; k < ntiles; ++k) {
    EXPECT_EQ(thief_order[k], ntiles - 1 - k) << "steals must run back-first";
  }
}

TEST(ExecutionSchedule, StaticAndDynamicRecordNoSteals) {
  const std::vector<Offset> flops(16, 2);
  const RowPartition part = partition_of(flops, 2);
  for (const TileSchedule policy :
       {TileSchedule::kStatic, TileSchedule::kDynamic}) {
    ExecutionSchedule schedule;
    schedule.build(part, policy, 2, 0);
    drain(schedule, {0, 1}, 16);
    EXPECT_EQ(schedule.steals(), 0u);
  }
}

TEST(ExecutionSchedule, SizingCoversAnyTileUnderRoamingPolicies) {
  std::vector<Offset> flops(16, 1);
  flops[3] = 500;  // the global worst row sits in thread 0's range
  const RowPartition part = partition_of(flops, 4);
  for (const TileSchedule policy :
       {TileSchedule::kDynamic, TileSchedule::kStealing}) {
    ExecutionSchedule schedule;
    schedule.build(part, policy, 4, 0);
    for (int t = 0; t < 4; ++t) {
      EXPECT_EQ(schedule.sizing_max_row_flop(t), 500)
          << "any thread may run the dense row under a roaming policy";
    }
  }
  ExecutionSchedule static_schedule;
  static_schedule.build(part, TileSchedule::kStatic, 4, 0);
  EXPECT_EQ(static_schedule.sizing_max_row_flop(0), 500);

  // A row bound (a mask's row pointers) caps each row at min(flop, bound):
  // the dense row's mask row holds 7 entries, every other row holds 2.
  std::vector<Offset> bound_rpts(17, 0);
  for (std::size_t i = 0; i < 16; ++i) {
    bound_rpts[i + 1] = bound_rpts[i] + (i == 3 ? 7 : 2);
  }
  for (const TileSchedule policy : {TileSchedule::kStatic,
                                    TileSchedule::kDynamic,
                                    TileSchedule::kStealing}) {
    ExecutionSchedule schedule;
    schedule.build(part, policy, 4, 0, bound_rpts.data());
    EXPECT_EQ(schedule.sizing_max_row_flop(0), 7);  // thread 0 owns row 3
    if (policy != TileSchedule::kStatic) {
      for (int t = 1; t < 4; ++t) EXPECT_EQ(schedule.sizing_max_row_flop(t), 7);
    }
  }
}

// ---------------------------------------------------------------------------
// Budget derivation from the memory model.
// ---------------------------------------------------------------------------

TEST(ScheduleBudgets, TileRowsMonotoneInFastTierCapacity) {
  const Offset total_flop = Offset{1} << 24;
  const std::size_t nrows = std::size_t{1} << 16;
  model::TierParams tier = model::host_fast_tier();

  std::size_t prev_rows = 0;
  std::size_t prev_budget = 0;
  // Sweep capacities upward: tile rows and capture budgets may never shrink
  // as the modeled fast tier grows (and so, read backwards, a smaller tier
  // always means fewer tile rows).
  for (const double capacity_gb :
       {1e-4, 1e-3, 4e-3, 16e-3, 64e-3, 0.5, 16.0}) {
    tier.capacity_gb = capacity_gb;
    const model::ScheduleBudgets budgets = model::derive_schedule_budgets(
        tier, /*threads=*/8, total_flop, nrows, sizeof(I));
    EXPECT_GE(budgets.tile_rows, 1u) << "never 0-row tiles";
    EXPECT_GE(budgets.tile_rows, prev_rows)
        << "capacity " << capacity_gb << " GB";
    EXPECT_GE(budgets.capture_budget_bytes, prev_budget);
    prev_rows = budgets.tile_rows;
    prev_budget = budgets.capture_budget_bytes;
  }

  // And strictly responsive across the decades (not clamped flat).
  tier.capacity_gb = 1e-3;
  const auto small = model::derive_schedule_budgets(tier, 8, total_flop,
                                                    nrows, sizeof(I));
  tier.capacity_gb = 16.0;
  const auto large = model::derive_schedule_budgets(tier, 8, total_flop,
                                                    nrows, sizeof(I));
  EXPECT_LT(small.tile_rows, large.tile_rows);
  EXPECT_LT(small.capture_budget_bytes, large.capture_budget_bytes);
}

TEST(ScheduleBudgets, BandwidthFloorKeepsTilesStreamable) {
  // With a near-zero capacity the latency/bandwidth floor takes over: the
  // tile target never drops below the ~98%-efficiency transfer size.
  model::TierParams tier = model::host_fast_tier();
  tier.capacity_gb = 1e-9;
  const model::ScheduleBudgets budgets = model::derive_schedule_budgets(
      tier, 8, Offset{1} << 20, std::size_t{1} << 12, sizeof(I));
  const double floor_bytes = 49.0 * tier.latency_ns * tier.thread_bw_gbps;
  EXPECT_GE(static_cast<double>(budgets.tile_target_bytes), floor_bytes);
  EXPECT_GE(budgets.tile_rows, 1u);
}

TEST(ScheduleBudgets, ChooseTileRowsNeverZeroOnTinyBudget) {
  for (const std::size_t budget : {std::size_t{1}, std::size_t{4},
                                   std::size_t{100}}) {
    const std::size_t rows = model::choose_tile_rows(
        /*total_flop=*/Offset{1} << 26, /*nrows=*/256, budget, sizeof(I));
    EXPECT_GE(rows, 1u) << "budget " << budget;
  }
}

TEST(ScheduleBudgets, HandleTileRowsRespondToModeledTier) {
  // End to end through the options surface: a handle planned against a
  // smaller modeled fast tier settles on fewer tile rows, monotonically.
  const Matrix a = rmat_matrix<I, double>(RmatParams::g500(10, 8, 5));
  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.budget_source = BudgetSource::kMemoryModel;

  std::size_t prev_rows = 0;
  for (const double capacity_gb : {1e-4, 4e-3, 0.5}) {
    opts.fast_tier.capacity_gb = capacity_gb;
    SpGemmHandle<I, double> handle(a, a, opts);
    EXPECT_GE(handle.planned_tile_rows(), 1u);
    EXPECT_GE(handle.planned_tile_rows(), prev_rows);
    prev_rows = handle.planned_tile_rows();
  }
}

// ---------------------------------------------------------------------------
// Scheduler policies under adversarial row skew: bit-identical products.
// ---------------------------------------------------------------------------

/// One fully dense row in a sea of empties — the worst static imbalance.
Matrix dense_row_among_empties(I n) {
  std::vector<std::tuple<I, I, double>> trips;
  for (I j = 0; j < n; ++j) trips.emplace_back(0, j, 1.0);
  // A sprinkle of singleton rows so B has structure for row 0 to hit.
  for (I i = 1; i < n; i += 2) trips.emplace_back(i, (i * 31 + 7) % n, 1.0);
  return csr_from_triplets<I, double>(n, n, trips);
}

Matrix powerlaw_rmat(int scale) {
  Matrix m =
      rmat_matrix<I, double>(RmatParams::g500(scale, 8, 77));  // a=0.57 skew
  for (auto& v : m.vals) v = 1.0;
  return m;
}

TEST(SchedulePolicySkew, AllPoliciesBitIdenticalToSerialOracle) {
  const std::vector<std::pair<std::string, Matrix>> inputs = [] {
    std::vector<std::pair<std::string, Matrix>> v;
    v.emplace_back("dense_row", dense_row_among_empties(256));
    v.emplace_back("powerlaw", powerlaw_rmat(8));
    return v;
  }();
  for (const auto& [name, a] : inputs) {
    const Matrix oracle = spgemm_reference(a, a);
    for (const Algorithm algo : {Algorithm::kHash, Algorithm::kAdaptive}) {
      for (const int threads : {1, 2, 4, 8}) {
        for (const TileSchedule policy :
             {TileSchedule::kStatic, TileSchedule::kDynamic,
              TileSchedule::kStealing}) {
          SpGemmOptions opts;
          opts.algorithm = algo;
          opts.threads = threads;
          opts.tile_schedule = policy;
          SpGemmStats stats;
          const Matrix c = multiply(a, a, opts, &stats);
          const std::string label =
              name + " " + algorithm_name(algo) + " t" +
              std::to_string(threads) + " " +
              parallel::tile_schedule_name(policy);
          ASSERT_EQ(c.rpts, oracle.rpts) << label;
          ASSERT_EQ(c.cols, oracle.cols) << label;
          for (std::size_t i = 0; i < c.vals.size(); ++i) {
            ASSERT_EQ(c.vals[i], oracle.vals[i]) << label << " vals[" << i
                                                 << "]";
          }
          if (policy != TileSchedule::kStealing) {
            EXPECT_EQ(stats.tile_steals, 0u) << label;
          }
        }
      }
    }
  }
}

TEST(SchedulePolicySkew, StealingRunRecordsSteals) {
  // Equal-rows partition + every nonzero in the first rows: thread 0 owns
  // all the work, the other threads idle and must steal.  The OS could in
  // principle let thread 0 finish before the others ever run (this host may
  // have a single core), so retry a few times; the imbalanced workload
  // makes a steal-free run vanishingly unlikely across attempts.
  const I n = 4096;
  std::vector<std::tuple<I, I, double>> trips;
  for (I i = 0; i < n / 8; ++i) {
    for (I k = 0; k < 48; ++k) {
      trips.emplace_back(i, (i * 97 + k * 131) % n, 1.0);
    }
  }
  for (I i = n / 8; i < n; i += 7) trips.emplace_back(i, i, 1.0);
  const Matrix a = csr_from_triplets<I, double>(n, n, trips);

  SpGemmOptions opts;
  opts.algorithm = Algorithm::kHash;
  opts.threads = 4;
  opts.schedule = parallel::SchedulePolicy::kStatic;  // equal rows: skewed
  opts.tile_schedule = TileSchedule::kStealing;
  opts.tile_rows = 16;

  const Matrix expected = multiply(a, a, SpGemmOptions{});
  std::uint64_t steals = 0;
  for (int attempt = 0; attempt < 50 && steals == 0; ++attempt) {
    SpGemmStats stats;
    const Matrix c = multiply(a, a, opts, &stats);
    steals = stats.tile_steals;
    ASSERT_EQ(c.rpts, expected.rpts);
    ASSERT_EQ(c.cols, expected.cols);
  }
  EXPECT_GT(steals, 0u) << "no attempt recorded a steal";
}

TEST(SchedulePolicySkew, HandlePlansAndReplaysUnderEveryPolicy) {
  // A handle planned under dynamic/stealing freezes whatever assignment the
  // build pass settled on; repeated executes must replay bit-identically.
  const Matrix a = powerlaw_rmat(8);
  SpGemmOptions baseline_opts;
  baseline_opts.algorithm = Algorithm::kHash;
  const Matrix expected = multiply(a, a, baseline_opts);
  for (const TileSchedule policy :
       {TileSchedule::kStatic, TileSchedule::kDynamic,
        TileSchedule::kStealing}) {
    SpGemmOptions opts;
    opts.algorithm = Algorithm::kHash;
    opts.threads = 4;
    opts.tile_schedule = policy;
    SpGemmHandle<I, double> handle(a, a, opts);
    for (int round = 0; round < 3; ++round) {
      const Matrix& c = handle.execute(a, a);
      ASSERT_EQ(c.rpts, expected.rpts);
      ASSERT_EQ(c.cols, expected.cols);
      for (std::size_t i = 0; i < c.vals.size(); ++i) {
        ASSERT_EQ(c.vals[i], expected.vals[i]);
      }
    }
  }
}

}  // namespace
}  // namespace spgemm
