// Tests for the COO/CSR containers: construction, dedup, validation,
// sortedness tracking, dense conversion.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "matrix/coo.hpp"
#include "matrix/csr.hpp"

namespace spgemm {
namespace {

using I = std::int32_t;
using Triplets = std::vector<std::tuple<I, I, double>>;

TEST(Coo, PushAndCount) {
  CooMatrix<I, double> coo;
  coo.nrows = 3;
  coo.ncols = 3;
  coo.push_back(0, 1, 1.0);
  coo.push_back(2, 2, 2.0);
  EXPECT_EQ(coo.nnz(), 2u);
}

TEST(Coo, ValidateCatchesOutOfBounds) {
  CooMatrix<I, double> coo;
  coo.nrows = 2;
  coo.ncols = 2;
  coo.push_back(0, 2, 1.0);  // column out of range
  EXPECT_THROW(coo.validate(), std::out_of_range);
  coo.cols[0] = 1;
  coo.rows[0] = -1;
  EXPECT_THROW(coo.validate(), std::out_of_range);
}

TEST(Coo, SortAndCombineSumsDuplicates) {
  CooMatrix<I, double> coo;
  coo.nrows = 2;
  coo.ncols = 4;
  coo.push_back(1, 3, 1.0);
  coo.push_back(0, 0, 2.0);
  coo.push_back(1, 3, 0.5);
  coo.push_back(1, 1, 4.0);
  coo.sort_and_combine();
  ASSERT_EQ(coo.nnz(), 3u);
  EXPECT_EQ(coo.rows, (std::vector<I>{0, 1, 1}));
  EXPECT_EQ(coo.cols, (std::vector<I>{0, 1, 3}));
  EXPECT_DOUBLE_EQ(coo.vals[2], 1.5);
}

TEST(Csr, EmptyMatrix) {
  CsrMatrix<I, double> m(4, 5);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.rows_are_ascending());
}

TEST(Csr, DefaultConstructedIsValid) {
  CsrMatrix<I, double> m;
  EXPECT_EQ(m.nrows, 0);
  EXPECT_EQ(m.nnz(), 0);
  EXPECT_NO_THROW(m.validate());
}

TEST(Csr, FromTriplets) {
  const auto m = csr_from_triplets<I, double>(
      3, 3, Triplets{{0, 0, 1.0}, {1, 2, 2.0}, {2, 1, 3.0}, {0, 2, 4.0}});
  EXPECT_EQ(m.nnz(), 4);
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_EQ(m.row_nnz(1), 1);
  EXPECT_EQ(m.row_nnz(2), 1);
  EXPECT_NO_THROW(m.validate());
  EXPECT_TRUE(m.claims_sorted());
}

TEST(Csr, FromTripletsCombinesDuplicates) {
  const auto m = csr_from_triplets<I, double>(
      2, 2, Triplets{{0, 0, 1.0}, {0, 0, 2.5}});
  EXPECT_EQ(m.nnz(), 1);
  EXPECT_DOUBLE_EQ(m.vals[0], 3.5);
}

TEST(Csr, ToDense) {
  const auto m = csr_from_triplets<I, double>(
      2, 3, Triplets{{0, 1, 5.0}, {1, 0, -1.0}});
  const std::vector<double> dense = m.to_dense();
  const std::vector<double> expected{0, 5, 0, -1, 0, 0};
  EXPECT_EQ(dense, expected);
}

TEST(Csr, ValidateCatchesBrokenRpts) {
  auto m = csr_from_triplets<I, double>(2, 2, Triplets{{0, 0, 1.0}});
  m.rpts[0] = 1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Csr, ValidateCatchesNonMonotoneRpts) {
  auto m = csr_from_triplets<I, double>(
      2, 2, Triplets{{0, 0, 1.0}, {1, 1, 1.0}});
  m.rpts[1] = 2;
  m.rpts[2] = 1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST(Csr, ValidateCatchesColumnOutOfRange) {
  auto m = csr_from_triplets<I, double>(2, 2, Triplets{{0, 1, 1.0}});
  m.cols[0] = 5;
  EXPECT_THROW(m.validate(), std::out_of_range);
}

TEST(Csr, ValidateCatchesFalseSortedClaim) {
  auto m = csr_from_triplets<I, double>(
      1, 4, Triplets{{0, 1, 1.0}, {0, 3, 1.0}});
  std::swap(m.cols[0], m.cols[1]);
  ASSERT_TRUE(m.claims_sorted());
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.sortedness = Sortedness::kUnsorted;
  EXPECT_NO_THROW(m.validate());
}

TEST(Csr, SortRowsRestoresOrder) {
  auto m = csr_from_triplets<I, double>(
      1, 5, Triplets{{0, 0, 1.0}, {0, 2, 2.0}, {0, 4, 3.0}});
  std::swap(m.cols[0], m.cols[2]);
  std::swap(m.vals[0], m.vals[2]);
  m.sortedness = Sortedness::kUnsorted;
  EXPECT_FALSE(m.rows_are_ascending());
  m.sort_rows();
  EXPECT_TRUE(m.rows_are_ascending());
  EXPECT_TRUE(m.claims_sorted());
  EXPECT_EQ(m.cols, (mem::Buffer<I>{0, 2, 4}));
  EXPECT_DOUBLE_EQ(m.vals[1], 2.0);

  // Rows of every length across the sort's work chunks (thousands of
  // entries each): short rows, empty rows, and long rows that straddle
  // chunk boundaries, all stored in descending column order with value ==
  // column so the pairing is checked too.
  const I n = 12000;
  Triplets trips;
  for (I i = 0; i < 64; ++i) {
    const I len = i % 8 == 7 ? 5000 + 37 * i : i % 3;
    for (I j = 0; j < len; ++j) trips.push_back({i, j, static_cast<double>(j)});
  }
  auto big = csr_from_triplets<I, double>(64, n, trips);
  for (I i = 0; i < big.nrows; ++i) {
    std::reverse(big.cols.begin() + big.row_begin(i),
                 big.cols.begin() + big.row_end(i));
    std::reverse(big.vals.begin() + big.row_begin(i),
                 big.vals.begin() + big.row_end(i));
  }
  big.sortedness = Sortedness::kUnsorted;
  big.sort_rows();
  EXPECT_TRUE(big.rows_are_ascending());
  for (std::size_t k = 0; k < big.cols.size(); ++k) {
    ASSERT_EQ(big.vals[k], static_cast<double>(big.cols[k]));
  }
}

TEST(Csr, IdentityProperties) {
  const auto eye = csr_identity<I, double>(5);
  EXPECT_EQ(eye.nnz(), 5);
  EXPECT_NO_THROW(eye.validate());
  for (I i = 0; i < 5; ++i) {
    EXPECT_EQ(eye.row_nnz(i), 1);
    EXPECT_EQ(eye.cols[static_cast<std::size_t>(i)], i);
    EXPECT_DOUBLE_EQ(eye.vals[static_cast<std::size_t>(i)], 1.0);
  }
}

TEST(Csr, RowAccessors) {
  const auto m = csr_from_triplets<I, double>(
      3, 3, Triplets{{1, 0, 1.0}, {1, 2, 1.0}});
  EXPECT_EQ(m.row_begin(0), 0);
  EXPECT_EQ(m.row_end(0), 0);
  EXPECT_EQ(m.row_begin(1), 0);
  EXPECT_EQ(m.row_end(1), 2);
  EXPECT_EQ(m.row_nnz(2), 0);
}

TEST(Csr, Int64IndexInstantiation) {
  const auto m = csr_from_triplets<std::int64_t, float>(
      2, 2,
      std::vector<std::tuple<std::int64_t, std::int64_t, float>>{
          {0, 1, 1.5f}, {1, 0, 2.5f}});
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_NO_THROW(m.validate());
}

}  // namespace
}  // namespace spgemm
