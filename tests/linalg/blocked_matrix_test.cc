#include "linalg/blocked_matrix.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "../test_util.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(BlockedMatrixTest, EmptyMatrix) {
  BlockedMatrix b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.rows(), 0u);
  EXPECT_EQ(b.cols(), 0u);
}

TEST(BlockedMatrixTest, PreservesValuesAndShape) {
  Rng rng(7);
  const Matrix m = RandomMatrix(37, 5, &rng);
  BlockedMatrix b(m);
  EXPECT_EQ(b.rows(), 37u);
  EXPECT_EQ(b.cols(), 5u);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(b.At(i, j), m.At(i, j)) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(BlockedMatrixTest, RowMajorLayoutWithRowPtr) {
  Rng rng(11);
  const Matrix m = RandomMatrix(20, 3, &rng);
  BlockedMatrix b(m);
  // Plain row-major: RowPtr(i) == data() + i * cols, rows contiguous.
  for (size_t i = 0; i < b.rows(); ++i) {
    EXPECT_EQ(b.RowPtr(i), b.data() + i * b.cols());
    for (size_t j = 0; j < b.cols(); ++j) {
      EXPECT_EQ(b.RowPtr(i)[j], m.At(i, j));
    }
  }
}

TEST(BlockedMatrixTest, SixtyFourByteAlignment) {
  Rng rng(13);
  BlockedMatrix b(RandomMatrix(18, 7, &rng));
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % BlockedMatrix::kAlignment,
            0u);
}

TEST(BlockedMatrixTest, ToMatrixRoundTrips) {
  Rng rng(23);
  const Matrix m = RandomMatrix(29, 9, &rng);
  const Matrix back = BlockedMatrix(m).ToMatrix();
  ASSERT_EQ(back.rows(), m.rows());
  ASSERT_EQ(back.cols(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(back.At(i, j), m.At(i, j));
    }
  }
}

TEST(BlockedMatrixTest, RowCopiesOneRow) {
  Rng rng(29);
  const Matrix m = RandomMatrix(17, 4, &rng);
  BlockedMatrix b(m);
  const Vector row = b.Row(16);
  ASSERT_EQ(row.size(), 4u);
  for (size_t j = 0; j < 4; ++j) EXPECT_EQ(row[j], m.At(16, j));
}

TEST(RowStoreTest, AppendsInPlaceUntilFullThenDoublesCapacity) {
  const double a[2] = {1.0, 2.0};
  const double b[2] = {3.0, 4.0};
  std::shared_ptr<RowStore<double>> store =
      RowStore<double>::Copy(a, 1, 2, true);
  EXPECT_EQ(store->capacity(), 1u);

  // Full: the append copies row 0 into storage of twice the capacity.
  std::shared_ptr<RowStore<double>> grown =
      RowStore<double>::Append(store, 1, b);
  ASSERT_NE(grown, store);
  EXPECT_EQ(grown->capacity(), 2u);
  EXPECT_EQ(grown->RowPtr(0)[0], 1.0);
  EXPECT_EQ(grown->RowPtr(1)[1], 4.0);
  grown->Commit(2);

  // Full again: 4 rows. Then there is room, and the source count is the
  // committed count, so the next append is in place.
  const BlockedMatrix before(grown, 2);
  std::shared_ptr<RowStore<double>> next =
      RowStore<double>::Append(grown, 2, a);
  EXPECT_EQ(next->capacity(), 4u);
  next->Commit(3);
  std::shared_ptr<RowStore<double>> same = RowStore<double>::Append(next, 3, b);
  EXPECT_EQ(same, next);
  const BlockedMatrix after(same, 4);
  EXPECT_EQ(after.RowPtr(0), BlockedMatrix(next, 3).RowPtr(0));
  EXPECT_EQ(after.At(3, 0), 3.0);
  // The older view still reads its own two rows.
  EXPECT_EQ(before.rows(), 2u);
  EXPECT_EQ(before.At(1, 0), 3.0);
}

TEST(RowStoreTest, LargeStoreGrowsLikeASmallOne) {
  // A growable store of 1 MiB and more comes straight from the OS rather
  // than the heap.
  Rng rng(37);
  const Matrix m = RandomMatrix(20000, 8, &rng);
  std::shared_ptr<RowStore<double>> store =
      RowStore<double>::Copy(m.data(), m.rows(), m.cols(), true);
  const BlockedMatrix before(store, m.rows());
  EXPECT_EQ(reinterpret_cast<uintptr_t>(before.data()) %
                BlockedMatrix::kAlignment,
            0u);
  std::shared_ptr<RowStore<double>> grown =
      RowStore<double>::Append(store, m.rows(), m.RowPtr(7));
  EXPECT_EQ(grown->capacity(), 40000u);
  const BlockedMatrix after(grown, m.rows() + 1);
  EXPECT_EQ(after.ToMatrix().SelectRows({0, 19999, 20000}),
            m.SelectRows({0, 19999, 7}));
  EXPECT_EQ(before.ToMatrix(), m);
}

TEST(RowStoreTest, AppendFromAnOlderCountCopiesInsteadOfOverwriting) {
  const double rows[3] = {1.0, 2.0, 3.0};
  const double x = 9.0;
  std::shared_ptr<RowStore<double>> store =
      RowStore<double>::Copy(rows, 3, 1, true);
  const BlockedMatrix published(store, 3);
  // A successor of a two-row view must not write row 2, which the
  // three-row view reads.
  std::shared_ptr<RowStore<double>> forked =
      RowStore<double>::Append(store, 2, &x);
  EXPECT_NE(forked, store);
  EXPECT_EQ(published.At(2, 0), 3.0);
  EXPECT_EQ(forked->RowPtr(2)[0], 9.0);
  EXPECT_EQ(forked->RowPtr(1)[0], 2.0);
}

TEST(RowStoreTest, UncommittedRowIsOverwrittenByTheNextAppend) {
  const double rows[2] = {1.0, 2.0};
  const double x = 7.0;
  const double y = 8.0;
  std::shared_ptr<RowStore<double>> store =
      RowStore<double>::Append(RowStore<double>::Copy(rows, 2, 1, true), 2,
                               &x);
  store->Commit(2);  // the publish of row 2 failed: only two rows are final
  EXPECT_EQ(RowStore<double>::Append(store, 2, &y), store);
  EXPECT_EQ(store->RowPtr(2)[0], 8.0);
}

}  // namespace
}  // namespace cohere
