#include "index/va_file.h"

#include <cstdint>
#include <limits>
#include <type_traits>

#include <gtest/gtest.h>

#include "../test_util.h"
#include "index/linear_scan.h"

namespace cohere {
namespace {

using testing_util::RandomMatrix;

TEST(VaFileTest, MatchesLinearScanOnSmallExample) {
  Matrix data{{0.0, 0.0}, {1.0, 1.0}, {2.0, 0.0}, {0.5, 0.5}, {3.0, 3.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 4);
  LinearScanIndex scan(data, metric.get());
  const Vector query{0.4, 0.4};
  EXPECT_EQ(va.Query(query, 3), scan.Query(query, 3));
}

TEST(VaFileTest, SkipIndexWorks) {
  Matrix data{{0.0}, {0.1}, {5.0}};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get());
  const auto result = va.Query(Vector{0.0}, 1, /*skip_index=*/0, nullptr);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].index, 1u);
}

TEST(VaFileTest, RefinesFewerThanScansWhenQuantizationHelps) {
  Rng rng(98);
  Matrix data = RandomMatrix(2000, 4, &rng);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 6);
  QueryStats stats;
  va.Query(rng.GaussianVector(4), 5, KnnIndex::kNoSkip, &stats);
  // Phase 1 scans every approximation; phase 2 must touch only a fraction.
  EXPECT_EQ(stats.nodes_visited, 2000u);
  EXPECT_LT(stats.candidates_refined, 400u);
}

TEST(VaFileTest, ApproximationBytesIsCompact) {
  Matrix data(100, 8);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 5);
  // One byte per cell code plus the flattened (d x (cells+1)) boundary
  // table of doubles.
  EXPECT_EQ(va.ApproximationBytes(), 100u * 8u + 8u * (32u + 1u) * 8u);
}

TEST(VaFileTest, ConstantColumnHandled) {
  Matrix data(30, 2);
  for (size_t i = 0; i < 30; ++i) {
    data.At(i, 0) = 5.0;  // constant
    data.At(i, 1) = static_cast<double>(i);
  }
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex va(data, metric.get(), 3);
  LinearScanIndex scan(data, metric.get());
  const Vector query{5.0, 12.2};
  EXPECT_EQ(va.Query(query, 4), scan.Query(query, 4));
}

// A NaN coordinate has no place in the boundary sort, and its row must
// rank exactly where the linear scan ranks it: after every number under L2
// and L1, and by its other coordinates under L-infinity. The other rows'
// answers must not move.
TEST(VaFileTest, RowWithNaNKeepsEveryAnswerExact) {
  const size_t n = 40;
  size_t queries = 0;
  for (MetricKind kind : {MetricKind::kEuclidean, MetricKind::kManhattan,
                          MetricKind::kChebyshev}) {
    auto metric = MakeMetric(kind);
    for (uint64_t seed = 0; seed < 200; ++seed) {
      Rng rng(seed);
      Matrix data = RandomMatrix(n, 2, &rng);
      const size_t nan_row = seed % n;
      data.At(nan_row, seed % 2) = std::numeric_limits<double>::quiet_NaN();
      VaFileIndex va(data, metric.get(), 3);
      LinearScanIndex scan(data, metric.get());
      for (size_t q = 0; q < n; ++q) {
        if (q == nan_row) continue;  // every distance NaN: nothing to rank
        const Vector query = data.Row(q);
        ++queries;
        ASSERT_EQ(va.Query(query, 3, q, nullptr),
                  scan.Query(query, 3, q, nullptr))
            << metric->name() << " seed " << seed << " query " << q;
      }
    }
  }
  EXPECT_EQ(queries, 3u * 200u * (n - 1));
}

TEST(VaFileDeathTest, RejectsBadConfig) {
  auto cosine = MakeMetric(MetricKind::kCosine);
  EXPECT_DEATH(VaFileIndex(Matrix(3, 2), cosine.get()), "decomposable");
  auto l2 = MakeMetric(MetricKind::kEuclidean);
  EXPECT_DEATH(VaFileIndex(Matrix(3, 2), l2.get(), 0), "COHERE_CHECK");
  EXPECT_DEATH(VaFileIndex(Matrix(3, 2), l2.get(), 9), "COHERE_CHECK");
}

// gtest names each case by dumping the parameter's bytes, so the gap after
// `metric` is an explicit zeroed field: left as padding it would carry
// whatever the stack held, and the test name would change from run to run.
struct VaCase {
  VaCase(MetricKind metric, size_t n, size_t d, size_t k, size_t bits)
      : metric(metric), n(n), d(d), k(k), bits(bits) {}

  MetricKind metric;
  uint32_t gap = 0;
  size_t n;
  size_t d;
  size_t k;
  size_t bits;
};
static_assert(std::has_unique_object_representations_v<VaCase>);

class VaFileAgreementTest : public ::testing::TestWithParam<VaCase> {};

TEST_P(VaFileAgreementTest, AgreesWithLinearScan) {
  const VaCase& c = GetParam();
  Rng rng(2000 + c.n + c.d * 11 + c.k + c.bits);
  Matrix data = RandomMatrix(c.n, c.d, &rng);
  auto metric = MakeMetric(c.metric);
  VaFileIndex va(data, metric.get(), c.bits);
  LinearScanIndex scan(data, metric.get());
  for (int trial = 0; trial < 8; ++trial) {
    const Vector query = rng.GaussianVector(c.d);
    const auto expected = scan.Query(query, c.k);
    const auto actual = va.Query(query, c.k);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].index, expected[i].index) << "trial " << trial;
      EXPECT_NEAR(actual[i].distance, expected[i].distance, 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, VaFileAgreementTest,
    ::testing::Values(VaCase{MetricKind::kEuclidean, 200, 3, 5, 4},
                      VaCase{MetricKind::kEuclidean, 300, 8, 3, 6},
                      VaCase{MetricKind::kManhattan, 150, 5, 4, 5},
                      VaCase{MetricKind::kChebyshev, 100, 4, 2, 5},
                      VaCase{MetricKind::kEuclidean, 80, 20, 6, 1},
                      VaCase{MetricKind::kEuclidean, 500, 2, 1, 8}));

}  // namespace
}  // namespace cohere
