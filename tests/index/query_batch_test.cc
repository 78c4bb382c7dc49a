// QueryBatch must agree exactly with per-query Query for every backend and
// at every thread count — batch queries are independent, so parallel fan-out
// may not change a single bit of the answers.
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "index/kd_tree.h"
#include "index/knn.h"
#include "index/linear_scan.h"
#include "index/rstar_tree.h"
#include "index/va_file.h"
#include "index/vp_tree.h"
#include "stats/rng.h"

namespace cohere {
namespace {

class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(size_t n) { SetParallelThreadCount(n); }
  ~ScopedThreadCount() { SetParallelThreadCount(0); }
};

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m.At(i, j) = rng.Gaussian();
  }
  return m;
}

struct Backend {
  const char* name;
  std::unique_ptr<KnnIndex> (*make)(const Matrix&, const Metric*);
};

const Backend kBackends[] = {
    {"linear_scan",
     [](const Matrix& data, const Metric* metric) -> std::unique_ptr<KnnIndex> {
       return std::make_unique<LinearScanIndex>(data, metric);
     }},
    {"kd_tree",
     [](const Matrix& data, const Metric* metric) -> std::unique_ptr<KnnIndex> {
       return std::make_unique<KdTreeIndex>(data, metric, 16);
     }},
    {"va_file",
     [](const Matrix& data, const Metric* metric) -> std::unique_ptr<KnnIndex> {
       return std::make_unique<VaFileIndex>(data, metric, 5);
     }},
    {"vp_tree",
     [](const Matrix& data, const Metric* metric) -> std::unique_ptr<KnnIndex> {
       return std::make_unique<VpTreeIndex>(data, metric, 8);
     }},
    {"rstar_tree",
     [](const Matrix& data, const Metric* metric) -> std::unique_ptr<KnnIndex> {
       return std::make_unique<RStarTreeIndex>(data, metric, 16);
     }},
};

TEST(QueryBatchTest, MatchesPerQueryResultsOnEveryBackend) {
  const Matrix data = RandomMatrix(200, 8, 41);
  const Matrix queries = RandomMatrix(37, 8, 42);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      ScopedThreadCount guard(threads);
      const auto batch = index->QueryBatch(queries, 5);
      ASSERT_EQ(batch.size(), queries.rows());
      for (size_t i = 0; i < queries.rows(); ++i) {
        const auto expected = index->Query(queries.Row(i), 5);
        EXPECT_EQ(batch[i], expected) << "query " << i;
      }
    }
  }
}

TEST(QueryBatchTest, MergedStatsEqualPerQuerySums) {
  const Matrix data = RandomMatrix(300, 6, 43);
  const Matrix queries = RandomMatrix(25, 6, 44);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    QueryStats expected;
    for (size_t i = 0; i < queries.rows(); ++i) {
      index->Query(queries.Row(i), 3, KnnIndex::kNoSkip, &expected);
    }
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      ScopedThreadCount guard(threads);
      QueryStats merged;
      index->QueryBatch(queries, 3, &merged);
      EXPECT_EQ(merged.distance_evaluations, expected.distance_evaluations);
      EXPECT_EQ(merged.nodes_visited, expected.nodes_visited);
      EXPECT_EQ(merged.candidates_refined, expected.candidates_refined);
    }
  }
}

TEST(QueryBatchTest, NonTrueMetricsWorkThroughTheScanBatchPath) {
  const Matrix data = RandomMatrix(150, 5, 45);
  const Matrix queries = RandomMatrix(11, 5, 46);
  ScopedThreadCount guard(4);
  for (MetricKind kind : {MetricKind::kCosine, MetricKind::kFractional}) {
    auto metric = MakeMetric(kind, 0.5);
    LinearScanIndex index(data, metric.get());
    const auto batch = index.QueryBatch(queries, 4);
    for (size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_EQ(batch[i], index.Query(queries.Row(i), 4));
    }
  }
}

TEST(QueryBatchDeadlineTest, InactiveLimitsMatchTheDefaultPath) {
  const Matrix data = RandomMatrix(180, 6, 51);
  const Matrix queries = RandomMatrix(19, 6, 52);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  const QueryLimits inactive;  // deadline 0, no token
  ASSERT_FALSE(inactive.active());
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    ScopedThreadCount guard(4);
    QueryStats plain_stats;
    QueryStats limited_stats;
    const auto plain = index->QueryBatch(queries, 5, &plain_stats);
    const auto limited =
        index->QueryBatch(queries, 5, &limited_stats, inactive);
    EXPECT_EQ(plain, limited);
    EXPECT_FALSE(limited_stats.truncated);
    EXPECT_EQ(plain_stats.distance_evaluations,
              limited_stats.distance_evaluations);
  }
}

TEST(QueryBatchDeadlineTest, GenerousDeadlineLeavesAnswersExact) {
  const Matrix data = RandomMatrix(150, 5, 53);
  const Matrix queries = RandomMatrix(13, 5, 54);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  QueryLimits limits;
  limits.deadline_us = 60e6;  // one minute: never expires inside the test
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    ScopedThreadCount guard(4);
    QueryStats stats;
    const auto batch = index->QueryBatch(queries, 4, &stats, limits);
    EXPECT_FALSE(stats.truncated);
    for (size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_EQ(batch[i], index->Query(queries.Row(i), 4)) << "query " << i;
    }
  }
}

TEST(QueryBatchDeadlineTest, ExpiredDeadlineTruncatesEveryBackend) {
  const Matrix data = RandomMatrix(400, 6, 55);
  const Matrix queries = RandomMatrix(9, 6, 56);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  QueryLimits limits;
  limits.deadline_us = 1e-3;  // already in the past at the first check
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    for (size_t threads : {1u, 4u}) {
      SCOPED_TRACE(threads);
      ScopedThreadCount guard(threads);
      QueryStats stats;
      const auto batch = index->QueryBatch(queries, 5, &stats, limits);
      ASSERT_EQ(batch.size(), queries.rows());
      EXPECT_TRUE(stats.truncated);
      // The first control check fires before a full scan's worth of work:
      // far fewer evaluations than the exact answer needs.
      EXPECT_LT(stats.distance_evaluations,
                queries.rows() * data.rows());
    }
  }
}

TEST(QueryBatchDeadlineTest, CancelTokenStopsTheBatch) {
  const Matrix data = RandomMatrix(300, 5, 57);
  const Matrix queries = RandomMatrix(7, 5, 58);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  CancelToken token;
  token.Cancel();  // pre-cancelled: every row stops at its first check
  QueryLimits limits;
  limits.cancel = &token;
  ASSERT_TRUE(limits.active());
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    ScopedThreadCount guard(4);
    QueryStats stats;
    const auto batch = index->QueryBatch(queries, 5, &stats, limits);
    ASSERT_EQ(batch.size(), queries.rows());
    EXPECT_TRUE(stats.truncated);

    token.Reset();
    QueryStats fresh;
    const auto exact = index->QueryBatch(queries, 5, &fresh, limits);
    EXPECT_FALSE(fresh.truncated);
    for (size_t i = 0; i < queries.rows(); ++i) {
      EXPECT_EQ(exact[i], index->Query(queries.Row(i), 5));
    }
    token.Cancel();  // restore for the next backend
  }
}

TEST(QueryBatchDeadlineTest, PerQueryDeadlineTruncatesSingleQueries) {
  // The budget rounds up to 1us, so a query only truncates if it runs past
  // that. At 32 dimensions no tree prunes, and every backend spends over
  // 10us on 1000 rows, checking its control many times on the way; a small
  // low-dimensional set can finish inside the budget and flake.
  const Matrix data = RandomMatrix(1000, 32, 59);
  const Vector query = RandomMatrix(1, 32, 60).Row(0);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  QueryLimits limits;
  limits.deadline_us = 1e-3;
  for (const Backend& backend : kBackends) {
    SCOPED_TRACE(backend.name);
    auto index = backend.make(data, metric.get());
    QueryStats stats;
    const auto result =
        index->Query(query, 5, KnnIndex::kNoSkip, &stats, limits);
    EXPECT_TRUE(stats.truncated);
    EXPECT_LE(result.size(), 5u);
  }
}

TEST(QueryBatchTest, EmptyBatchAndKZero) {
  const Matrix data = RandomMatrix(50, 4, 47);
  auto metric = MakeMetric(MetricKind::kEuclidean);
  LinearScanIndex index(data, metric.get());
  EXPECT_TRUE(index.QueryBatch(Matrix(), 5).empty());
  const Matrix queries = RandomMatrix(7, 4, 48);
  const auto batch = index.QueryBatch(queries, 0);
  ASSERT_EQ(batch.size(), 7u);
  for (const auto& result : batch) EXPECT_TRUE(result.empty());
}

}  // namespace
}  // namespace cohere
