// Exactness and truncation contract of the filtered span scans.
//
// LinearScanIndex and VaFileIndex compute distances (or bounds) one span at
// a time and offer only the rows that can still enter the top k. The
// answer must equal a brute-force sort by (distance, index), NaN last, at
// every SIMD dispatch level — with ties straddling span edges, skipped rows
// at span edges, degenerate k and non-finite rows. Under a control the span
// is QueryControl::kCheckInterval rows with one check before each span.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "index/knn.h"
#include "index/linear_scan.h"
#include "index/metric.h"
#include "index/va_file.h"
#include "simd/dispatch.h"
#include "stats/rng.h"

namespace cohere {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr size_t kSpan = QueryControl::kCheckInterval;

std::vector<simd::Level> AvailableLevels() {
  std::vector<simd::Level> levels = {simd::Level::kScalar};
  if (simd::DetectedLevel() >= simd::Level::kSse2) {
    levels.push_back(simd::Level::kSse2);
  }
  if (simd::DetectedLevel() >= simd::Level::kAvx2) {
    levels.push_back(simd::Level::kAvx2);
  }
  return levels;
}

// Restores the process-wide dispatch level when a test leaves.
class LevelGuard {
 public:
  LevelGuard() : saved_(simd::ActiveLevel()) {}
  ~LevelGuard() { simd::SetActiveLevelForTest(saved_); }
  LevelGuard(const LevelGuard&) = delete;
  LevelGuard& operator=(const LevelGuard&) = delete;

 private:
  simd::Level saved_;
};

// Ranks (distance, index) ascending with NaN after every number.
bool RanksBefore(const Neighbor& a, const Neighbor& b) {
  const bool a_nan = std::isnan(a.distance);
  const bool b_nan = std::isnan(b.distance);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

// The oracle: every row's scalar comparable distance, fully sorted.
std::vector<Neighbor> BruteForce(const Matrix& data, const Metric& metric,
                                 const Vector& query, size_t k,
                                 size_t skip_index, size_t rows) {
  std::vector<Neighbor> all;
  for (size_t i = 0; i < rows; ++i) {
    if (i == skip_index) continue;
    all.push_back(
        {i, metric.ComparableDistance(query.data(), data.RowPtr(i),
                                      data.cols())});
  }
  std::sort(all.begin(), all.end(), RanksBefore);
  all.resize(std::min(k, all.size()));
  for (Neighbor& nb : all) nb.distance = metric.ComparableToActual(nb.distance);
  return all;
}

// Equal indices and bit-equal distances, any NaN matching any NaN (the
// kernels leave a NaN's sign and payload unspecified).
void ExpectSameAnswer(const std::vector<Neighbor>& got,
                      const std::vector<Neighbor>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].index, want[i].index) << "rank " << i;
    if (std::isnan(got[i].distance) && std::isnan(want[i].distance)) continue;
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, &got[i].distance, sizeof(a));
    std::memcpy(&b, &want[i].distance, sizeof(b));
    EXPECT_EQ(a, b) << "rank " << i << ": " << got[i].distance << " vs "
                    << want[i].distance;
  }
}

// Rows on a coarse integer grid, so most distances tie with many others,
// plus exact copies of the query at both sides of the 64- and 256-row span
// edges, so the best answers tie across those edges.
Matrix TiedRows(size_t n, size_t d, const Vector& query, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) {
      data(i, j) = static_cast<double>(rng.UniformInt(0, 3));
    }
  }
  for (size_t edge : {size_t{63}, size_t{64}, size_t{65}, size_t{255},
                      size_t{256}, size_t{257}}) {
    if (edge >= n) continue;
    for (size_t j = 0; j < d; ++j) data(edge, j) = query[j];
  }
  return data;
}

// TiedRows with every fifth row made non-finite: +inf, -inf or (when
// `with_nan`) NaN in one coordinate.
Matrix NonFiniteRows(size_t n, size_t d, const Vector& query, bool with_nan,
                     uint64_t seed) {
  Matrix data = TiedRows(n, d, query, seed);
  const double specials[] = {kInf, -kInf, kNan};
  const size_t kinds = with_nan ? 3 : 2;
  for (size_t i = 2; i < n; i += 5) data(i, i % d) = specials[(i / 5) % kinds];
  return data;
}

std::vector<size_t> SkipsFor(size_t n) {
  std::vector<size_t> skips = {KnnIndex::kNoSkip, 0, 63, 64, 255, 256};
  if (n > 0) skips.push_back(n - 1);
  return skips;
}

// Runs one backend over every level, k and skip against the oracle, then
// re-runs each query under a generous deadline, which must change nothing:
// not the answer and not a single work counter.
void CheckBackend(const KnnIndex& index, const Matrix& data,
                  const Metric& metric, const Vector& query,
                  bool full_scan) {
  const size_t n = data.rows();
  LevelGuard guard;
  for (simd::Level level : AvailableLevels()) {
    SCOPED_TRACE(simd::LevelName(level));
    simd::SetActiveLevelForTest(level);
    for (size_t k : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, n, n + 5}) {
      for (size_t skip : SkipsFor(n)) {
        SCOPED_TRACE("k=" + std::to_string(k) + " skip=" +
                     std::to_string(skip));
        QueryStats stats;
        const auto got = index.Query(query, k, skip, &stats);
        ExpectSameAnswer(got, BruteForce(data, metric, query, k, skip, n));
        if (full_scan) {
          EXPECT_EQ(stats.distance_evaluations, n - (skip < n ? 1 : 0));
        }

        QueryLimits limits;
        limits.deadline_us = 60e6;
        QueryStats limited;
        const auto bounded = index.Query(query, k, skip, &limited, limits);
        EXPECT_FALSE(limited.truncated);
        ExpectSameAnswer(bounded, got);
        EXPECT_EQ(limited.distance_evaluations, stats.distance_evaluations);
        EXPECT_EQ(limited.nodes_visited, stats.nodes_visited);
        EXPECT_EQ(limited.candidates_refined, stats.candidates_refined);
      }
    }
  }
}

const size_t kRowCounts[] = {1, 63, 64, 65, 255, 256, 257, 700};

TEST(FilteredScanExactnessTest, LinearScanMatchesBruteForceOnTies) {
  const Vector query{1.0, 2.0, 0.5};
  for (MetricKind kind : {MetricKind::kEuclidean, MetricKind::kManhattan,
                          MetricKind::kChebyshev, MetricKind::kCosine}) {
    auto metric = MakeMetric(kind);
    for (size_t n : kRowCounts) {
      SCOPED_TRACE(metric->name() + " n=" + std::to_string(n));
      const Matrix data = TiedRows(n, 3, query, 11 + n);
      LinearScanIndex index(data, metric.get());
      CheckBackend(index, data, *metric, query, /*full_scan=*/true);
    }
  }
}

TEST(FilteredScanExactnessTest, VaFileMatchesBruteForceOnTies) {
  const Vector query{1.0, 2.0, 0.5};
  for (MetricKind kind : {MetricKind::kEuclidean, MetricKind::kManhattan,
                          MetricKind::kChebyshev}) {
    auto metric = MakeMetric(kind);
    for (size_t n : kRowCounts) {
      SCOPED_TRACE(metric->name() + " n=" + std::to_string(n));
      const Matrix data = TiedRows(n, 3, query, 17 + n);
      VaFileIndex index(data, metric.get(), 3);
      CheckBackend(index, data, *metric, query, /*full_scan=*/false);
    }
  }
}

TEST(FilteredScanExactnessTest, VaFileLeaveOneOutMatchesBruteForce) {
  // The engines' leave-one-out use: the query is the skipped row itself,
  // whose tight upper bound must not tighten the phase-1 threshold. Fine
  // cells (few rows each) are where a leaked bound prunes a true neighbour.
  Rng rng(23);
  Matrix data(700, 2);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < data.cols(); ++j) data(i, j) = rng.Gaussian();
  }
  auto metric = MakeMetric(MetricKind::kEuclidean);
  VaFileIndex index(data, metric.get(), 8);
  std::vector<size_t> skips = SkipsFor(data.rows());
  for (size_t i = 1; i < data.rows(); i += 7) skips.push_back(i);
  LevelGuard guard;
  for (simd::Level level : AvailableLevels()) {
    simd::SetActiveLevelForTest(level);
    for (size_t skip : skips) {
      if (skip >= data.rows()) continue;
      const Vector query = data.Row(skip);
      for (size_t k : {size_t{1}, size_t{2}, size_t{3}}) {
        SCOPED_TRACE(std::string(simd::LevelName(level)) + " skip=" +
                     std::to_string(skip) + " k=" + std::to_string(k));
        ExpectSameAnswer(index.Query(query, k, skip, nullptr),
                         BruteForce(data, *metric, query, k, skip,
                                    data.rows()));
      }
    }
  }
}

TEST(FilteredScanExactnessTest, LinearScanRanksInfinitiesAndNanRows) {
  const Vector query{1.0, 2.0, 0.5};
  for (MetricKind kind : {MetricKind::kEuclidean, MetricKind::kManhattan,
                          MetricKind::kChebyshev}) {
    auto metric = MakeMetric(kind);
    for (size_t n : {size_t{65}, size_t{257}, size_t{700}}) {
      SCOPED_TRACE(metric->name() + " n=" + std::to_string(n));
      const Matrix data = NonFiniteRows(n, 3, query, /*with_nan=*/true, n);
      LinearScanIndex index(data, metric.get());
      CheckBackend(index, data, *metric, query, /*full_scan=*/true);
    }
  }
}

// The VA-file's equi-frequency quantizer sorts each column, which needs a
// total order: NaN rows are outside its domain, infinite ones are not.
TEST(FilteredScanExactnessTest, VaFileRanksInfiniteRows) {
  const Vector query{1.0, 2.0, 0.5};
  for (MetricKind kind : {MetricKind::kEuclidean, MetricKind::kManhattan,
                          MetricKind::kChebyshev}) {
    auto metric = MakeMetric(kind);
    for (size_t n : {size_t{65}, size_t{257}, size_t{700}}) {
      SCOPED_TRACE(metric->name() + " n=" + std::to_string(n));
      const Matrix data = NonFiniteRows(n, 3, query, /*with_nan=*/false, n);
      VaFileIndex index(data, metric.get(), 3);
      CheckBackend(index, data, *metric, query, /*full_scan=*/false);
    }
  }
}

TEST(FilteredScanExactnessTest, OfferSpanEqualsOfferingEveryRow) {
  // Few distinct values (NaN and ±inf among them) make ties and NaNs the
  // common case; every split of the stream into spans must agree with
  // offering each row in turn.
  const double values[] = {0.0, 1.0, 2.0, kInf, -kInf, kNan};
  Rng rng(5);
  std::vector<double> dist(300);
  for (double& x : dist) x = values[rng.UniformInt(0, 5)];
  LevelGuard guard;
  for (simd::Level level : AvailableLevels()) {
    simd::SetActiveLevelForTest(level);
    for (size_t k : {size_t{0}, size_t{1}, size_t{4}, size_t{40}}) {
      for (size_t span : {size_t{1}, size_t{7}, size_t{64}, size_t{300}}) {
        for (size_t skip : {KnnIndex::kNoSkip, size_t{0}, size_t{150}}) {
          SCOPED_TRACE(std::string(simd::LevelName(level)) + " k=" +
                       std::to_string(k) + " span=" + std::to_string(span) +
                       " skip=" + std::to_string(skip));
          KnnCollector each(k);
          for (size_t i = 0; i < dist.size(); ++i) {
            if (i != skip) each.Offer(i, dist[i]);
          }
          KnnCollector spans(k);
          for (size_t base = 0; base < dist.size(); base += span) {
            spans.OfferSpan(base, dist.data() + base,
                            std::min(span, dist.size() - base), skip);
          }
          ExpectSameAnswer(spans.Take(), each.Take());
        }
      }
    }
  }
}

// Squared L2 that cancels `token` once it has evaluated `cancel_after`
// rows, and counts every row it evaluates.
class CancellingMetric final : public Metric {
 public:
  CancellingMetric(CancelToken* token, size_t cancel_after)
      : token_(token), cancel_after_(cancel_after) {}
  using Metric::Distance;
  double Distance(const double* a, const double* b, size_t n) const override {
    return std::sqrt(ComparableDistance(a, b, n));
  }
  double ComparableDistance(const double* a, const double* b,
                            size_t n) const override {
    if (++evaluated_ == cancel_after_) token_->Cancel();
    double sum = 0.0;
    for (size_t j = 0; j < n; ++j) sum += (a[j] - b[j]) * (a[j] - b[j]);
    return sum;
  }
  double ComparableToActual(double comparable) const override {
    return std::sqrt(comparable);
  }
  MetricKind kind() const override { return MetricKind::kEuclidean; }
  std::string name() const override { return "cancelling_l2"; }
  size_t evaluated() const { return evaluated_; }

 private:
  CancelToken* token_;
  size_t cancel_after_;
  mutable size_t evaluated_ = 0;
};

Matrix GaussianRows(size_t n, size_t d, uint64_t seed) {
  Rng rng(seed);
  Matrix data(n, d);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < d; ++j) data(i, j) = rng.Gaussian();
  }
  return data;
}

TEST(SpanTruncationTest, PreCancelledTokenDoesNoWork) {
  const Matrix data = GaussianRows(500, 4, 1);
  const Vector query{0.1, -0.2, 0.3, 0.0};
  auto metric = MakeMetric(MetricKind::kEuclidean);
  LinearScanIndex scan(data, metric.get());
  VaFileIndex va(data, metric.get(), 4);
  CancelToken token;
  token.Cancel();
  QueryLimits limits;
  limits.cancel = &token;
  for (const KnnIndex* index : {static_cast<const KnnIndex*>(&scan),
                                static_cast<const KnnIndex*>(&va)}) {
    SCOPED_TRACE(index->name());
    QueryStats stats;
    const auto out = index->Query(query, 5, KnnIndex::kNoSkip, &stats, limits);
    EXPECT_TRUE(out.empty());
    EXPECT_TRUE(stats.truncated);
    EXPECT_EQ(stats.distance_evaluations, 0u);
    EXPECT_EQ(stats.nodes_visited, 0u);
  }
}

TEST(SpanTruncationTest, CancelMidScanStopsAtTheNextSpanEdge) {
  const size_t n = 500;
  const Matrix data = GaussianRows(n, 4, 2);
  const Vector query{0.1, -0.2, 0.3, 0.0};
  auto oracle = MakeMetric(MetricKind::kEuclidean);
  for (size_t cancel_after : {size_t{1}, size_t{63}, size_t{64}, size_t{65},
                              size_t{200}, size_t{448}, size_t{449}}) {
    SCOPED_TRACE("cancel_after=" + std::to_string(cancel_after));
    CancelToken token;
    CancellingMetric metric(&token, cancel_after);
    LinearScanIndex index(data, &metric);
    QueryLimits limits;
    limits.cancel = &token;
    QueryStats stats;
    const auto out = index.Query(query, 5, KnnIndex::kNoSkip, &stats, limits);
    // The span holding the cancelling row completes; the check before the
    // next span stops the scan. A cancel inside the last span is never seen.
    const size_t scanned = std::min(n, (cancel_after + kSpan - 1) / kSpan * kSpan);
    EXPECT_EQ(stats.distance_evaluations, scanned);
    EXPECT_EQ(metric.evaluated(), scanned);
    EXPECT_EQ(stats.truncated, scanned < n);
    // What was scanned is answered exactly: the best of that prefix.
    ExpectSameAnswer(out, BruteForce(data, *oracle, query, 5,
                                     KnnIndex::kNoSkip, scanned));
  }
}

TEST(SpanTruncationTest, EvaluationsNeverExceedTheRowCount) {
  auto metric = MakeMetric(MetricKind::kEuclidean);
  const Vector query{0.1, -0.2, 0.3, 0.0};
  for (size_t n : {size_t{1}, size_t{64}, size_t{65}, size_t{300}}) {
    const Matrix data = GaussianRows(n, 4, 3 + n);
    LinearScanIndex scan(data, metric.get());
    VaFileIndex va(data, metric.get(), 4);
    for (const KnnIndex* index : {static_cast<const KnnIndex*>(&scan),
                                  static_cast<const KnnIndex*>(&va)}) {
      for (double deadline_us : {1e-3, 60e6}) {
        for (size_t skip : {KnnIndex::kNoSkip, size_t{0}, n - 1}) {
          SCOPED_TRACE(index->name() + " n=" + std::to_string(n) +
                       " deadline=" + std::to_string(deadline_us) +
                       " skip=" + std::to_string(skip));
          QueryLimits limits;
          limits.deadline_us = deadline_us;
          QueryStats stats;
          index->Query(query, n + 1, skip, &stats, limits);
          const size_t rows = n - (skip < n ? 1 : 0);
          EXPECT_LE(stats.distance_evaluations, rows);
          EXPECT_LE(stats.nodes_visited, rows);
          if (!stats.truncated) {
            EXPECT_EQ(stats.distance_evaluations, rows);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace cohere
