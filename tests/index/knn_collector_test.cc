#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "index/knn.h"

namespace cohere {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

TEST(KnnCollectorTest, ThresholdIsInfiniteUntilFull) {
  KnnCollector collector(3);
  EXPECT_EQ(collector.Threshold(), kInf);
  collector.Offer(0, 5.0);
  EXPECT_FALSE(collector.Full());
  EXPECT_EQ(collector.Threshold(), kInf);
  collector.Offer(1, 2.0);
  EXPECT_EQ(collector.Threshold(), kInf);
  collector.Offer(2, 7.0);
  EXPECT_TRUE(collector.Full());
  EXPECT_EQ(collector.Threshold(), 7.0);
}

TEST(KnnCollectorTest, ThresholdShrinksAsBetterCandidatesArrive) {
  KnnCollector collector(2);
  collector.Offer(0, 10.0);
  collector.Offer(1, 8.0);
  EXPECT_EQ(collector.Threshold(), 10.0);
  collector.Offer(2, 4.0);  // evicts 10.0
  EXPECT_EQ(collector.Threshold(), 8.0);
  collector.Offer(3, 1.0);  // evicts 8.0
  EXPECT_EQ(collector.Threshold(), 4.0);
  collector.Offer(4, 9.0);  // worse than threshold: ignored
  EXPECT_EQ(collector.Threshold(), 4.0);
}

TEST(KnnCollectorTest, KZeroCollectsNothingAndPrunesEverything) {
  KnnCollector collector(0);
  // Trivially full: any pruning bound exceeds the threshold, so index scans
  // can stop immediately.
  EXPECT_TRUE(collector.Full());
  EXPECT_EQ(collector.Threshold(), -kInf);
  collector.Offer(0, 1.0);
  collector.Offer(1, 0.0);
  EXPECT_EQ(collector.Threshold(), -kInf);
  EXPECT_TRUE(collector.Take().empty());
}

TEST(KnnCollectorTest, EqualDistanceTiesPreferSmallerIndices) {
  // Arrival order must not matter: offering equal distances in any order
  // keeps the smallest row indices.
  {
    KnnCollector collector(2);
    collector.Offer(5, 1.0);
    collector.Offer(7, 1.0);
    collector.Offer(3, 1.0);  // displaces index 7
    const auto out = collector.Take();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].index, 3u);
    EXPECT_EQ(out[1].index, 5u);
  }
  {
    KnnCollector collector(2);
    collector.Offer(3, 1.0);
    collector.Offer(5, 1.0);
    collector.Offer(7, 1.0);  // worse tie: ignored
    const auto out = collector.Take();
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].index, 3u);
    EXPECT_EQ(out[1].index, 5u);
  }
}

TEST(KnnCollectorTest, TakeSortsByDistanceThenIndex) {
  KnnCollector collector(4);
  collector.Offer(9, 2.0);
  collector.Offer(1, 3.0);
  collector.Offer(4, 2.0);
  collector.Offer(0, 1.0);
  const auto out = collector.Take();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], (Neighbor{0, 1.0}));
  EXPECT_EQ(out[1], (Neighbor{4, 2.0}));
  EXPECT_EQ(out[2], (Neighbor{9, 2.0}));
  EXPECT_EQ(out[3], (Neighbor{1, 3.0}));
}

TEST(KnnCollectorTest, FewerOffersThanKReturnsAll) {
  KnnCollector collector(10);
  collector.Offer(2, 0.5);
  collector.Offer(1, 0.25);
  const auto out = collector.Take();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].index, 1u);
  EXPECT_EQ(out[1].index, 2u);
}

TEST(KnnCollectorTest, NanDistancesNeverEvictARealNeighbour) {
  // A NaN offered to a full heap used to fail both reject comparisons,
  // evict a real neighbour and then stay put: this stream returned rows
  // {3 (NaN), 6, 4}.
  const double dist[] = {1.0, 2.0, 3.0, kNan, 0.5, 4.0, 0.25};
  KnnCollector collector(3);
  for (size_t i = 0; i < 7; ++i) collector.Offer(i, dist[i]);
  const auto out = collector.Take();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], (Neighbor{6, 0.25}));
  EXPECT_EQ(out[1], (Neighbor{4, 0.5}));
  EXPECT_EQ(out[2], (Neighbor{0, 1.0}));
}

TEST(KnnCollectorTest, NanRanksAfterEveryNumberWithTiesByIndex) {
  // NaN only fills slots no number can: it ranks after +inf, and two NaNs
  // tie-break by index whatever the arrival order.
  KnnCollector collector(4);
  collector.Offer(7, kNan);
  collector.Offer(2, kInf);
  collector.Offer(5, kNan);
  collector.Offer(9, kNan);
  EXPECT_TRUE(std::isnan(collector.Threshold()));
  collector.Offer(1, kNan);  // beats the NaN at 9 on index
  collector.Offer(8, 1e300);  // any number beats a NaN
  const auto out = collector.Take();
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], (Neighbor{8, 1e300}));
  EXPECT_EQ(out[1], (Neighbor{2, kInf}));
  EXPECT_EQ(out[2].index, 1u);
  EXPECT_TRUE(std::isnan(out[2].distance));
  EXPECT_EQ(out[3].index, 5u);
  EXPECT_TRUE(std::isnan(out[3].distance));
}

}  // namespace
}  // namespace cohere
