// Regression tests for deadline-budget rounding (QueryControl::DeadlineMicros).
// The original truncation bug: a budget in (0, 1) microseconds cast to 0,
// arming a deadline that was already expired at creation, while negative
// budgets silently meant "no deadline" instead of being clamped.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "index/knn.h"

namespace cohere {
namespace {

TEST(DeadlineMicrosTest, NonPositiveAndNanBudgetsAreInactive) {
  EXPECT_EQ(QueryControl::DeadlineMicros(0.0), 0);
  EXPECT_EQ(QueryControl::DeadlineMicros(-1.0), 0);
  EXPECT_EQ(QueryControl::DeadlineMicros(-1e300), 0);
  EXPECT_EQ(QueryControl::DeadlineMicros(-0.0), 0);
  EXPECT_EQ(QueryControl::DeadlineMicros(
                std::numeric_limits<double>::quiet_NaN()),
            0);
  EXPECT_EQ(QueryControl::DeadlineMicros(
                -std::numeric_limits<double>::infinity()),
            0);
}

TEST(DeadlineMicrosTest, SubMicrosecondBudgetsRoundUpNeverToZero) {
  // The regression: these all used to truncate to an already-expired 0.
  EXPECT_EQ(QueryControl::DeadlineMicros(0.5), 1);
  EXPECT_EQ(QueryControl::DeadlineMicros(0.001), 1);
  EXPECT_EQ(QueryControl::DeadlineMicros(1e-12), 1);
  EXPECT_EQ(QueryControl::DeadlineMicros(
                std::numeric_limits<double>::denorm_min()),
            1);
}

TEST(DeadlineMicrosTest, FractionalBudgetsRoundUpWholeOnesPassThrough) {
  EXPECT_EQ(QueryControl::DeadlineMicros(1.0), 1);
  EXPECT_EQ(QueryControl::DeadlineMicros(1.5), 2);
  EXPECT_EQ(QueryControl::DeadlineMicros(2.0), 2);
  EXPECT_EQ(QueryControl::DeadlineMicros(2.3), 3);
  EXPECT_EQ(QueryControl::DeadlineMicros(1000.0), 1000);
}

TEST(DeadlineMicrosTest, AstronomicalBudgetsClampBelowClockOverflow) {
  const long long cap = QueryControl::DeadlineMicros(
      std::numeric_limits<double>::infinity());
  EXPECT_GT(cap, 0);
  EXPECT_EQ(QueryControl::DeadlineMicros(1e300), cap);
  EXPECT_EQ(QueryControl::DeadlineMicros(std::numeric_limits<double>::max()),
            cap);
  // The cap converts to a steady_clock duration without overflow: about
  // 285 years of microseconds fits comfortably in 64-bit nanoseconds.
  EXPECT_LE(cap, 9'000'000'000'000'000LL);
}

TEST(QueryControlTest, NegativeDeadlineNeverStops) {
  QueryLimits limits;
  limits.deadline_us = -5.0;
  EXPECT_FALSE(limits.active());
  QueryControl control = QueryControl::FromLimits(limits);
  // Drive well past the first clock check: with no deadline armed the
  // control must never latch.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(control.ShouldStop());
  }
  EXPECT_FALSE(control.deadline_exceeded());
}

TEST(QueryControlTest, GenerousDeadlineDoesNotFirePrematurely) {
  QueryLimits limits;
  limits.deadline_us = 60'000'000.0;  // one minute
  QueryControl control = QueryControl::FromLimits(limits);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(control.ShouldStop());
  }
}

TEST(QueryControlTest, CancelledTokenStopsAtTheFirstCheck) {
  CancelToken cancel;
  cancel.Cancel();
  QueryLimits limits;
  limits.cancel = &cancel;
  QueryControl control = QueryControl::FromLimits(limits);
  // The first call always evaluates (countdown starts at 1), so a
  // pre-cancelled token stops the query before any real work.
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_TRUE(control.stopped());
  EXPECT_FALSE(control.deadline_exceeded());
}

TEST(QueryControlTest, SpanCheckConsultsTheTokenOnEveryCall) {
  CancelToken cancel;
  QueryLimits limits;
  limits.cancel = &cancel;
  QueryControl control = QueryControl::FromLimits(limits);
  EXPECT_FALSE(control.ShouldStopBeforeSpan());
  EXPECT_FALSE(control.ShouldStopBeforeSpan());
  // No countdown: the very next span check sees the cancellation, and the
  // stop latches for both entry points.
  cancel.Cancel();
  EXPECT_TRUE(control.ShouldStopBeforeSpan());
  cancel.Reset();
  EXPECT_TRUE(control.ShouldStopBeforeSpan());
  EXPECT_TRUE(control.ShouldStop());
  EXPECT_FALSE(control.deadline_exceeded());
}

}  // namespace
}  // namespace cohere
