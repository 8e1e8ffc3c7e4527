#include "serpentine/util/retry.h"

#include <gtest/gtest.h>

#include <cmath>

namespace serpentine {
namespace {

TEST(RetryTest, BackoffGrowsGeometrically) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.5;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 30.0;
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 0), 0.5);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1), 1.0);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 2), 2.0);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 3), 4.0);
}

TEST(RetryTest, BackoffClampsAtMax) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1.0;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_seconds = 50.0;
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 0), 1.0);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 1), 10.0);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 2), 50.0);
  EXPECT_DOUBLE_EQ(BackoffSeconds(policy, 20), 50.0);
}

TEST(RetryTest, BackoffNeverNegative) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = -3.0;
  EXPECT_GE(BackoffSeconds(policy, 0), 0.0);
  EXPECT_GE(BackoffSeconds(policy, 5), 0.0);
}

TEST(RetryTest, BackoffSurvivesDoubleOverflow) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1.0;
  policy.backoff_multiplier = 10.0;
  policy.max_backoff_seconds = 30.0;
  // 10^5000 overflows double; the guard must return the ceiling, never
  // inf or NaN.
  for (int r : {500, 5000, 2000000000}) {
    double b = BackoffSeconds(policy, r);
    EXPECT_TRUE(std::isfinite(b)) << r;
    EXPECT_DOUBLE_EQ(b, 30.0) << r;
  }
}

TEST(RetryTest, ZeroInitialBackoffNeverProducesNaN) {
  // 0 * pow(mult, huge) = 0 * inf = NaN without the guard.
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.0;
  policy.backoff_multiplier = 2.0;
  for (int r : {0, 10, 100000}) {
    double b = BackoffSeconds(policy, r);
    EXPECT_FALSE(std::isnan(b)) << r;
    EXPECT_DOUBLE_EQ(b, 0.0) << r;
  }
}

TEST(RetryTest, ValidateRejectsGarbage) {
  RetryPolicy ok;
  EXPECT_TRUE(ValidateRetryPolicy(ok).ok());

  RetryPolicy p = ok;
  p.max_attempts = 0;
  EXPECT_EQ(ValidateRetryPolicy(p).code(), StatusCode::kInvalidArgument);

  p = ok;
  p.initial_backoff_seconds = std::nan("");
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());

  p = ok;
  p.initial_backoff_seconds = -1.0;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());

  p = ok;
  p.backoff_multiplier = 0.5;
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());

  p = ok;
  p.max_backoff_seconds = 0.1;  // below initial 0.5: inconsistent
  EXPECT_FALSE(ValidateRetryPolicy(p).ok());
  EXPECT_FALSE(ValidateRetryPolicy(p).message().empty());
}

}  // namespace
}  // namespace serpentine
