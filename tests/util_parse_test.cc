#include "serpentine/util/parse.h"

#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

namespace serpentine {
namespace {

constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

TEST(ParseInt64Test, AcceptsWholeInRangeIntegers) {
  int64_t v = -1;
  EXPECT_TRUE(ParseInt64("0", 0, kMax, &v));
  EXPECT_EQ(v, 0);
  EXPECT_TRUE(ParseInt64("-17", -20, 20, &v));
  EXPECT_EQ(v, -17);
  EXPECT_TRUE(ParseInt64("9223372036854775807", 0, kMax, &v));
  EXPECT_EQ(v, kMax);
}

TEST(ParseInt64Test, RejectsPartialEmptyAndOutOfRangeText) {
  int64_t v = 42;
  for (const char* bad : {"", "abc", "12abc", "12x", " 12", "12 ", "+3",
                          "1.5", "9223372036854775808"}) {
    EXPECT_FALSE(ParseInt64(bad, 0, kMax, &v)) << "'" << bad << "'";
  }
  EXPECT_FALSE(ParseInt64("-1", 0, kMax, &v));
  EXPECT_FALSE(ParseInt64("21", -20, 20, &v));
  EXPECT_EQ(v, 42);  // untouched on failure
}

TEST(ParseFiniteDoubleTest, AcceptsWholeFiniteNumbers) {
  double v = -1.0;
  EXPECT_TRUE(ParseFiniteDouble("0.01", &v));
  EXPECT_EQ(v, 0.01);
  EXPECT_TRUE(ParseFiniteDouble("-2.5e3", &v));
  EXPECT_EQ(v, -2500.0);
  EXPECT_TRUE(ParseFiniteDouble("90", &v));
  EXPECT_EQ(v, 90.0);
}

TEST(ParseFiniteDoubleTest, RejectsPartialNonFiniteAndEmptyText) {
  double v = 7.0;
  for (const char* bad :
       {"", "abc", "0.01abc", "1e999", "inf", "nan", " 1", "1 ", "--1"}) {
    EXPECT_FALSE(ParseFiniteDouble(bad, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7.0);
}

}  // namespace
}  // namespace serpentine
