#include "util/stats.h"

#include <gtest/gtest.h>

namespace cbwt::util {
namespace {

TEST(EmpiricalCdf, AtAndQuantile) {
  EmpiricalCdf cdf({1.0, 2.0, 3.0, 4.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf.at(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 2.5);
}

TEST(EmpiricalCdf, EmptyIsSafe) {
  EmpiricalCdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.at(1.0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0.0);
  EXPECT_TRUE(cdf.curve(5).empty());
}

TEST(EmpiricalCdf, CurveIsMonotone) {
  EmpiricalCdf cdf({5.0, 1.0, 9.0, 3.0, 7.0, 2.0});
  const auto curve = cdf.curve(10);
  ASSERT_EQ(curve.size(), 10U);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_LE(curve[i - 1].first, curve[i].first);
    EXPECT_LE(curve[i - 1].second, curve[i].second + 1e-12);
  }
}

TEST(Tally, CountsAndShares) {
  Tally tally;
  tally.add("a");
  tally.add("b", 3);
  tally.add("a");
  EXPECT_EQ(tally.total(), 5U);
  EXPECT_EQ(tally.distinct(), 2U);
  EXPECT_EQ(tally.count("a"), 2U);
  EXPECT_EQ(tally.count("missing"), 0U);
  EXPECT_DOUBLE_EQ(tally.share("b"), 0.6);
}

TEST(Tally, TopOrdering) {
  Tally tally;
  tally.add("x", 1);
  tally.add("y", 5);
  tally.add("z", 5);
  const auto top = tally.top(2);
  ASSERT_EQ(top.size(), 2U);
  EXPECT_EQ(top[0].first, "y");  // tie broken lexicographically
  EXPECT_EQ(top[1].first, "z");
}

TEST(Tally, EmptyShareIsZero) {
  Tally tally;
  EXPECT_DOUBLE_EQ(tally.share("a"), 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  const std::vector<double> xs = {1, 2, 3, 4};
  const std::vector<double> ys = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const std::vector<double> neg = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Pearson, DegenerateInputs) {
  const std::vector<double> xs = {1, 1, 1};
  const std::vector<double> ys = {2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(xs, ys), 0.0);
  EXPECT_DOUBLE_EQ(pearson({}, {}), 0.0);
  const std::vector<double> mismatched = {1.0};
  EXPECT_DOUBLE_EQ(pearson(xs, mismatched), 0.0);
}

TEST(Spearman, MonotoneNonlinearIsOne) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {1, 8, 27, 64, 125};  // monotone but nonlinear
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Spearman, HandlesTies) {
  const std::vector<double> xs = {1, 2, 2, 3};
  const std::vector<double> ys = {10, 20, 20, 30};
  EXPECT_NEAR(spearman(xs, ys), 1.0, 1e-12);
}

TEST(Percent, Basics) {
  EXPECT_DOUBLE_EQ(percent(1.0, 4.0), 25.0);
  EXPECT_DOUBLE_EQ(percent(1.0, 0.0), 0.0);
}

}  // namespace
}  // namespace cbwt::util
