// Tests for the base utilities: PRNG determinism and distribution sanity,
// table/CSV rendering, invariant checking, the clock model and the JSON
// reader's depth limit.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "base/apportion.h"
#include "base/check.h"
#include "base/clock.h"
#include "base/csv.h"
#include "base/json_mini.h"
#include "base/log.h"
#include "base/prng.h"
#include "base/table.h"
#include "base/trace_event.h"

namespace rispp {
namespace {

TEST(Prng, DeterministicForEqualSeeds) {
  Xoshiro256 a(42), b(42), c(43);
  bool all_equal = true, any_diff_seed_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    all_equal = all_equal && va == b.next();
    any_diff_seed_diff = any_diff_seed_diff || va != c.next();
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_seed_diff);
}

TEST(Prng, BoundedStaysInRangeAndCoversIt) {
  Xoshiro256 rng(7);
  std::vector<int> histogram(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.bounded(10);
    ASSERT_LT(v, 10u);
    ++histogram[v];
  }
  for (int count : histogram) {
    EXPECT_GT(count, 700);  // roughly uniform
    EXPECT_LT(count, 1300);
  }
  EXPECT_EQ(rng.bounded(0), 0u);
  EXPECT_EQ(rng.bounded(1), 0u);
}

TEST(Prng, RangeIsInclusive) {
  Xoshiro256 rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Prng, Uniform01AndGaussianMoments) {
  Xoshiro256 rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20'000, 0.5, 0.02);

  double gsum = 0.0, gsq = 0.0;
  for (int i = 0; i < 20'000; ++i) {
    const double g = rng.gaussian(10.0, 2.0);
    gsum += g;
    gsq += g * g;
  }
  const double mean = gsum / 20'000;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(gsq / 20'000 - mean * mean, 4.0, 0.4);
}

TEST(Apportion, SumsExactlyAndTracksProportions) {
  const std::uint64_t weights[] = {4, 1};
  for (std::uint64_t seats : {0ull, 1ull, 3ull, 7ull, 17ull, 101ull, 1000ull}) {
    const auto shares = apportion_largest_remainder(seats, weights);
    ASSERT_EQ(shares.size(), 2u);
    EXPECT_EQ(shares[0] + shares[1], seats) << seats << " seats";
    // Hamilton's method stays within one seat of the exact share.
    const double ideal = static_cast<double>(seats) * 4.0 / 5.0;
    EXPECT_LT(std::abs(static_cast<double>(shares[0]) - ideal), 1.0) << seats;
  }
}

TEST(Apportion, ThreeWaySplitAndZeroWeights) {
  const std::uint64_t weights[] = {2, 3, 5};
  const auto shares = apportion_largest_remainder(10, weights);
  ASSERT_EQ(shares.size(), 3u);
  EXPECT_EQ(shares[0], 2u);
  EXPECT_EQ(shares[1], 3u);
  EXPECT_EQ(shares[2], 5u);
  // A zero weight gets nothing; the others absorb its share.
  const std::uint64_t lopsided[] = {1, 0, 1};
  const auto split = apportion_largest_remainder(9, lopsided);
  EXPECT_EQ(split[1], 0u);
  EXPECT_EQ(split[0] + split[2], 9u);
}

TEST(Apportion, TiesGoToLowestIndexAndAllZeroIsUniform) {
  // 1 seat over equal weights: the remainders tie, index 0 wins.
  const std::uint64_t equal[] = {1, 1, 1};
  const auto one = apportion_largest_remainder(1, equal);
  EXPECT_EQ(one[0], 1u);
  EXPECT_EQ(one[1], 0u);
  EXPECT_EQ(one[2], 0u);
  // All-zero weights degrade to uniform instead of dividing by zero.
  const std::uint64_t zeros[] = {0, 0, 0};
  const auto uniform = apportion_largest_remainder(7, zeros);
  EXPECT_EQ(uniform[0], 3u);
  EXPECT_EQ(uniform[1], 2u);
  EXPECT_EQ(uniform[2], 2u);
  // Empty weights: nothing to split.
  EXPECT_TRUE(apportion_largest_remainder(0, {}).empty());
}

TEST(Clock, RoundTripAndPaperAnchors) {
  EXPECT_EQ(cycles_from_us(874.03), 87'403u);
  EXPECT_NEAR(us_from_cycles(87'403), 874.03, 0.01);
  EXPECT_EQ(cycles_from_us(0.0), 0u);
}

TEST(Table, RendersAlignedColumnsWithSeparator) {
  TextTable table({"a", "long header"});
  table.add(1, "x");
  table.add(22, 3.5);
  const std::string out = table.render();
  EXPECT_NE(out.find("| a  | long header |"), std::string::npos);
  EXPECT_NE(out.find("| 22 | 3.50        |"), std::string::npos);
  EXPECT_NE(out.find("|----|"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::logic_error);
}

TEST(Table, NumberFormatting) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 3), "-1.000");
  EXPECT_EQ(format_grouped(0), "0");
  EXPECT_EQ(format_grouped(999), "999");
  EXPECT_EQ(format_grouped(7'403'000'000ull), "7,403,000,000");
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os, {"name", "value"});
  csv.write(std::string("plain"), 42);
  csv.write(std::string("has,comma"), 1);
  csv.write(std::string("has\"quote"), 2);
  const std::string out = os.str();
  EXPECT_NE(out.find("name,value\n"), std::string::npos);
  EXPECT_NE(out.find("plain,42\n"), std::string::npos);
  EXPECT_NE(out.find("\"has,comma\",1\n"), std::string::npos);
  EXPECT_NE(out.find("\"has\"\"quote\",2\n"), std::string::npos);
}

TEST(Csv, RejectsWrongArity) {
  std::ostringstream os;
  CsvWriter csv(os, {"a", "b"});
  EXPECT_THROW(csv.write_row({"one"}), std::logic_error);
}

TEST(Check, ThrowsWithContext) {
  try {
    RISPP_CHECK_MSG(1 == 2, "context " << 99);
    FAIL() << "should have thrown";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("context 99"), std::string::npos);
  }
  EXPECT_NO_THROW(RISPP_CHECK(true));
}

TEST(Log, LevelsGateEmission) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kOff);
  RISPP_INFO("suppressed " << 1);  // must not crash, must not emit
  set_log_level(LogLevel::kDebug);
  RISPP_DEBUG("emitted " << 2);
  set_log_level(before);
  SUCCEED();
}

// json_mini recurses once per nesting level: a document nested far deeper
// than any real one must fail with a parse error, not overflow the stack.
TEST(JsonMini, RejectsNestingBeyondTheDepthLimit) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  jsonmini::JsonValue value;
  std::string error;
  EXPECT_FALSE(jsonmini::parse_document(nested(2'000'000), value, error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;

  constexpr std::size_t kLimit = jsonmini::JsonParser::kMaxDepth;
  EXPECT_TRUE(jsonmini::parse_document(nested(kLimit), value, error)) << error;
  EXPECT_FALSE(jsonmini::parse_document(nested(kLimit + 1), value, error));

  // The validators behind trace_check report it as a problem too.
  std::istringstream trace(nested(2'000'000));
  EXPECT_TRUE(validate_chrome_trace(trace, nullptr).has_value());
}

}  // namespace
}  // namespace rispp
