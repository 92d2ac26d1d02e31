#include "util/strings.h"

#include <gtest/gtest.h>

#include "util/table.h"

namespace cbwt::util {
namespace {

TEST(Split, BasicAndEmptyFields) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4U);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Split, NoSeparator) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1U);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Split, EmptyInput) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1U);
  EXPECT_EQ(parts[0], "");
}

TEST(Join, Basic) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(ToLower, Ascii) {
  EXPECT_EQ(to_lower("AdSeRvE.CoM"), "adserve.com");
  EXPECT_EQ(to_lower(""), "");
}

TEST(Contains, CaseSensitivity) {
  EXPECT_TRUE(contains("tracker.com/rtb", "rtb"));
  EXPECT_FALSE(contains("tracker.com/RTB", "rtb"));
}

TEST(Trim, Whitespace) {
  EXPECT_EQ(trim("  x y  "), "x y");
  EXPECT_EQ(trim("\t\n"), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(FmtFixed, Decimals) {
  EXPECT_EQ(fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_fixed(1.0, 0), "1");
  EXPECT_EQ(fmt_pct(84.93, 2), "84.93%");
}

TEST(FmtCount, ThousandsSeparators) {
  EXPECT_EQ(fmt_count(0), "0");
  EXPECT_EQ(fmt_count(999), "999");
  EXPECT_EQ(fmt_count(1000), "1,000");
  EXPECT_EQ(fmt_count(7172752), "7,172,752");
  EXPECT_EQ(fmt_count(1057000000ULL), "1,057,000,000");
}

TEST(ParseEnv, AcceptsWholeWellFormedValues) {
  EXPECT_EQ(parse_env<double>("CBWT_SCALE", "0.02", "a scale"), 0.02);
  EXPECT_EQ(parse_env<std::uint64_t>("CBWT_SEED", "18446744073709551615", "digits"),
            ~std::uint64_t{0});
  EXPECT_EQ(parse_env<unsigned>("--threads", "0", "a count"), 0U);
}

TEST(ParseEnv, RejectsMalformedValuesNamingTheSetting) {
  const auto message = [](auto parse) -> std::string {
    try {
      (void)parse();
    } catch (const std::invalid_argument& error) {
      return error.what();
    }
    return "accepted";
  };
  EXPECT_EQ(message([] { return parse_env<double>("CBWT_SCALE", "abc", "a scale"); }),
            "CBWT_SCALE=\"abc\": expected a scale");
  EXPECT_EQ(message([] { return parse_env<std::uint64_t>("CBWT_SEED", "-1", "digits"); }),
            "CBWT_SEED=\"-1\": expected digits");
  // Trailing bytes, empty values, non-finite doubles and out-of-range
  // integers are all malformed.
  for (const char* bad : {"2x", "", " 2", "4294967296"}) {
    EXPECT_NE(message([&] { return parse_env<unsigned>("--threads", bad, "a count"); }),
              "accepted")
        << bad;
  }
  for (const char* bad : {"nan", "inf", "1e999", "0.02 "}) {
    EXPECT_NE(message([&] { return parse_env<double>("CBWT_SCALE", bad, "a scale"); }),
              "accepted")
        << bad;
  }
}

TEST(TextTable, RendersAlignedRows) {
  TextTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22222"});
  const auto text = table.render();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22222"), std::string::npos);
  // Rows are padded to equal column starts: "value" and "1" align.
  EXPECT_EQ(table.rows(), 2U);
}

TEST(TextTable, ShortRowsArePadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"only"});
  EXPECT_NO_THROW({ const auto text = table.render(); (void)text; });
}

TEST(RenderBars, ScalesToMax) {
  const std::string out = render_bars({{"x", 10.0, ""}, {"y", 5.0, "note"}}, 10);
  EXPECT_NE(out.find("##########"), std::string::npos);
  EXPECT_NE(out.find("note"), std::string::npos);
}

TEST(RenderBars, AllZeroValues) {
  const std::string out = render_bars({{"x", 0.0, ""}}, 10);
  EXPECT_NE(out.find("x"), std::string::npos);
}

}  // namespace
}  // namespace cbwt::util
