#include <gtest/gtest.h>

#include "eval/report.hpp"

namespace mixq::eval {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "bbbb"});
  t.add_row({"xxxxxx", "y"});
  t.add_row({"z", "w"});
  const std::string s = t.str();
  // Header, underline, two rows.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 4);
  // Every line has equal visual width for the first column.
  const auto first_line_end = s.find('\n');
  EXPECT_NE(s.find("xxxxxx"), std::string::npos);
  EXPECT_GT(first_line_end, 0u);
}

TEST(TextTable, HandlesShortRows) {
  TextTable t({"a", "b", "c"});
  t.add_row({"1"});
  EXPECT_NO_THROW(static_cast<void>(t.str()));
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(2 * 1024 * 1024), "2.00 MB");
  EXPECT_EQ(fmt_bytes(512 * 1024), "512.0 kB");
  EXPECT_EQ(fmt_bytes(100), "0.1 kB");
}

TEST(Format, PctAndF2) {
  EXPECT_EQ(fmt_pct(68.024), "68.02%");
  EXPECT_EQ(fmt_f2(3.14159), "3.14");
}

}  // namespace
}  // namespace mixq::eval
