#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "src/bench/cli.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "src/support/rng.hpp"
#include "src/support/stats.hpp"
#include "src/support/table.hpp"
#include "src/support/units.hpp"

namespace adapt {
namespace {

TEST(Units, TimeConstruction) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1000000);
  EXPECT_EQ(seconds(1), 1000000000);
  EXPECT_EQ(milliseconds(1.5), 1500000);
}

TEST(Units, SizeConstruction) {
  EXPECT_EQ(kib(1), 1024);
  EXPECT_EQ(mib(4), 4 * 1024 * 1024);
  EXPECT_EQ(gib(1), 1024LL * 1024 * 1024);
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(kib(64)), "64.0KB");
  EXPECT_EQ(format_bytes(mib(4)), "4.00MB");
  EXPECT_EQ(format_bytes(gib(2)), "2.00GB");
}

TEST(Units, FormatTime) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(microseconds(12)), "12.0us");
  EXPECT_EQ(format_time(milliseconds(3.5)), "3.50ms");
  EXPECT_EQ(format_time(seconds(2)), "2.00s");
  EXPECT_EQ(format_time(-microseconds(12)), "-12.0us");
}

TEST(Units, Gbps) {
  // 1 GB moved in 1 s = 8 Gb/s.
  EXPECT_DOUBLE_EQ(gbps(1000000000, seconds(1)), 8.0);
  EXPECT_DOUBLE_EQ(gbps(mib(1), 0), 0.0);
}

TEST(Error, CheckThrowsWithContext) {
  try {
    ADAPT_CHECK(1 == 2) << "extra " << 42;
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("extra 42"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(ADAPT_CHECK(2 + 2 == 4) << "never evaluated");
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng base(7);
  Rng s1 = base.split(1);
  Rng s2 = base.split(2);
  Rng s1_again = base.split(1);
  EXPECT_EQ(s1.next_u64(), s1_again.next_u64());
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowRespectsBound) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
  EXPECT_EQ(r.next_below(0), 0u);
  EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextInInclusiveRange) {
  Rng r(9);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.next_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    hit_lo |= v == -3;
    hit_hi |= v == 3;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Stats, RunningBasics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 6.0}) s.add(x);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
}

TEST(Stats, RunningEmpty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Stats, SamplesQuantiles) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Stats, SamplesSingle) {
  Samples s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.median(), 7.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(Table, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, RejectsRaggedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumericRowFormatting) {
  Table t({"algo", "v"});
  t.add_row_numeric("x", {1.23456}, 2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "algo,v\nx,1.23\n");
}

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse_json("null").is_null());
  EXPECT_EQ(parse_json("true").as_bool(), true);
  EXPECT_EQ(parse_json("false").as_bool(), false);
  EXPECT_EQ(parse_json("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(parse_json("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(parse_json("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesStringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\n\t")").as_string(), "a\"b\\c\n\t");
  EXPECT_EQ(parse_json(R"("Aé")").as_string(), "A\xc3\xa9");
}

TEST(Json, ParsesNested) {
  const JsonValue v = parse_json(
      R"({"name": "t", "xs": [1, 2, 3], "sub": {"ok": true}, "n": null})");
  EXPECT_EQ(v.at("name").as_string(), "t");
  ASSERT_EQ(v.at("xs").as_array().size(), 3u);
  EXPECT_EQ(v.at("xs").as_array()[2].as_int(), 3);
  EXPECT_TRUE(v.at("sub").at("ok").as_bool());
  EXPECT_TRUE(v.at("n").is_null());
  EXPECT_TRUE(v.has("name"));
  EXPECT_FALSE(v.has("missing"));
}

TEST(Json, RoundTripsThroughQuote) {
  const std::string original = "weird \"chars\"\nand\ttabs \\ here";
  EXPECT_EQ(parse_json(json_quote(original)).as_string(), original);
}

TEST(Json, RejectsMalformed) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("{\"a\": 1,}"), Error);
  EXPECT_THROW(parse_json("\"unterminated"), Error);
  EXPECT_THROW(parse_json("nul"), Error);
  EXPECT_THROW(parse_json("1 trailing"), Error);
  EXPECT_THROW(parse_json("{\"dup\" 1}"), Error);
}

TEST(Json, TypeMismatchThrows) {
  const JsonValue v = parse_json("[1]");
  EXPECT_THROW(v.as_object(), Error);
  EXPECT_THROW(v.as_string(), Error);
  EXPECT_THROW(v.at("k"), Error);
}

// The bench/example flag parser: "--key value" and "--key=value" set the
// same key (split at the first '='), and a bare "--flag" reads as "1".
TEST(BenchCli, AcceptsBothValueForms) {
  std::vector<std::string> args = {"adaptsim",
                                   "--nodes",
                                   "2",
                                   "--trace=out.json",
                                   "--spec=nodes=4,ppn=8",
                                   "--persistent",
                                   "--kill-at=250",
                                   "--metrics",
                                   "m.csv",
                                   "--empty="};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const bench::Cli cli(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(cli.get_int("nodes", 0), 2);
  EXPECT_EQ(cli.get("trace", ""), "out.json");
  EXPECT_EQ(cli.get("spec", ""), "nodes=4,ppn=8");
  EXPECT_TRUE(cli.has("persistent"));
  EXPECT_EQ(cli.get("persistent", "fallback"), "fallback");
  EXPECT_EQ(cli.get_int("kill-at", 0), 250);
  EXPECT_EQ(cli.get("metrics", ""), "m.csv");
  EXPECT_TRUE(cli.has("empty"));
  EXPECT_EQ(cli.get("empty", "unset"), "");
  EXPECT_FALSE(cli.has("trace=out.json"));
  EXPECT_EQ(cli.get_int("missing", 7), 7);
}

}  // namespace
}  // namespace adapt
