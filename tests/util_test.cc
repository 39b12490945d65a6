#include <gtest/gtest.h>

#include <set>

#include "util/random.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace themis {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kNotConverged,
        StatusCode::kParseError, StatusCode::kInternal,
        StatusCode::kUnimplemented, StatusCode::kIoError}) {
    EXPECT_STRNE(StatusCodeName(code), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.ValueOr(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  THEMIS_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  auto ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  auto bad = Quarter(6);  // 6/2=3 is odd
  EXPECT_FALSE(bad.ok());
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(StringUtilTest, SplitSingleField) {
  auto parts = Split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTrip) {
  EXPECT_EQ(Join({"x", "y", "z"}, ","), "x,y,z");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  ab \t\n"), "ab");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, CaseHelpers) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToUpper("SeLeCt"), "SELECT");
  EXPECT_TRUE(EqualsIgnoreCase("GROUP", "group"));
  EXPECT_FALSE(EqualsIgnoreCase("GROUPS", "group"));
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringUtilTest, CsvEscapePassesPlainFields) {
  EXPECT_EQ(CsvEscape("abc"), "abc");
  EXPECT_EQ(CsvEscape(""), "");
}

TEST(StringUtilTest, CsvEscapeQuotesSpecials) {
  EXPECT_EQ(CsvEscape("[0,30)"), "\"[0,30)\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(StringUtilTest, SplitCsvLineBasics) {
  auto fields = SplitCsvLine("a,b,,c");
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[2], "");
}

TEST(StringUtilTest, SplitCsvLineQuoted) {
  auto fields = SplitCsvLine("\"[0,30)\",x,\"a\"\"b\"");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "[0,30)");
  EXPECT_EQ(fields[1], "x");
  EXPECT_EQ(fields[2], "a\"b");
}

TEST(StringUtilTest, CsvEscapeRoundTrip) {
  const std::vector<std::string> inputs = {"plain", "[0,30)", "a\"b", "",
                                           "x,y,z"};
  std::string line;
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) line += ',';
    line += CsvEscape(inputs[i]);
  }
  EXPECT_EQ(SplitCsvLine(line), inputs);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, CategoricalRespectsZeroWeights) {
  Rng rng(2);
  for (int i = 0; i < 200; ++i) {
    size_t pick = rng.Categorical({0.0, 1.0, 0.0});
    EXPECT_EQ(pick, 1u);
  }
}

TEST(RngTest, UniformDoubleIsOneEngineStep) {
  // Parallel BN sample generation (BayesianNetwork::SampleTable's
  // callers) replaces N UniformDouble calls by engine().discard(N); the
  // generated tables stay bitwise identical only while every draw takes
  // exactly one engine step. This pins the standard library to that.
  for (size_t n : {0, 1, 7, 312, 313, 1000, 100000}) {
    Rng drawn(42);
    Rng jumped(42);
    for (size_t i = 0; i < n; ++i) drawn.UniformDouble();
    jumped.engine().discard(n);
    EXPECT_TRUE(drawn.engine() == jumped.engine()) << n << " draws";
    EXPECT_EQ(drawn.UniformDouble(), jumped.UniformDouble());
  }
}

TEST(CategoricalSamplerTest, MatchesWeights) {
  Rng rng(3);
  CategoricalSampler sampler({1.0, 3.0});
  int counts[2] = {0, 0};
  for (int i = 0; i < 20000; ++i) counts[sampler.Sample(rng)]++;
  const double frac = static_cast<double>(counts[1]) / 20000.0;
  EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(CategoricalSamplerTest, SingleOutcome) {
  Rng rng(4);
  CategoricalSampler sampler({5.0});
  EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(RngTest, ZipfSkewsTowardsSmallIndices) {
  Rng rng(5);
  int low = 0;
  const int trials = 5000;
  for (int i = 0; i < trials; ++i) {
    if (rng.Zipf(100, 1.2) < 10) ++low;
  }
  EXPECT_GT(low, trials / 2);  // heavy head
}

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(t.Seconds(), 0.0);
  EXPECT_LT(t.Seconds(), 10.0);
}

}  // namespace
}  // namespace themis
