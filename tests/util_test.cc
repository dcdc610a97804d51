#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "holoclean/util/csv.h"
#include "holoclean/util/hash.h"
#include "holoclean/util/json.h"
#include "holoclean/util/rng.h"
#include "holoclean/util/status.h"
#include "holoclean/util/string_util.h"
#include "holoclean/util/timer.h"
#include "holoclean/util/union_find.h"

namespace holoclean {
namespace {

// ---------- Status / Result ----------

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad tau");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad tau");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad tau");
}

TEST(Status, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kParseError, StatusCode::kInternal,
        StatusCode::kNotImplemented}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Halve(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  HOLO_ASSIGN_OR_RETURN(half, Halve(x));
  return Halve(half);
}

TEST(Result, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
}

// ---------- String utilities ----------

TEST(StringUtil, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
}

TEST(StringUtil, JoinRoundTripsSplit) {
  std::vector<std::string> parts = {"one", "two", "three"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringUtil, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace("   "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringUtil, ToLower) { EXPECT_EQ(ToLower("AbC 1"), "abc 1"); }

TEST(StringUtil, IsNumeric) {
  EXPECT_TRUE(IsNumeric("42"));
  EXPECT_TRUE(IsNumeric("-3.5"));
  EXPECT_TRUE(IsNumeric(" 10 "));
  EXPECT_FALSE(IsNumeric("12:30"));
  EXPECT_FALSE(IsNumeric("abc"));
  EXPECT_FALSE(IsNumeric(""));
}

TEST(StringUtil, ParseDoubleOr) {
  EXPECT_DOUBLE_EQ(ParseDoubleOr("2.5", 0.0), 2.5);
  EXPECT_DOUBLE_EQ(ParseDoubleOr("zzz", -1.0), -1.0);
}

TEST(StringUtil, EditDistanceBasics) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("abc", "abd"), 1u);
  EXPECT_EQ(EditDistance("abc", ""), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("Chicago", "Cicago"), 1u);
}

TEST(StringUtil, EditDistanceSymmetric) {
  EXPECT_EQ(EditDistance("flaw", "lawn"), EditDistance("lawn", "flaw"));
}

TEST(StringUtil, SimilarityRange) {
  EXPECT_DOUBLE_EQ(Similarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(Similarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(Similarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(Similarity("Chicago", "Cicago"), 1.0 - 1.0 / 7.0, 1e-9);
}

TEST(StringUtil, NormalizeForMatch) {
  EXPECT_EQ(NormalizeForMatch("  3465  S Morgan  ST "), "3465 s morgan st");
  EXPECT_EQ(NormalizeForMatch("ABC"), "abc");
}

// ---------- RNG ----------

TEST(Rng, DeterministicForSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    if (a.Next() != b.Next()) ++differences;
  }
  EXPECT_GT(differences, 5);
}

TEST(Rng, BelowInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng rng(11);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.35);
}

TEST(Rng, CategoricalFromUniformMatchesAnInlineDraw) {
  // A sampler that draws its uniforms ahead of the weights must pick what
  // Categorical picks and leave the generator in the same state.
  Rng inline_rng(17);
  Rng predrawn_rng(17);
  Rng weight_rng(19);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<double> weights(1 + weight_rng.Below(8));
    for (double& w : weights) w = weight_rng.Uniform() + 1e-9;
    if (trial % 100 == 7) weights[weight_rng.Below(weights.size())] = nan;
    size_t want = inline_rng.Categorical(weights);
    size_t got =
        Rng::CategoricalFromUniform(predrawn_rng.Uniform(), weights);
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_LT(got, weights.size());
  }
  // A NaN total picks the last index, like an inline draw.
  EXPECT_EQ(Rng::CategoricalFromUniform(0.5, {0.2, nan, 0.3}), 2u);
  EXPECT_EQ(inline_rng.Next(), predrawn_rng.Next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> shuffled = v;
  rng.Shuffle(&shuffled);
  EXPECT_EQ(std::multiset<int>(v.begin(), v.end()),
            std::multiset<int>(shuffled.begin(), shuffled.end()));
}

// ---------- Hash ----------

TEST(Hash, Mix64Distinct) {
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 1000; ++i) seen.insert(Mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Hash, CombineOrderSensitive) {
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(Hash, BytesDeterministic) {
  EXPECT_EQ(HashBytes("hello"), HashBytes("hello"));
  EXPECT_NE(HashBytes("hello"), HashBytes("hellp"));
}

// ---------- UnionFind ----------

TEST(UnionFind, BasicComponents) {
  UnionFind uf(6);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_TRUE(uf.Union(1, 2));
  EXPECT_FALSE(uf.Union(0, 2));
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.ComponentSize(1), 3u);
  EXPECT_EQ(uf.ComponentSize(5), 1u);
}

TEST(UnionFind, TransitiveClosureProperty) {
  // Union along a chain: everything becomes one component.
  UnionFind uf(64);
  for (size_t i = 0; i + 1 < 64; ++i) uf.Union(i, i + 1);
  for (size_t i = 0; i < 64; ++i) EXPECT_TRUE(uf.Connected(0, i));
  EXPECT_EQ(uf.ComponentSize(17), 64u);
}

// ---------- CSV ----------

TEST(Csv, ParsesSimpleDocument) {
  auto doc = ParseCsv("a,b\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header, (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(doc.value().rows.size(), 2u);
  EXPECT_EQ(doc.value().rows[1][1], "4");
}

TEST(Csv, HandlesQuotingAndEscapes) {
  auto doc = ParseCsv("name,notes\n\"Smith, John\",\"said \"\"hi\"\"\"\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows[0][0], "Smith, John");
  EXPECT_EQ(doc.value().rows[0][1], "said \"hi\"");
}

TEST(Csv, HandlesCrlfAndEmbeddedNewlines) {
  auto doc = ParseCsv("a,b\r\n\"x\ny\",2\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows[0][0], "x\ny");
}

TEST(Csv, RejectsArityMismatch) {
  EXPECT_FALSE(ParseCsv("a,b\n1,2,3\n").ok());
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"oops\n").ok());
}

TEST(Csv, RejectsCharacterAfterClosingQuote) {
  // `"ab"x` is malformed: after a closing quote only a separator, record
  // terminator, or end of input may follow (it used to parse as `abx`).
  auto r = ParseCsv("a,b\n\"ab\"x,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_FALSE(ParseCsv("a\n\"ab\" \n").ok());
  EXPECT_FALSE(ParseCsv("\"h\"x,b\n1,2\n").ok());  // In the header too.
  EXPECT_FALSE(ParseCsv("a\n\"\"x\n").ok());
  // A closing quote at a legal boundary still parses.
  auto ok = ParseCsv("a,b\n\"x\",\"y\"\n\"z\",w");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().rows[0][0], "x");
  EXPECT_EQ(ok.value().rows[1][1], "w");
}

TEST(Csv, RejectsQuoteInsideUnquotedField) {
  auto r = ParseCsv("a,b\nab\"cd,2\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST(Csv, RejectsEmptyInput) { EXPECT_FALSE(ParseCsv("").ok()); }

TEST(Csv, WriteParseRoundTrip) {
  CsvDocument doc;
  doc.header = {"name", "city"};
  doc.rows = {{"a,b", "x\"y"}, {"", "line\nbreak"}};
  auto parsed = ParseCsv(WriteCsv(doc));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().header, doc.header);
  EXPECT_EQ(parsed.value().rows, doc.rows);
}

TEST(Csv, MissingFileIsNotFound) {
  EXPECT_EQ(ReadCsvFile("/nonexistent/nope.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(Json, AsIntSaturatesAndReadsNanAsZero) {
  // Every double has a defined result: truncation inside the int64 range,
  // saturation outside it (2^63 itself does not fit), NaN as 0. The values
  // are parsed at run time, so no compiler folds the conversion away.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  auto parsed = JsonValue::Parse(
      "[1e300, -1e300, 9223372036854775808, -9223372036854775808,"
      " 9223372036854774784, 2.9, -2.9, \"7\"]");
  ASSERT_TRUE(parsed.ok());
  const std::vector<JsonValue>& v = parsed.value().items();
  ASSERT_EQ(v.size(), 8u);
  EXPECT_EQ(v[0].AsInt(), kMax);
  EXPECT_EQ(v[1].AsInt(), kMin);
  EXPECT_EQ(v[2].AsInt(), kMax);
  EXPECT_EQ(v[3].AsInt(), kMin);
  EXPECT_EQ(v[4].AsInt(), int64_t{9223372036854774784});  // Below 2^63.
  EXPECT_EQ(v[5].AsInt(), 2);
  EXPECT_EQ(v[6].AsInt(), -2);
  EXPECT_EQ(v[7].AsInt(), 0);  // Not a number.
  volatile double nan = std::numeric_limits<double>::quiet_NaN();
  volatile double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonValue::Number(nan).AsInt(), 0);
  EXPECT_EQ(JsonValue::Number(inf).AsInt(), kMax);
  EXPECT_EQ(JsonValue::Number(-inf).AsInt(), kMin);
}

TEST(Timer, MeasuresNonNegative) {
  Timer t;
  EXPECT_GE(t.Seconds(), 0.0);
  t.Reset();
  EXPECT_GE(t.Millis(), 0.0);
}

}  // namespace
}  // namespace holoclean
