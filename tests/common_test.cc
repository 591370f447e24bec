// common/: Status/Result, RNG, string utilities, hashing, CSV and JSON
// codecs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <set>

#include "common/csv.h"
#include "common/fault_injection.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"

namespace vadalink {
namespace {

// ---- Status / Result -------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.ToString(), "NotFound: missing thing");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(41);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value_or(0), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::InvalidArgument("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(r.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  VL_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

// ---- Rng -------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.UniformU64(10);
    EXPECT_LT(v, 10u);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    int64_t x = rng.UniformInt(-5, 5);
    EXPECT_GE(x, -5);
    EXPECT_LE(x, 5);
  }
}

TEST(RngTest, UniformCoversRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformU64(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(17);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, PowerLawInRange) {
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.PowerLaw(2.5, 100);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 100u);
  }
}

TEST(RngTest, PowerLawIsSkewed) {
  Rng rng(29);
  size_t ones = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.PowerLaw(2.5, 100) == 1) ++ones;
  }
  // For alpha=2.5, P(1) ~ 0.65 of the mass; uniform would give 1%.
  EXPECT_GT(ones, n / 3);
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng(37);
  auto s = rng.SampleIndices(100, 20);
  std::set<size_t> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 20u);
  for (size_t i : uniq) EXPECT_LT(i, 100u);
}

TEST(RngTest, WeightedIndexRespectsWeights) {
  Rng rng(41);
  std::vector<double> w{0.0, 10.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.WeightedIndex(w), 1u);
}

// ---- string_util ------------------------------------------------------------

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringUtilTest, Case) {
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_EQ(ToUpper("aBc"), "ABC");
}

TEST(StringUtilTest, JoinStartsEnds) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.25), "0.25");
  EXPECT_EQ(FormatDouble(3.0), "3");
}

// ---- hash -------------------------------------------------------------------

TEST(HashTest, Fnv1aStable) {
  EXPECT_EQ(Fnv1a64("abc"), Fnv1a64("abc"));
  EXPECT_NE(Fnv1a64("abc"), Fnv1a64("abd"));
  EXPECT_NE(Fnv1a64(""), Fnv1a64("a"));
}

TEST(HashTest, CombineOrderSensitive) {
  uint64_t ab = HashCombine(HashCombine(0, 1), 2);
  uint64_t ba = HashCombine(HashCombine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

// ---- csv --------------------------------------------------------------------

TEST(CsvTest, SimpleRows) {
  auto rows = ParseCsv("a,b\nc,d\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"c", "d"}));
}

TEST(CsvTest, QuotedFields) {
  auto rows = ParseCsv("\"a,b\",\"say \"\"hi\"\"\",\"multi\nline\"\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], "a,b");
  EXPECT_EQ((*rows)[0][1], "say \"hi\"");
  EXPECT_EQ((*rows)[0][2], "multi\nline");
}

TEST(CsvTest, CrLfAndNoTrailingNewline) {
  auto rows = ParseCsv("a,b\r\nc,d");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[1][1], "d");
}

TEST(CsvTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(ParseCsv("\"abc").ok());
}

TEST(CsvTest, UnterminatedQuoteNamesItsLine) {
  // Truncated-mid-field input: the error points at the line the quote
  // opened on, not at the end of the document.
  auto doc = ParseCsvDocument("a,b\nc,d\ne,\"trunca");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("line 3"), std::string::npos)
      << doc.status().message();
  EXPECT_NE(doc.status().message().find("truncated"), std::string::npos);
}

TEST(CsvTest, StrayQuoteNamesItsLine) {
  auto doc = ParseCsvDocument("a,b\nc,d\"d\n");
  ASSERT_FALSE(doc.ok());
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
  EXPECT_NE(doc.status().message().find("line 2"), std::string::npos)
      << doc.status().message();
}

TEST(CsvTest, RowLinesTrackMultilineFields) {
  // A quoted field spanning three physical lines shifts the next row's
  // recorded line number accordingly.
  auto doc = ParseCsvDocument("h1,h2\n1,\"a\nb\nc\"\n2,x\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc->rows.size(), 3u);
  EXPECT_EQ(doc->row_lines[0], 1u);
  EXPECT_EQ(doc->row_lines[1], 2u);
  EXPECT_EQ(doc->row_lines[2], 5u);
}

TEST(CsvTest, ReadFileFaultInjection) {
  std::string path = ::testing::TempDir() + "/vl_csv_fault.csv";
  ASSERT_TRUE(WriteCsvFile(path, {{"a", "b"}}).ok());
  FaultInjection::Arm("csv.read_file", {StatusCode::kIoError, "disk gone"});
  auto rows = ReadCsvFile(path);
  EXPECT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
  FaultInjection::Reset();
  EXPECT_TRUE(ReadCsvFile(path).ok());
}

TEST(CsvTest, WriteFileFaultInjection) {
  std::string path = ::testing::TempDir() + "/vl_csv_fault_w.csv";
  FaultInjection::Arm("csv.write_file", {StatusCode::kIoError, "disk full"});
  EXPECT_EQ(WriteCsvFile(path, {{"a"}}).code(), StatusCode::kIoError);
  FaultInjection::Reset();
  EXPECT_TRUE(WriteCsvFile(path, {{"a"}}).ok());
}

TEST(CsvTest, MissingFileIsIoError) {
  auto rows = ReadCsvFile("/nonexistent/definitely/missing.csv");
  ASSERT_FALSE(rows.ok());
  EXPECT_EQ(rows.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, QuotedEmbeddedNewlinesSpanRows) {
  // A quoted field may span several physical lines; the rows that follow
  // it must still parse at their own record boundaries.
  auto rows = ParseCsv("id,note\n1,\"line one\nline two\nline three\"\n2,ok\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[1][0], "1");
  EXPECT_EQ((*rows)[1][1], "line one\nline two\nline three");
  EXPECT_EQ((*rows)[2], (std::vector<std::string>{"2", "ok"}));
}

TEST(CsvTest, CrLfInsideQuotesIsPreserved) {
  // Outside quotes CR is record-terminator fluff; inside quotes it is data.
  auto rows = ParseCsv("\"a\r\nb\",c\r\nd,e\r\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0], "a\r\nb");
  EXPECT_EQ((*rows)[0][1], "c");
  EXPECT_EQ((*rows)[1], (std::vector<std::string>{"d", "e"}));
}

TEST(CsvTest, TrailingUnterminatedQuoteFails) {
  // Good rows before the bad one don't rescue the parse: the whole
  // document is rejected with a ParseError status.
  auto broken = ParseCsv("a,b\nc,\"unclosed\nstill going");
  ASSERT_FALSE(broken.ok());
  EXPECT_EQ(broken.status().code(), StatusCode::kParseError);
  // A quote opening in the middle of an unquoted field is also an error.
  EXPECT_FALSE(ParseCsv("ab\"c,d\n").ok());
}

TEST(CsvTest, QuoteClosedAtEofParses) {
  // Closing quote at end-of-input with no trailing newline still yields
  // the final row.
  auto rows = ParseCsv("x,\"y\nz\"");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], (std::vector<std::string>{"x", "y\nz"}));
}

TEST(CsvTest, EmbeddedNewlineFileRoundTrip) {
  std::string path = ::testing::TempDir() + "/vl_csv_newline_test.csv";
  std::vector<std::vector<std::string>> rows{{"name", "addr"},
                                             {"ACME", "1 Main St\nSuite 2"},
                                             {"Bob \"Junior\"", "line\r\nbreak"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rows);
  std::remove(path.c_str());
}

TEST(CsvTest, EncodeRoundTrip) {
  std::vector<std::string> fields{"plain", "with,comma", "with\"quote",
                                  "with\nnewline", ""};
  std::string line = EncodeCsvRow(fields);
  auto rows = ParseCsv(line + "\n");
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0], fields);
}

TEST(CsvTest, FileRoundTrip) {
  std::string path = ::testing::TempDir() + "/vl_csv_test.csv";
  std::vector<std::vector<std::string>> rows{{"x", "1"}, {"y", "2,3"}};
  ASSERT_TRUE(WriteCsvFile(path, rows).ok());
  auto back = ReadCsvFile(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, rows);
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsvFile("/nonexistent/definitely/not.csv").ok());
}

// ---- Json writer -----------------------------------------------------------

TEST(JsonCodecTest, DoublesRenderShortestRoundTrip) {
  EXPECT_EQ(Json::Double(0.1).Dump(), "0.1");
  EXPECT_EQ(Json::Double(1.5).Dump(), "1.5");
  const double third = 1.0 / 3;
  auto back = Json::Parse(Json::Double(third).Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->is_double());
  EXPECT_EQ(back->AsDouble(), third);  // bit-exact
  // Beyond int64 range the value stays a double.
  back = Json::Parse(Json::Double(1e21).Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->AsDouble(), 1e21);
}

TEST(JsonCodecTest, NonFiniteDoublesRenderAsNull) {
  EXPECT_EQ(Json::Double(std::nan("")).Dump(), "null");
  EXPECT_EQ(Json::Double(INFINITY).Dump(), "null");
  EXPECT_EQ(Json::Double(-INFINITY).Dump(), "null");
}

TEST(JsonCodecTest, KeysAreSortedInNestedObjects) {
  Json inner = Json::MakeObject();
  inner.Set("zeta", Json::Int(1));
  inner.Set("alpha", Json::Int(2));
  Json list = Json::MakeArray();
  list.Append(inner);
  Json outer = Json::MakeObject();
  outer.Set("b", std::move(list));
  outer.Set("a", std::move(inner));
  EXPECT_EQ(outer.Dump(),
            R"({"a":{"alpha":2,"zeta":1},"b":[{"alpha":2,"zeta":1}]})");
}

TEST(JsonCodecTest, StringsEscapeQuotesBackslashesAndControls) {
  EXPECT_EQ(Json::Str("a\"b\\c\x01").Dump(), R"("a\"b\\c\u0001")");
}

TEST(JsonCodecTest, WriteJsonFileAppendsOneNewline) {
  std::string path = ::testing::TempDir() + "/vl_json_test.json";
  Json doc = Json::MakeObject();
  doc.Set("k", Json::Double(0.25));
  ASSERT_TRUE(WriteJsonFile(path, doc).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[64] = {};
  size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "{\"k\":0.25}\n");
  EXPECT_FALSE(WriteJsonFile("/nonexistent/dir/x.json", doc).ok());
}

}  // namespace
}  // namespace vadalink
