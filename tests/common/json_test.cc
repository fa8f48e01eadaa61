#include "common/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/random.h"

namespace skyrise {
namespace {

TEST(JsonTest, ScalarConstruction) {
  EXPECT_TRUE(Json().is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(1.5).is_number());
  EXPECT_TRUE(Json(7).is_number());
  EXPECT_TRUE(Json("hi").is_string());
  EXPECT_EQ(Json(7).AsInt(), 7);
  EXPECT_EQ(Json("hi").AsString(), "hi");
}

TEST(JsonTest, ObjectBuildAndAccess) {
  Json obj = Json::Object();
  obj["name"] = "q6";
  obj["workers"] = 201;
  obj["warm"] = true;
  EXPECT_TRUE(obj.Has("name"));
  EXPECT_FALSE(obj.Has("missing"));
  EXPECT_EQ(obj.GetString("name"), "q6");
  EXPECT_EQ(obj.GetInt("workers"), 201);
  EXPECT_TRUE(obj.GetBool("warm"));
  EXPECT_EQ(obj.GetInt("missing", -1), -1);
  EXPECT_TRUE(obj.Get("missing").is_null());
}

TEST(JsonTest, ArrayBuild) {
  Json arr = Json::Array();
  arr.Append(1);
  arr.Append("two");
  arr.Append(Json::Object());
  EXPECT_EQ(arr.size(), 3u);
  EXPECT_EQ(arr.AsArray()[0].AsInt(), 1);
}

TEST(JsonTest, RoundTripCompact) {
  Json obj = Json::Object();
  obj["pipeline"] = Json::Array();
  obj["pipeline"].Append("scan");
  obj["pipeline"].Append("filter");
  obj["sf"] = 0.1;
  obj["nested"] = Json::Object();
  obj["nested"]["x"] = Json();
  const std::string text = obj.Dump();
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, obj);
}

TEST(JsonTest, RoundTripPretty) {
  Json obj = Json::Object();
  obj["a"] = 1;
  obj["b"] = Json::Array();
  obj["b"].Append(true);
  const std::string text = obj.Dump(2);
  EXPECT_NE(text.find('\n'), std::string::npos);
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, obj);
}

TEST(JsonTest, ParseScalars) {
  EXPECT_EQ(Json::Parse("42")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(Json::Parse("-1.5e2")->AsDouble(), -150.0);
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool());
  EXPECT_EQ(Json::Parse("\"s3://bucket/key\"")->AsString(), "s3://bucket/key");
}

TEST(JsonTest, ParseEscapes) {
  auto v = Json::Parse(R"("line\nbreak\t\"quoted\" \\ A")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "line\nbreak\t\"quoted\" \\ A");
}

TEST(JsonTest, EscapedSerialization) {
  Json s = std::string("a\"b\\c\nd");
  auto parsed = Json::Parse(s.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsString(), "a\"b\\c\nd");
}

TEST(JsonTest, ParseWhitespaceTolerant) {
  auto v = Json::Parse("  { \"a\" : [ 1 , 2 ] , \"b\" : { } }  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("a").size(), 2u);
}

TEST(JsonTest, ParseErrors) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, RegressionDeepNestingIsAnError) {
  // 100,000 '[' once overflowed the parser's stack.
  auto deep = Json::Parse(std::string(100000, '['));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  // The limit is 256 open arrays or objects.
  EXPECT_TRUE(
      Json::Parse(std::string(256, '[') + std::string(256, ']')).ok());
  EXPECT_FALSE(
      Json::Parse(std::string(257, '[') + std::string(257, ']')).ok());
  std::string objects;
  for (int i = 0; i < 257; ++i) objects += "{\"a\":";
  objects += "1" + std::string(257, '}');
  EXPECT_FALSE(Json::Parse(objects).ok());
}

TEST(JsonTest, LargeIntegersPreserved) {
  Json v(int64_t{123456789012345});
  auto parsed = Json::Parse(v.Dump());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->AsInt(), 123456789012345);
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_EQ(Json::Array().Dump(), "[]");
  EXPECT_EQ(Json::Object().Dump(), "{}");
  auto a = Json::Parse("[]");
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a->is_array());
  EXPECT_EQ(a->size(), 0u);
}

TEST(JsonTest, KeyedAccessTakesStringViews) {
  Json obj = Json::Object();
  obj["partitions_per_worker"] = 4;
  obj["upstream_fragments"] = "x";
  const std::string_view key = "partitions_per_worker, and more";
  EXPECT_TRUE(obj.Has(key.substr(0, 21)));
  EXPECT_EQ(obj.GetInt(key.substr(0, 21)), 4);
  EXPECT_EQ(obj.Get(std::string_view("upstream_fragments")).AsString(), "x");
  EXPECT_FALSE(obj.Has(key));
}

/// What Json::Dump wrote for a number when it formatted with printf.
std::string PrintfNumber(double n) {
  char buffer[64];
  if (std::isfinite(n) && n == std::floor(n) && std::fabs(n) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%lld", static_cast<long long>(n));
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.17g", n);
  }
  return buffer;
}

TEST(JsonTest, DumpNumbersMatchPrintf) {
  Rng rng(20260);
  for (int i = 0; i < 200000; ++i) {
    // Random bit patterns cover every exponent, subnormals, infinities and
    // NaNs; the rest are integers, some near the 1e15 switch.
    const uint64_t bits = rng.NextUint64();
    double n = 0;
    switch (i % 4) {
      case 0:
        std::memcpy(&n, &bits, sizeof(n));
        break;
      case 1:
        n = static_cast<double>(static_cast<int64_t>(bits) >> (bits % 64));
        break;
      case 2:
        n = 1e15 + static_cast<double>(static_cast<int64_t>(bits % 2001) -
                                       1000);
        break;
      default:
        n = rng.Uniform(-1e6, 1e6);
    }
    ASSERT_EQ(Json(n).Dump(), PrintfNumber(n)) << i;
  }
  for (double n : {0.0, -0.0, 1e15, -1e15, 999999999999999.0, 0.1, 5e-324,
                   1.7976931348623157e308}) {
    EXPECT_EQ(Json(n).Dump(), PrintfNumber(n)) << n;
  }
}

TEST(JsonTest, ParseReadsWhatDumpWrote) {
  Rng rng(8);
  for (int i = 0; i < 20000; ++i) {
    const double n = i % 2 == 0 ? rng.Uniform(-1e20, 1e20)
                                : static_cast<double>(rng.UniformInt(
                                      -1000000000000000, 1000000000000000));
    auto parsed = Json::Parse(Json(n).Dump());
    ASSERT_TRUE(parsed.ok());
    ASSERT_EQ(parsed->AsDouble(), n) << i;
  }
  EXPECT_TRUE(std::signbit(Json::Parse("-0")->AsDouble()));
  EXPECT_EQ(Json::Parse("-000123")->AsDouble(), -123);
  EXPECT_EQ(Json::Parse("1e2")->AsDouble(), 100);
}

TEST(JsonReaderTest, PullsTokensWithoutATree) {
  JsonReader reader(R"( {"a": [1, true, null, "s"], "b\"": {"c": -2.5}} )");
  bool more = false;
  std::string_view key;
  ASSERT_TRUE(reader.BeginObject().ok());
  ASSERT_TRUE(reader.NextMember(&more, &key).ok());
  ASSERT_TRUE(more);
  EXPECT_EQ(key, "a");
  ASSERT_TRUE(reader.BeginArray().ok());
  ASSERT_TRUE(reader.NextElement(&more).ok());
  ASSERT_TRUE(more);
  double number = 0;
  ASSERT_TRUE(reader.ReadNumber(&number).ok());
  EXPECT_EQ(number, 1);
  ASSERT_TRUE(reader.NextElement(&more).ok());
  bool flag = false;
  ASSERT_TRUE(reader.ReadBool(&flag).ok());
  EXPECT_TRUE(flag);
  ASSERT_TRUE(reader.NextElement(&more).ok());
  Json::Type type;
  ASSERT_TRUE(reader.Peek(&type).ok());
  EXPECT_EQ(type, Json::Type::kNull);
  ASSERT_TRUE(reader.ReadNull().ok());
  ASSERT_TRUE(reader.NextElement(&more).ok());
  std::string_view text;
  ASSERT_TRUE(reader.ReadString(&text).ok());
  EXPECT_EQ(text, "s");
  ASSERT_TRUE(reader.NextElement(&more).ok());
  EXPECT_FALSE(more);
  // An escaped key is decoded; the value is skipped whole.
  ASSERT_TRUE(reader.NextMember(&more, &key).ok());
  ASSERT_TRUE(more);
  EXPECT_EQ(key, "b\"");
  ASSERT_TRUE(reader.Skip().ok());
  ASSERT_TRUE(reader.NextMember(&more, &key).ok());
  EXPECT_FALSE(more);
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(JsonReaderTest, ErrorsAreInvalidArgument) {
  for (const char* text : {"[1 2]", "{\"a\" 1}", "{1:2}", "[,1]", "[1,]",
                           "\"\\q\"", "\"\\u12g4\"", "-", "nul", "{\"a\":1"}) {
    JsonReader reader(text);
    const Status status = reader.Skip();
    const Status finished = status.ok() ? reader.Finish() : status;
    ASSERT_FALSE(finished.ok()) << text;
    EXPECT_EQ(finished.code(), StatusCode::kInvalidArgument) << text;
  }
  // Numbers are read only from the text's own bytes.
  const std::string digits = "12345678";
  JsonReader reader(std::string_view(digits).substr(0, 3));
  double number = 0;
  ASSERT_TRUE(reader.ReadNumber(&number).ok());
  EXPECT_EQ(number, 123);
}

}  // namespace
}  // namespace skyrise
