#include "common/json.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace skyrise
