#include "engine/expression.h"

#include <gtest/gtest.h>

namespace skyrise::engine {
namespace {

data::Chunk TestChunk() {
  using data::DataType;
  data::Schema schema({{"a", DataType::kInt64},
                       {"b", DataType::kDouble},
                       {"s", DataType::kString},
                       {"d", DataType::kDate}});
  data::Chunk chunk = data::Chunk::Empty(schema);
  // Rows: (1, 0.5, "x", 10), (2, 1.5, "y", 20), (3, 2.5, "x", 30).
  for (int i = 0; i < 3; ++i) {
    chunk.column(0).AppendInt(i + 1);
    chunk.column(1).AppendDouble(0.5 + i);
    chunk.column(2).AppendString(i == 1 ? "y" : "x");
    chunk.column(3).AppendInt((i + 1) * 10);
  }
  return chunk;
}

/// Rows of `chunk` for which the boolean `expr` holds.
std::vector<uint32_t> Select(const ExprPtr& expr, const data::Chunk& chunk) {
  auto kernel = ExprKernel::Predicate(*expr, chunk.schema());
  EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
  std::vector<uint32_t> rows;
  if (kernel.ok()) kernel->Select(chunk, &rows);
  return rows;
}

/// Per-row values of the numeric `expr` over `chunk`.
std::vector<double> Evaluate(const ExprPtr& expr, const data::Chunk& chunk) {
  auto kernel = ExprKernel::Numeric(*expr, chunk.schema());
  EXPECT_TRUE(kernel.ok()) << kernel.status().ToString();
  if (!kernel.ok()) return {};
  const double* values = kernel->Evaluate(chunk);
  return std::vector<double>(values, values + chunk.rows());
}

TEST(ExpressionTest, NumericComparison) {
  auto chunk = TestChunk();
  EXPECT_EQ(Select(Cmp(">", Col("a"), Num(1)), chunk),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Select(Cmp("==", Col("a"), Num(2)), chunk),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(Select(Cmp("<=", Col("b"), Num(1.5)), chunk),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Select(Cmp("!=", Col("a"), Num(2)), chunk),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Select(Cmp(">=", Num(2), Col("a")), chunk),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(Select(Cmp("<", Num(1), Num(2)), chunk),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(ExpressionTest, ColumnColumnComparison) {
  auto chunk = TestChunk();
  // a < b: 1<0.5 F, 2<1.5 F, 3<2.5 F.
  EXPECT_TRUE(Select(Cmp("<", Col("a"), Col("b")), chunk).empty());
  EXPECT_EQ(Select(Cmp(">", Col("a"), Col("b")), chunk).size(), 3u);
}

TEST(ExpressionTest, StringEquality) {
  auto chunk = TestChunk();
  EXPECT_EQ(Select(Cmp("==", Col("s"), Str("x")), chunk),
            (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Select(Cmp("!=", Col("s"), Str("x")), chunk),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(Select(Cmp(">", Col("s"), Str("x")), chunk),
            (std::vector<uint32_t>{1}));
  EXPECT_EQ(Select(Cmp("<=", Col("s"), Str("x")), chunk),
            (std::vector<uint32_t>{0, 2}));
}

TEST(ExpressionTest, InList) {
  auto chunk = TestChunk();
  EXPECT_EQ(Select(InList(Col("s"), {"z", "y"}), chunk),
            (std::vector<uint32_t>{1}));
}

TEST(ExpressionTest, BetweenAndBoolOps) {
  auto chunk = TestChunk();
  EXPECT_EQ(Select(Between(Col("d"), Num(15), Num(30)), chunk),
            (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Select(And(Cmp(">", Col("a"), Num(1)),
                       Cmp("==", Col("s"), Str("x"))),
                   chunk),
            (std::vector<uint32_t>{2}));
  EXPECT_EQ(Select(Or(Cmp("==", Col("a"), Num(1)),
                      Cmp("==", Col("a"), Num(3))),
                   chunk),
            (std::vector<uint32_t>{0, 2}));
}

TEST(ExpressionTest, NumericEvaluation) {
  auto chunk = TestChunk();
  EXPECT_EQ(Evaluate(Arith("*", Col("a"), Col("b")), chunk),
            (std::vector<double>{0.5, 3.0, 7.5}));
  EXPECT_DOUBLE_EQ(Evaluate(Arith("/", Col("b"), Col("a")), chunk)[1], 0.75);
  EXPECT_EQ(Evaluate(Arith("-", Num(1), Col("b")), chunk),
            (std::vector<double>{0.5, -0.5, -1.5}));
  EXPECT_EQ(Evaluate(Arith("+", Col("d"), Num(1)), chunk),
            (std::vector<double>{11, 21, 31}));
  // Division by zero yields 0.
  EXPECT_EQ(Evaluate(Arith("/", Col("a"), Arith("-", Col("a"), Col("a"))),
                     chunk),
            (std::vector<double>{0, 0, 0}));
  EXPECT_EQ(Evaluate(Num(2), chunk), (std::vector<double>{2, 2, 2}));
}

TEST(ExpressionTest, IndicatorConvertsBoolean) {
  auto chunk = TestChunk();
  EXPECT_EQ(Evaluate(Indicator(Cmp(">", Col("a"), Num(1))), chunk),
            (std::vector<double>{0, 1, 1}));
}

TEST(ExpressionTest, MissingColumnFails) {
  const data::Schema schema = TestChunk().schema();
  EXPECT_FALSE(
      ExprKernel::Predicate(*Cmp(">", Col("nope"), Num(1)), schema).ok());
  EXPECT_FALSE(ExprKernel::Numeric(*Col("nope"), schema).ok());
  // String column is not numeric, nor an int column a string.
  EXPECT_FALSE(ExprKernel::Numeric(*Col("s"), schema).ok());
  EXPECT_FALSE(
      ExprKernel::Predicate(*Cmp("==", Col("a"), Str("x")), schema).ok());
  // A predicate is not a number, nor a number a predicate.
  EXPECT_FALSE(ExprKernel::Numeric(*Cmp(">", Col("a"), Num(1)), schema).ok());
  EXPECT_FALSE(ExprKernel::Predicate(*Col("a"), schema).ok());
}

TEST(ExpressionTest, UnknownOperatorsRejected) {
  const data::Schema schema = TestChunk().schema();
  auto compare = ExprKernel::Predicate(*Cmp("=>", Col("a"), Num(1)), schema);
  ASSERT_FALSE(compare.ok());
  EXPECT_EQ(compare.status().code(), StatusCode::kInvalidArgument);
  auto arith = ExprKernel::Numeric(*Arith("%", Col("a"), Num(2)), schema);
  ASSERT_FALSE(arith.ok());
  EXPECT_EQ(arith.status().code(), StatusCode::kInvalidArgument);

  Json json = Cmp(">", Col("a"), Num(1))->ToJson();
  json["op"] = "gt";
  auto parsed = Expr::FromJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  json = Arith("*", Col("a"), Num(2))->ToJson();
  json["op"] = "**";
  EXPECT_FALSE(Expr::FromJson(json).ok());
  // So is a node with the wrong number of operands.
  json = Cmp(">", Col("a"), Num(1))->ToJson();
  json["children"].AsArray().pop_back();
  EXPECT_FALSE(Expr::FromJson(json).ok());
}

TEST(ExpressionTest, RegressionMistypedListsAreInvalidArgument) {
  // A non-array "values" or "children", or a non-string value, once aborted.
  Json json = Cmp(">", Col("a"), Num(1))->ToJson();
  json["children"] = 3;
  auto parsed = Expr::FromJson(json);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  json = InList(Col("b"), {"x", "y"})->ToJson();
  ASSERT_TRUE(Expr::FromJson(json).ok());
  json["values"].AsArray()[1] = 2;
  EXPECT_EQ(Expr::FromJson(json).status().code(),
            StatusCode::kInvalidArgument);
  json["values"] = "x";
  EXPECT_EQ(Expr::FromJson(json).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExpressionTest, KernelIsReusedAcrossChunks) {
  auto kernel =
      ExprKernel::Predicate(*Cmp(">", Col("a"), Num(1)), TestChunk().schema());
  ASSERT_TRUE(kernel.ok());
  std::vector<uint32_t> rows;
  kernel->Select(TestChunk(), &rows);
  EXPECT_EQ(rows, (std::vector<uint32_t>{1, 2}));
  kernel->Select(TestChunk().Slice(2, 1), &rows);
  EXPECT_EQ(rows, (std::vector<uint32_t>{0}));
  kernel->Select(TestChunk().Slice(0, 0), &rows);
  EXPECT_TRUE(rows.empty());
}

TEST(ExpressionTest, JsonRoundTrip) {
  ExprPtr expr = And(
      And(Cmp(">=", Col("l_shipdate"), Num(731)),
          Between(Col("l_discount"), Num(0.05), Num(0.07))),
      Or(InList(Col("l_shipmode"), {"MAIL", "SHIP"}),
         Cmp("==", Col("flag"), Str("R"))));
  auto parsed = Expr::FromJson(expr->ToJson());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->ToJson().Dump(), expr->ToJson().Dump());
}

TEST(ExpressionTest, CollectColumnsDeduplicates) {
  ExprPtr expr = And(Cmp(">", Col("a"), Num(1)),
                     Cmp("<", Col("a"), Col("b")));
  std::vector<std::string> cols;
  CollectColumns(*expr, &cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b"}));
}

TEST(ExpressionTest, RangeMayMatchPrunes) {
  // Row group with l_shipdate in [100, 200].
  auto range = [](const std::string& column, double* min, double* max) {
    if (column != "l_shipdate") return false;
    *min = 100;
    *max = 200;
    return true;
  };
  EXPECT_TRUE(RangeMayMatch(*Cmp(">=", Col("l_shipdate"), Num(150)), range));
  EXPECT_FALSE(RangeMayMatch(*Cmp(">=", Col("l_shipdate"), Num(250)), range));
  EXPECT_FALSE(RangeMayMatch(*Cmp("<", Col("l_shipdate"), Num(100)), range));
  EXPECT_TRUE(RangeMayMatch(*Between(Col("l_shipdate"), Num(190), Num(300)),
                            range));
  EXPECT_FALSE(RangeMayMatch(*Between(Col("l_shipdate"), Num(201), Num(300)),
                             range));
  // AND of a pruning and a non-pruning predicate.
  EXPECT_FALSE(RangeMayMatch(
      *And(Cmp(">", Col("l_shipdate"), Num(250)),
           Cmp("<", Col("other"), Num(1))),
      range));
  // Unknown columns conservatively match.
  EXPECT_TRUE(RangeMayMatch(*Cmp(">", Col("other"), Num(1e12)), range));
}

}  // namespace
}  // namespace skyrise::engine
