#include "engine/expression.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"

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

// --- Select against a row-at-a-time evaluator. ---

/// A row's numeric value of `expr`, one row at a time.
double RowNumber(const Expr& expr, const data::Chunk& chunk, size_t row);

/// Whether the boolean `expr` holds for `row`, one row at a time.
bool RowHolds(const Expr& expr, const data::Chunk& chunk, size_t row);

template <typename T>
bool CompareAs(const std::string& op, T a, T b) {
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  if (op == ">=") return a >= b;
  if (op == "==") return a == b;
  return a != b;
}

double RowNumber(const Expr& expr, const data::Chunk& chunk, size_t row) {
  switch (expr.kind) {
    case Expr::Kind::kColumn: {
      const data::Column& col = chunk.column(expr.column);
      return col.type() == data::DataType::kDouble
                 ? col.doubles()[row]
                 : static_cast<double>(col.ints()[row]);
    }
    case Expr::Kind::kNumber:
      return expr.number;
    case Expr::Kind::kArith: {
      const double a = RowNumber(*expr.children[0], chunk, row);
      const double b = RowNumber(*expr.children[1], chunk, row);
      if (expr.op == "+") return a + b;
      if (expr.op == "-") return a - b;
      if (expr.op == "*") return a * b;
      return b == 0 ? 0 : a / b;
    }
    default:
      return RowHolds(*expr.children[0], chunk, row) ? 1 : 0;
  }
}

bool RowHolds(const Expr& expr, const data::Chunk& chunk, size_t row) {
  switch (expr.kind) {
    case Expr::Kind::kAnd:
      return RowHolds(*expr.children[0], chunk, row) &&
             RowHolds(*expr.children[1], chunk, row);
    case Expr::Kind::kOr:
      return RowHolds(*expr.children[0], chunk, row) ||
             RowHolds(*expr.children[1], chunk, row);
    case Expr::Kind::kBetween: {
      const double v = RowNumber(*expr.children[0], chunk, row);
      return v >= RowNumber(*expr.children[1], chunk, row) &&
             v <= RowNumber(*expr.children[2], chunk, row);
    }
    case Expr::Kind::kInList: {
      const std::string_view value =
          chunk.column(expr.children[0]->column).strings()[row];
      return std::find(expr.in_list.begin(), expr.in_list.end(), value) !=
             expr.in_list.end();
    }
    default: {
      const Expr& rhs = *expr.children[1];
      if (rhs.kind == Expr::Kind::kString) {
        const std::string_view value =
            chunk.column(expr.children[0]->column).strings()[row];
        return CompareAs(expr.op, value.compare(rhs.text), 0);
      }
      return CompareAs(expr.op, RowNumber(*expr.children[0], chunk, row),
                       RowNumber(rhs, chunk, row));
    }
  }
}

/// Random predicates and morsels over every column kind, with the values
/// where a double conversion, NaN or a signed zero decides a compare.
class PredicateGenerator {
 public:
  explicit PredicateGenerator(uint64_t seed) : rng_(seed) {}

  static data::Schema Schema() {
    using data::DataType;
    return data::Schema({{"i", DataType::kInt64},
                         {"j", DataType::kInt64},
                         {"d", DataType::kDate},
                         {"x", DataType::kDouble},
                         {"y", DataType::kDouble},
                         {"s", DataType::kString},
                         {"t", DataType::kString}});
  }

  ExprPtr Predicate(int depth) {
    if (depth > 0 && rng_.Bernoulli(0.4)) {
      ExprPtr lhs = Predicate(depth - 1);
      ExprPtr rhs = Predicate(depth - 1);
      return rng_.Bernoulli(0.6) ? And(lhs, rhs) : Or(lhs, rhs);
    }
    switch (rng_.UniformInt(0, 7)) {
      case 0:
        return Cmp(CompareOp(), Col(NumericColumn()), Literal());
      case 1:
        return Cmp(CompareOp(), Literal(), Col(NumericColumn()));
      case 2:
        return Cmp(CompareOp(), Col(NumericColumn()), Col(NumericColumn()));
      case 3:
        return Cmp(CompareOp(),
                   Arith(rng_.Bernoulli(0.5) ? "-" : "/",
                         Col(NumericColumn()), Col(NumericColumn())),
                   Literal());
      case 4:
        return Between(Col(NumericColumn()),
                       rng_.Bernoulli(0.3) ? Col(NumericColumn()) : Literal(),
                       Literal());
      case 5: {
        std::vector<std::string> values;
        for (const char* value : kStrings) {
          if (rng_.Bernoulli(0.3)) values.emplace_back(value);
        }
        return InList(Col(StringColumn()), std::move(values));
      }
      case 6:
        return Cmp(CompareOp(), Col(StringColumn()),
                   Str(kStrings[rng_.UniformInt(0, kStringCount - 1)]));
      default:
        return Cmp(CompareOp(), Literal(), Literal());
    }
  }

  /// `rows` rows; with `uniform`, all of them one row, so that a predicate
  /// keeps every row or none.
  data::Chunk Morsel(size_t rows, bool uniform) {
    data::Chunk chunk = data::Chunk::Empty(Schema());
    for (size_t row = 0; row < rows; ++row) {
      Rng values = uniform ? Rng(uniform_seed_) : rng_.Fork(row);
      chunk.column(0).AppendInt(Int(values));
      chunk.column(1).AppendInt(Int(values));
      chunk.column(2).AppendInt(8036 + values.UniformInt(0, 3) * 365);
      chunk.column(3).AppendDouble(Double(values));
      chunk.column(4).AppendDouble(Double(values));
      chunk.column(5).AppendString(kStrings[values.UniformInt(0, 6)]);
      chunk.column(6).AppendString(kStrings[values.UniformInt(0, 6)]);
    }
    uniform_seed_ = rng_.NextUint64();
    return chunk;
  }

 private:
  static constexpr const char* kStrings[] = {"",     "AIR",   "MAIL", "SHIP",
                                             "TRUCK", "a",    "zz",   "B"};
  static constexpr int kStringCount = 8;

  static int64_t Int(Rng& rng) {
    constexpr int64_t kTwo53 = int64_t{1} << 53;
    const int64_t pool[] = {0,
                            1,
                            -1,
                            7,
                            kTwo53,
                            kTwo53 + 1,
                            -kTwo53 - 1,
                            (int64_t{1} << 62) + 3,
                            std::numeric_limits<int64_t>::min(),
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::max() - 1};
    return pool[rng.UniformInt(0, 10)];
  }

  static double Double(Rng& rng) {
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double pool[] = {0.0, -0.0, 1.5, -1.5, nan, -nan, inf, -inf,
                           9007199254740992.0, 7.0};
    return pool[rng.UniformInt(0, 9)];
  }

  std::string CompareOp() {
    const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
    return ops[rng_.UniformInt(0, 5)];
  }
  std::string NumericColumn() {
    const char* columns[] = {"i", "j", "d", "x", "y"};
    return columns[rng_.UniformInt(0, 4)];
  }
  std::string StringColumn() { return rng_.Bernoulli(0.5) ? "s" : "t"; }
  ExprPtr Literal() {
    return Num(rng_.Bernoulli(0.5) ? static_cast<double>(Int(rng_))
               : rng_.Bernoulli(0.2)
                   ? static_cast<double>(8036 + rng_.UniformInt(0, 3) * 365)
                   : Double(rng_));
  }

  Rng rng_;
  uint64_t uniform_seed_ = 1;
};

TEST(ExpressionTest, SelectMatchesRowAtATimeEvaluation) {
  PredicateGenerator generator(20240601);
  const data::Schema schema = PredicateGenerator::Schema();
  const size_t sizes[] = {0, 1, 9, 64, 200};
  int all_kept = 0, none_kept = 0, some_kept = 0;
  for (int p = 0; p < 400; ++p) {
    const ExprPtr predicate = generator.Predicate(/*depth=*/3);
    auto kernel = ExprKernel::Predicate(*predicate, schema);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    for (int m = 0; m < 6; ++m) {
      const data::Chunk morsel =
          generator.Morsel(sizes[(p + m) % 5], /*uniform=*/m % 3 == 0);
      std::vector<uint32_t> expected;
      for (size_t row = 0; row < static_cast<size_t>(morsel.rows()); ++row) {
        if (RowHolds(*predicate, morsel, row)) {
          expected.push_back(static_cast<uint32_t>(row));
        }
      }
      const std::string where = predicate->ToJson().Dump();
      std::vector<uint32_t> rows = {7, 7};
      kernel->Select(morsel, &rows);
      ASSERT_EQ(rows, expected) << where;
      ExprKernel::ColumnRefs columns;
      for (size_t c = 0; c < morsel.num_columns(); ++c) {
        columns.push_back(&morsel.column(c));
      }
      kernel->Select(columns, static_cast<size_t>(morsel.rows()), &rows);
      ASSERT_EQ(rows, expected) << where;
      if (morsel.rows() == 0) continue;
      if (expected.empty()) {
        ++none_kept;
      } else if (expected.size() == static_cast<size_t>(morsel.rows())) {
        ++all_kept;
      } else {
        ++some_kept;
      }
    }
  }
  // Each outcome is met many times over.
  EXPECT_GT(all_kept, 100);
  EXPECT_GT(none_kept, 100);
  EXPECT_GT(some_kept, 100);
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
