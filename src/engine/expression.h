#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "data/chunk.h"

/// \file expression.h
/// Scalar expressions for predicates and projections, JSON-serializable as
/// part of physical plans. Supports column references, numeric/string
/// literals, comparisons (column-literal and column-column), boolean
/// AND/OR, arithmetic (incl. division), BETWEEN, string IN-lists, and
/// boolean-to-numeric indicators (for conditional aggregation, e.g. the Q12
/// priority counts) — everything the paper's query suite needs.

namespace skyrise::engine {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

class Expr {
 public:
  enum class Kind {
    kColumn,
    kNumber,
    kString,
    kCompare,  ///< op in {"<","<=",">",">=","==","!="}.
    kAnd,
    kOr,
    kArith,    ///< op in {"+","-","*","/"}; x / 0 is 0.
    kBetween,  ///< children[0] in [children[1], children[2]] (numeric).
    kInList,   ///< children[0]'s string value in literal list.
    kIndicator,  ///< 1.0 when the boolean child holds, else 0.0.
  };

  Kind kind;
  std::string column;                ///< kColumn.
  double number = 0;                 ///< kNumber.
  std::string text;                  ///< kString.
  std::string op;                    ///< kCompare / kArith ("+","-","*","/").
  std::vector<ExprPtr> children;
  std::vector<std::string> in_list;  ///< kInList.

  Json ToJson() const;
  /// Rejects unknown kinds and operators and wrong child counts.
  [[nodiscard]] static Result<ExprPtr> FromJson(const Json& json);
};

// Builders.
ExprPtr Col(const std::string& name);
ExprPtr Num(double value);
ExprPtr Str(const std::string& value);
ExprPtr Cmp(const std::string& op, ExprPtr lhs, ExprPtr rhs);
ExprPtr And(ExprPtr lhs, ExprPtr rhs);
ExprPtr Or(ExprPtr lhs, ExprPtr rhs);
ExprPtr Arith(const std::string& op, ExprPtr lhs, ExprPtr rhs);
ExprPtr Between(ExprPtr value, ExprPtr lo, ExprPtr hi);
ExprPtr InList(ExprPtr value, std::vector<std::string> values);
ExprPtr Indicator(ExprPtr condition);

/// An expression compiled against one schema: column references resolved to
/// indices and types, operators to enums. Evaluation runs one typed loop per
/// expression node over the whole chunk, into scratch buffers the kernel
/// reuses from chunk to chunk; a string predicate holds its truth per value
/// of the column's dictionary and looks rows up by code. Compile once per
/// operator; every chunk passed in must be materialized with the schema the
/// kernel was compiled for.
/// Select splits the predicate's top-level AND chain into conjuncts, in plan
/// order, and refines a selection vector one conjunct at a time: the first
/// reads every row, each later one only the rows still selected. A compare
/// or BETWEEN of columns and numbers, a string compare and an IN read their
/// columns in place; any other conjunct evaluates its mask over every row.
/// Results equal a row-at-a-time evaluation bit for bit: each node computes
/// the same double operation per row, and pure nodes need no short-circuit.
class ExprKernel {
 public:
  /// Compiles a boolean expression (compare, and, or, between, in).
  [[nodiscard]] static Result<ExprKernel> Predicate(const Expr& expr,
                                                    const data::Schema& schema);
  /// Compiles a numeric expression (column, number, arith, indicator).
  [[nodiscard]] static Result<ExprKernel> Numeric(const Expr& expr,
                                                  const data::Schema& schema);

  /// The columns an evaluation reads, by their position in the schema the
  /// kernel was compiled for.
  using ColumnRefs = std::vector<const data::Column*>;

  /// Predicate kernels: clears `out` and fills it with the indices of the
  /// rows of `chunk` for which the expression holds, ascending.
  void Select(const data::Chunk& chunk, std::vector<uint32_t>* out);
  /// Select over `columns` of `rows` rows each, which no chunk need hold.
  void Select(const ColumnRefs& columns, size_t rows,
              std::vector<uint32_t>* out);

  /// Numeric kernels: one value per row of `chunk`. The pointer is valid
  /// until the next call on this kernel or until `chunk` changes.
  const double* Evaluate(const data::Chunk& chunk);

  /// Operators of kCompare and kArith expressions, by their `op` strings.
  enum class CmpOp : uint8_t { kLt, kLe, kGt, kGe, kEq, kNe };
  enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv };

 private:
  enum class Op : uint8_t {
    kColumn, kNumber, kCompare, kStringCompare, kAnd, kOr, kArith, kBetween,
    kInList, kIndicator,
  };
  struct Node {
    Op op = Op::kNumber;
    CmpOp cmp = CmpOp::kEq;
    ArithOp arith = ArithOp::kAdd;
    size_t column = 0;  ///< kColumn, kStringCompare, kInList.
    data::DataType type = data::DataType::kInt64;  ///< Of `column`.
    double number = 0;                 ///< kNumber.
    std::string text;                  ///< kStringCompare literal.
    std::vector<std::string> values;   ///< kInList, sorted.
    /// kStringCompare, kInList: truth per value of the last dictionary.
    data::DictMemo<uint8_t> truth;
    std::vector<size_t> children;
    std::vector<double> numbers;       ///< Scratch: per-row values.
    std::vector<uint8_t> mask;         ///< Scratch: per-row truth.
  };
  /// A node's per-row values: `values`, or `constant` on every row when null.
  struct Operand {
    const double* values = nullptr;
    double constant = 0;
  };

  [[nodiscard]] Result<size_t> CompileBool(const Expr& expr,
                                           const data::Schema& schema);
  [[nodiscard]] Result<size_t> CompileNumber(const Expr& expr,
                                             const data::Schema& schema);
  /// Compiles each of `expr`'s children, boolean or numeric, into `node`.
  [[nodiscard]] Status CompileChildren(const Expr& expr,
                                       const data::Schema& schema,
                                       bool boolean, Node* node);
  [[nodiscard]] static Status ResolveColumn(const std::string& name,
                                            const data::Schema& schema,
                                            Node* node);
  size_t Add(Node node);
  /// Appends node `id`'s conjuncts to conjuncts_: its AND operands, left to
  /// right, or the node itself.
  void SplitConjuncts(size_t id);
  /// `chunk`'s columns, in the reused chunk_columns_.
  const ColumnRefs& RefsOf(const data::Chunk& chunk);
  /// Keeps the rows of `selection` for which boolean node `id` holds, in
  /// order; with `all`, starts from every row in [0, rows) instead.
  void Keep(size_t id, const ColumnRefs& columns, size_t rows, bool all,
            std::vector<uint32_t>* selection);
  const uint8_t* Mask(size_t id, const ColumnRefs& columns, size_t rows);
  /// kStringCompare, kInList: the node's truth per value of its column's
  /// dictionary, indexed by code. The column must hold a row.
  static const uint8_t* Truth(Node& node, const ColumnRefs& columns);
  Operand Values(size_t id, const ColumnRefs& columns, size_t rows);
  static const data::Column& ColumnOf(const Node& node,
                                       const ColumnRefs& columns);

  std::vector<Node> nodes_;
  ColumnRefs chunk_columns_;
  size_t root_ = 0;
  std::vector<size_t> conjuncts_;  ///< Predicate kernels: root_'s conjuncts.
  bool boolean_ = false;
};

/// Columns referenced anywhere in the expression (deduplicated).
void CollectColumns(const Expr& expr, std::vector<std::string>* out);

/// Conservative check whether a row group with [min, max] on the predicate's
/// columns can contain matches; used for row-group pruning. Returns true
/// (keep) when unsure.
bool RangeMayMatch(const Expr& expr,
                   const std::function<bool(const std::string&, double*,
                                            double*)>& column_range);

}  // namespace skyrise::engine
