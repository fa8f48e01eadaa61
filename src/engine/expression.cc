#include "engine/expression.h"

#include <algorithm>
#include <functional>
#include <string_view>

namespace skyrise::engine {

namespace {

const char* KindName(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kColumn:
      return "column";
    case Expr::Kind::kNumber:
      return "number";
    case Expr::Kind::kString:
      return "string";
    case Expr::Kind::kCompare:
      return "compare";
    case Expr::Kind::kAnd:
      return "and";
    case Expr::Kind::kOr:
      return "or";
    case Expr::Kind::kArith:
      return "arith";
    case Expr::Kind::kBetween:
      return "between";
    case Expr::Kind::kInList:
      return "in";
    case Expr::Kind::kIndicator:
      return "indicator";
  }
  return "?";
}

Result<Expr::Kind> KindFromName(const std::string& name) {
  if (name == "column") return Expr::Kind::kColumn;
  if (name == "number") return Expr::Kind::kNumber;
  if (name == "string") return Expr::Kind::kString;
  if (name == "compare") return Expr::Kind::kCompare;
  if (name == "and") return Expr::Kind::kAnd;
  if (name == "or") return Expr::Kind::kOr;
  if (name == "arith") return Expr::Kind::kArith;
  if (name == "between") return Expr::Kind::kBetween;
  if (name == "in") return Expr::Kind::kInList;
  if (name == "indicator") return Expr::Kind::kIndicator;
  return Status::InvalidArgument("unknown expr kind: " + name);
}

std::shared_ptr<Expr> Make(Expr::Kind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}

Result<ExprKernel::CmpOp> ParseCompareOp(const std::string& op) {
  using CmpOp = ExprKernel::CmpOp;
  if (op == "<") return CmpOp::kLt;
  if (op == "<=") return CmpOp::kLe;
  if (op == ">") return CmpOp::kGt;
  if (op == ">=") return CmpOp::kGe;
  if (op == "==") return CmpOp::kEq;
  if (op == "!=") return CmpOp::kNe;
  return Status::InvalidArgument("unknown compare op: " + op);
}

Result<ExprKernel::ArithOp> ParseArithOp(const std::string& op) {
  using ArithOp = ExprKernel::ArithOp;
  if (op == "+") return ArithOp::kAdd;
  if (op == "-") return ArithOp::kSub;
  if (op == "*") return ArithOp::kMul;
  if (op == "/") return ArithOp::kDiv;
  return Status::InvalidArgument("unknown arith op: " + op);
}

Status CheckArity(const Expr& expr, size_t arity) {
  if (expr.children.size() == arity) return Status::OK();
  return Status::InvalidArgument(std::string(KindName(expr.kind)) +
                                 " needs " + std::to_string(arity) +
                                 " operands");
}

/// Operand count and operator of one node, as the kernels require them.
Status CheckShape(const Expr& expr) {
  using Kind = Expr::Kind;
  switch (expr.kind) {
    case Kind::kCompare:
      SKYRISE_RETURN_IF_ERROR(ParseCompareOp(expr.op).status());
      return CheckArity(expr, 2);
    case Kind::kArith:
      SKYRISE_RETURN_IF_ERROR(ParseArithOp(expr.op).status());
      return CheckArity(expr, 2);
    case Kind::kAnd:
    case Kind::kOr:
      return CheckArity(expr, 2);
    case Kind::kBetween:
      return CheckArity(expr, 3);
    case Kind::kInList:
    case Kind::kIndicator:
      return CheckArity(expr, 1);
    default:
      return CheckArity(expr, 0);
  }
}

}  // namespace

Json Expr::ToJson() const {
  Json out = Json::Object();
  out["kind"] = KindName(kind);
  switch (kind) {
    case Kind::kColumn:
      out["column"] = column;
      break;
    case Kind::kNumber:
      out["value"] = number;
      break;
    case Kind::kString:
      out["value"] = text;
      break;
    case Kind::kCompare:
    case Kind::kArith:
      out["op"] = op;
      break;
    case Kind::kInList: {
      Json values = Json::Array();
      for (const auto& v : in_list) values.Append(v);
      out["values"] = std::move(values);
      break;
    }
    default:
      break;
  }
  if (!children.empty()) {
    Json kids = Json::Array();
    for (const auto& child : children) kids.Append(child->ToJson());
    out["children"] = std::move(kids);
  }
  return out;
}

Result<ExprPtr> Expr::FromJson(const Json& json) {
  if (!json.is_object()) return Status::InvalidArgument("expr not an object");
  Expr::Kind kind;
  SKYRISE_ASSIGN_OR_RETURN(kind, KindFromName(json.GetString("kind")));
  auto e = Make(kind);
  e->column = json.GetString("column");
  e->op = json.GetString("op");
  if (kind == Kind::kNumber) e->number = json.GetDouble("value");
  if (kind == Kind::kString) e->text = json.GetString("value");
  if (json.Has("values")) {
    const Json& values = json.Get("values");
    if (!values.is_array()) {
      return Status::InvalidArgument("expr values is not an array");
    }
    for (const auto& v : values.AsArray()) {
      if (!v.is_string()) {
        return Status::InvalidArgument("expr values has a non-string element");
      }
      e->in_list.push_back(v.AsString());
    }
  }
  if (json.Has("children")) {
    const Json& children = json.Get("children");
    if (!children.is_array()) {
      return Status::InvalidArgument("expr children is not an array");
    }
    for (const auto& child : children.AsArray()) {
      ExprPtr parsed;
      SKYRISE_ASSIGN_OR_RETURN(parsed, FromJson(child));
      e->children.push_back(std::move(parsed));
    }
  }
  SKYRISE_RETURN_IF_ERROR(CheckShape(*e));
  return ExprPtr(e);
}

ExprPtr Col(const std::string& name) {
  auto e = Make(Expr::Kind::kColumn);
  e->column = name;
  return e;
}
ExprPtr Num(double value) {
  auto e = Make(Expr::Kind::kNumber);
  e->number = value;
  return e;
}
ExprPtr Str(const std::string& value) {
  auto e = Make(Expr::Kind::kString);
  e->text = value;
  return e;
}
ExprPtr Cmp(const std::string& op, ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kCompare);
  e->op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr And(ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kAnd);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr Or(ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kOr);
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr Arith(const std::string& op, ExprPtr lhs, ExprPtr rhs) {
  auto e = Make(Expr::Kind::kArith);
  e->op = op;
  e->children = {std::move(lhs), std::move(rhs)};
  return e;
}
ExprPtr Between(ExprPtr value, ExprPtr lo, ExprPtr hi) {
  auto e = Make(Expr::Kind::kBetween);
  e->children = {std::move(value), std::move(lo), std::move(hi)};
  return e;
}
ExprPtr InList(ExprPtr value, std::vector<std::string> values) {
  auto e = Make(Expr::Kind::kInList);
  e->children = {std::move(value)};
  e->in_list = std::move(values);
  return e;
}
ExprPtr Indicator(ExprPtr condition) {
  auto e = Make(Expr::Kind::kIndicator);
  e->children = {std::move(condition)};
  return e;
}

namespace {

/// Calls `f(i, l_i, r_i)` for each row, with the loop chosen once for
/// whether each side is a per-row vector or a constant.
template <typename Operand, typename F>
void ForEachPair(const Operand& l, const Operand& r, size_t rows, F f) {
  if (l.values != nullptr && r.values != nullptr) {
    for (size_t i = 0; i < rows; ++i) f(i, l.values[i], r.values[i]);
  } else if (l.values != nullptr) {
    const double c = r.constant;
    for (size_t i = 0; i < rows; ++i) f(i, l.values[i], c);
  } else if (r.values != nullptr) {
    const double c = l.constant;
    for (size_t i = 0; i < rows; ++i) f(i, c, r.values[i]);
  } else {
    for (size_t i = 0; i < rows; ++i) f(i, l.constant, r.constant);
  }
}

/// Calls `f` with the comparison functor for `op`, chosen once per node.
template <typename F>
void WithComparison(ExprKernel::CmpOp op, F f) {
  using CmpOp = ExprKernel::CmpOp;
  switch (op) {
    case CmpOp::kLt:
      return f(std::less<>());
    case CmpOp::kLe:
      return f(std::less_equal<>());
    case CmpOp::kGt:
      return f(std::greater<>());
    case CmpOp::kGe:
      return f(std::greater_equal<>());
    case CmpOp::kEq:
      return f(std::equal_to<>());
    case CmpOp::kNe:
      return f(std::not_equal_to<>());
  }
}

/// Writes `f(l_i, r_i)` for each row into `out`.
template <typename Operand, typename F>
void Combine(const Operand& l, const Operand& r, size_t rows, F f,
             double* out) {
  ForEachPair(l, r, rows,
              [out, f](size_t i, double a, double b) { out[i] = f(a, b); });
}

/// Per-row readers of a compare's operands, each giving the double that
/// ExprKernel::Values would hold for the row.
struct IntReader {
  const int64_t* ints;
  double operator()(uint32_t row) const {
    return static_cast<double>(ints[row]);
  }
};
struct DoubleReader {
  const double* doubles;
  double operator()(uint32_t row) const { return doubles[row]; }
};
struct ConstantReader {
  double value;
  double operator()(uint32_t) const { return value; }
};

/// Rewrites `selection` to the rows for which `holds(row)` is true, in
/// order: of every row in [0, rows) when `all`, else of its own rows.
template <typename Holds>
void KeepRows(bool all, size_t rows, std::vector<uint32_t>* selection,
              Holds holds) {
  size_t count = 0;
  if (all) {
    selection->resize(rows);
    uint32_t* out = selection->data();
    for (size_t i = 0; i < rows; ++i) {
      const auto row = static_cast<uint32_t>(i);
      out[count] = row;
      count += holds(row) ? 1 : 0;
    }
  } else {
    uint32_t* kept = selection->data();
    const size_t size = selection->size();
    for (size_t i = 0; i < size; ++i) {
      const uint32_t row = kept[i];
      kept[count] = row;
      count += holds(row) ? 1 : 0;
    }
  }
  selection->resize(count);
}

}  // namespace

Result<ExprKernel> ExprKernel::Predicate(const Expr& expr,
                                         const data::Schema& schema) {
  ExprKernel kernel;
  kernel.boolean_ = true;
  SKYRISE_ASSIGN_OR_RETURN(kernel.root_, kernel.CompileBool(expr, schema));
  kernel.SplitConjuncts(kernel.root_);
  return kernel;
}

Result<ExprKernel> ExprKernel::Numeric(const Expr& expr,
                                       const data::Schema& schema) {
  ExprKernel kernel;
  SKYRISE_ASSIGN_OR_RETURN(kernel.root_, kernel.CompileNumber(expr, schema));
  return kernel;
}

Status ExprKernel::CompileChildren(const Expr& expr,
                                   const data::Schema& schema, bool boolean,
                                   Node* node) {
  for (const auto& child : expr.children) {
    size_t id;
    SKYRISE_ASSIGN_OR_RETURN(id, boolean ? CompileBool(*child, schema)
                                         : CompileNumber(*child, schema));
    node->children.push_back(id);
  }
  return Status::OK();
}

size_t ExprKernel::Add(Node node) {
  nodes_.push_back(std::move(node));
  return nodes_.size() - 1;
}

void ExprKernel::SplitConjuncts(size_t id) {
  if (nodes_[id].op != Op::kAnd) {
    conjuncts_.push_back(id);
    return;
  }
  SplitConjuncts(nodes_[id].children[0]);
  SplitConjuncts(nodes_[id].children[1]);
}

Status ExprKernel::ResolveColumn(const std::string& name,
                                 const data::Schema& schema, Node* node) {
  const int idx = schema.FieldIndex(name);
  if (idx < 0) return Status::NotFound("no column: " + name);
  node->column = static_cast<size_t>(idx);
  node->type = schema.field(node->column).type;
  return Status::OK();
}

Result<size_t> ExprKernel::CompileBool(const Expr& expr,
                                       const data::Schema& schema) {
  using Kind = Expr::Kind;
  Node node;
  switch (expr.kind) {
    case Kind::kAnd:
    case Kind::kOr:
      SKYRISE_RETURN_IF_ERROR(CheckArity(expr, 2));
      node.op = expr.kind == Kind::kAnd ? Op::kAnd : Op::kOr;
      SKYRISE_RETURN_IF_ERROR(CompileChildren(expr, schema, true, &node));
      return Add(std::move(node));
    case Kind::kBetween:
      SKYRISE_RETURN_IF_ERROR(CheckArity(expr, 3));
      node.op = Op::kBetween;
      SKYRISE_RETURN_IF_ERROR(CompileChildren(expr, schema, false, &node));
      return Add(std::move(node));
    case Kind::kInList: {
      SKYRISE_RETURN_IF_ERROR(CheckArity(expr, 1));
      const Expr& target = *expr.children[0];
      if (target.kind != Kind::kColumn) {
        return Status::InvalidArgument("IN requires a column");
      }
      node.op = Op::kInList;
      SKYRISE_RETURN_IF_ERROR(ResolveColumn(target.column, schema, &node));
      if (node.type != data::DataType::kString) {
        return Status::InvalidArgument("IN requires a string column");
      }
      node.values = expr.in_list;
      std::sort(node.values.begin(), node.values.end());
      return Add(std::move(node));
    }
    case Kind::kCompare: {
      SKYRISE_RETURN_IF_ERROR(CheckArity(expr, 2));
      SKYRISE_ASSIGN_OR_RETURN(node.cmp, ParseCompareOp(expr.op));
      const Expr& lhs = *expr.children[0];
      const Expr& rhs = *expr.children[1];
      if (lhs.kind == Kind::kString || rhs.kind == Kind::kString) {
        if (lhs.kind != Kind::kColumn || rhs.kind != Kind::kString) {
          return Status::InvalidArgument(
              "string compare must be column <op> literal");
        }
        node.op = Op::kStringCompare;
        SKYRISE_RETURN_IF_ERROR(ResolveColumn(lhs.column, schema, &node));
        if (node.type != data::DataType::kString) {
          return Status::InvalidArgument("column is not a string: " +
                                         lhs.column);
        }
        node.text = rhs.text;
        return Add(std::move(node));
      }
      node.op = Op::kCompare;
      SKYRISE_RETURN_IF_ERROR(CompileChildren(expr, schema, false, &node));
      return Add(std::move(node));
    }
    default:
      return Status::InvalidArgument("expression is not boolean");
  }
}

Result<size_t> ExprKernel::CompileNumber(const Expr& expr,
                                         const data::Schema& schema) {
  using Kind = Expr::Kind;
  Node node;
  switch (expr.kind) {
    case Kind::kColumn:
      node.op = Op::kColumn;
      SKYRISE_RETURN_IF_ERROR(ResolveColumn(expr.column, schema, &node));
      if (node.type == data::DataType::kString) {
        return Status::InvalidArgument("column is not numeric: " +
                                       expr.column);
      }
      return Add(std::move(node));
    case Kind::kNumber:
      node.op = Op::kNumber;
      node.number = expr.number;
      return Add(std::move(node));
    case Kind::kArith: {
      SKYRISE_RETURN_IF_ERROR(CheckArity(expr, 2));
      node.op = Op::kArith;
      SKYRISE_ASSIGN_OR_RETURN(node.arith, ParseArithOp(expr.op));
      SKYRISE_RETURN_IF_ERROR(CompileChildren(expr, schema, false, &node));
      return Add(std::move(node));
    }
    case Kind::kIndicator: {
      SKYRISE_RETURN_IF_ERROR(CheckArity(expr, 1));
      node.op = Op::kIndicator;
      size_t id;
      SKYRISE_ASSIGN_OR_RETURN(id, CompileBool(*expr.children[0], schema));
      node.children.push_back(id);
      return Add(std::move(node));
    }
    default:
      return Status::InvalidArgument("expression is not numeric");
  }
}

const data::Column& ExprKernel::ColumnOf(const Node& node,
                                         const ColumnRefs& columns) {
  SKYRISE_CHECK(node.column < columns.size());
  const data::Column& col = *columns[node.column];
  SKYRISE_CHECK(col.type() == node.type);
  return col;
}

const uint8_t* ExprKernel::Mask(size_t id, const ColumnRefs& columns,
                                size_t rows) {
  Node& node = nodes_[id];
  node.mask.resize(rows);
  uint8_t* out = node.mask.data();
  switch (node.op) {
    case Op::kAnd:
    case Op::kOr: {
      const uint8_t* a = Mask(node.children[0], columns, rows);
      const uint8_t* b = Mask(node.children[1], columns, rows);
      if (node.op == Op::kAnd) {
        for (size_t i = 0; i < rows; ++i) out[i] = a[i] & b[i];
      } else {
        for (size_t i = 0; i < rows; ++i) out[i] = a[i] | b[i];
      }
      break;
    }
    case Op::kCompare: {
      const Operand l = Values(node.children[0], columns, rows);
      const Operand r = Values(node.children[1], columns, rows);
      WithComparison(node.cmp, [&](auto cmp) {
        ForEachPair(l, r, rows, [out, cmp](size_t i, double a, double b) {
          out[i] = cmp(a, b);
        });
      });
      break;
    }
    case Op::kBetween: {
      const Operand value = Values(node.children[0], columns, rows);
      const Operand lo = Values(node.children[1], columns, rows);
      const Operand hi = Values(node.children[2], columns, rows);
      ForEachPair(value, lo, rows, [out](size_t i, double v, double l) {
        out[i] = v >= l;
      });
      ForEachPair(value, hi, rows, [out](size_t i, double v, double h) {
        out[i] &= v <= h;
      });
      break;
    }
    case Op::kStringCompare:
    case Op::kInList: {
      if (rows == 0) break;
      const uint8_t* truth = Truth(node, columns);
      const uint32_t* codes = ColumnOf(node, columns).codes().data();
      for (size_t i = 0; i < rows; ++i) out[i] = truth[codes[i]];
      break;
    }
    default:
      SKYRISE_CHECK(false && "not a boolean node");
  }
  return out;
}

const uint8_t* ExprKernel::Truth(Node& node, const ColumnRefs& columns) {
  // Evaluated once per dictionary value, then looked up by code.
  return node.truth.Get(
      ColumnOf(node, columns).dict(), [&node](std::string_view value) {
        if (node.op == Op::kInList) {
          return static_cast<uint8_t>(std::binary_search(
              node.values.begin(), node.values.end(), value));
        }
        uint8_t holds = 0;
        WithComparison(node.cmp, [&](auto cmp) {
          holds = cmp(value.compare(node.text), 0);
        });
        return holds;
      });
}

void ExprKernel::Keep(size_t id, const ColumnRefs& columns, size_t rows,
                      bool all, std::vector<uint32_t>* selection) {
  Node& node = nodes_[id];
  auto is_operand = [this](size_t child) {
    return nodes_[child].op == Op::kColumn || nodes_[child].op == Op::kNumber;
  };
  // Calls `f` with a reader of operand `child`, read in place.
  auto with_reader = [&](size_t child, auto f) {
    const Node& operand = nodes_[child];
    if (operand.op == Op::kNumber) return f(ConstantReader{operand.number});
    const data::Column& col = ColumnOf(operand, columns);
    if (col.type() == data::DataType::kDouble) {
      return f(DoubleReader{col.doubles().data()});
    }
    return f(IntReader{col.ints().data()});
  };
  auto compare = [&](CmpOp op, size_t lhs, size_t rhs, bool from_all) {
    with_reader(lhs, [&](auto l) {
      with_reader(rhs, [&](auto r) {
        WithComparison(op, [&](auto cmp) {
          KeepRows(from_all, rows, selection,
                   [l, r, cmp](uint32_t row) { return cmp(l(row), r(row)); });
        });
      });
    });
  };
  switch (node.op) {
    case Op::kCompare:
      if (!is_operand(node.children[0]) || !is_operand(node.children[1])) {
        break;
      }
      compare(node.cmp, node.children[0], node.children[1], all);
      return;
    case Op::kBetween:
      if (!is_operand(node.children[0]) || !is_operand(node.children[1]) ||
          !is_operand(node.children[2])) {
        break;
      }
      compare(CmpOp::kGe, node.children[0], node.children[1], all);
      compare(CmpOp::kLe, node.children[0], node.children[2], false);
      return;
    case Op::kStringCompare:
    case Op::kInList: {
      const uint8_t* truth = Truth(node, columns);
      const uint32_t* codes = ColumnOf(node, columns).codes().data();
      KeepRows(all, rows, selection,
               [truth, codes](uint32_t row) { return truth[codes[row]]; });
      return;
    }
    default:
      break;
  }
  // OR, and compares over arithmetic: every row's mask.
  const uint8_t* mask = Mask(id, columns, rows);
  KeepRows(all, rows, selection, [mask](uint32_t row) { return mask[row]; });
}

ExprKernel::Operand ExprKernel::Values(size_t id, const ColumnRefs& columns,
                                       size_t rows) {
  Node& node = nodes_[id];
  switch (node.op) {
    case Op::kNumber:
      return Operand{nullptr, node.number};
    case Op::kColumn: {
      const data::Column& col = ColumnOf(node, columns);
      if (col.type() == data::DataType::kDouble) {
        return Operand{col.doubles().data(), 0};
      }
      node.numbers.resize(rows);
      const int64_t* ints = col.ints().data();
      for (size_t i = 0; i < rows; ++i) {
        node.numbers[i] = static_cast<double>(ints[i]);
      }
      break;
    }
    case Op::kArith: {
      const Operand l = Values(node.children[0], columns, rows);
      const Operand r = Values(node.children[1], columns, rows);
      node.numbers.resize(rows);
      double* out = node.numbers.data();
      switch (node.arith) {
        case ArithOp::kAdd:
          Combine(l, r, rows, std::plus<>(), out);
          break;
        case ArithOp::kSub:
          Combine(l, r, rows, std::minus<>(), out);
          break;
        case ArithOp::kMul:
          Combine(l, r, rows, std::multiplies<>(), out);
          break;
        case ArithOp::kDiv:
          Combine(l, r, rows,
                  [](double a, double b) { return b == 0 ? 0 : a / b; }, out);
          break;
      }
      break;
    }
    case Op::kIndicator: {
      const uint8_t* truth = Mask(node.children[0], columns, rows);
      node.numbers.resize(rows);
      for (size_t i = 0; i < rows; ++i) {
        node.numbers[i] = truth[i] ? 1.0 : 0.0;
      }
      break;
    }
    default:
      SKYRISE_CHECK(false && "not a numeric node");
  }
  return Operand{node.numbers.data(), 0};
}

const ExprKernel::ColumnRefs& ExprKernel::RefsOf(const data::Chunk& chunk) {
  SKYRISE_CHECK(!chunk.is_synthetic());
  chunk_columns_.clear();
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    chunk_columns_.push_back(&chunk.column(c));
  }
  return chunk_columns_;
}

void ExprKernel::Select(const data::Chunk& chunk, std::vector<uint32_t>* out) {
  Select(RefsOf(chunk), static_cast<size_t>(chunk.rows()), out);
}

void ExprKernel::Select(const ColumnRefs& columns, size_t rows,
                        std::vector<uint32_t>* out) {
  SKYRISE_CHECK(boolean_);
  out->clear();
  if (rows == 0) return;
  Keep(conjuncts_[0], columns, rows, /*all=*/true, out);
  for (size_t c = 1; c < conjuncts_.size() && !out->empty(); ++c) {
    Keep(conjuncts_[c], columns, rows, /*all=*/false, out);
  }
}

const double* ExprKernel::Evaluate(const data::Chunk& chunk) {
  SKYRISE_CHECK(!boolean_);
  const size_t rows = static_cast<size_t>(chunk.rows());
  const Operand result = Values(root_, RefsOf(chunk), rows);
  if (result.values != nullptr) return result.values;
  Node& root = nodes_[root_];
  root.numbers.assign(rows, result.constant);
  return root.numbers.data();
}

void CollectColumns(const Expr& expr, std::vector<std::string>* out) {
  if (expr.kind == Expr::Kind::kColumn) {
    if (std::find(out->begin(), out->end(), expr.column) == out->end()) {
      out->push_back(expr.column);
    }
  }
  for (const auto& child : expr.children) CollectColumns(*child, out);
}

bool RangeMayMatch(const Expr& expr,
                   const std::function<bool(const std::string&, double*,
                                            double*)>& column_range) {
  using Kind = Expr::Kind;
  switch (expr.kind) {
    case Kind::kAnd:
      return RangeMayMatch(*expr.children[0], column_range) &&
             RangeMayMatch(*expr.children[1], column_range);
    case Kind::kOr:
      return RangeMayMatch(*expr.children[0], column_range) ||
             RangeMayMatch(*expr.children[1], column_range);
    case Kind::kBetween: {
      const Expr& target = *expr.children[0];
      if (target.kind != Kind::kColumn ||
          expr.children[1]->kind != Kind::kNumber ||
          expr.children[2]->kind != Kind::kNumber) {
        return true;
      }
      double min, max;
      if (!column_range(target.column, &min, &max)) return true;
      return max >= expr.children[1]->number &&
             min <= expr.children[2]->number;
    }
    case Kind::kCompare: {
      const Expr& lhs = *expr.children[0];
      const Expr& rhs = *expr.children[1];
      if (lhs.kind != Kind::kColumn || rhs.kind != Kind::kNumber) return true;
      double min, max;
      if (!column_range(lhs.column, &min, &max)) return true;
      const double v = rhs.number;
      if (expr.op == "<") return min < v;
      if (expr.op == "<=") return min <= v;
      if (expr.op == ">") return max > v;
      if (expr.op == ">=") return max >= v;
      if (expr.op == "==") return min <= v && v <= max;
      return true;
    }
    default:
      return true;
  }
}

}  // namespace skyrise::engine
