#include "engine/executor.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>

namespace skyrise::engine {

namespace {

using data::Chunk;
using data::Column;
using data::DataType;
using data::Schema;

// --- Keys. ---
//
// Hash aggregation, the hash join and hash partitioning key each row by the
// typed values of its key columns. The text rows were once keyed by still
// defines three outputs: the order aggregate groups are emitted in, the
// partition a row goes to (FNV-1a of the text, modulo the partition count),
// and the bytes the MemoryTracker charges per group and per build row. That
// text holds each key value (a string's bytes, an int or date in decimal, a
// double as "%.17g") followed by 0x1F. EncodeKeyText streams it to a hasher,
// a length counter or a string; only aggregation builds the string, once per
// group.

/// Feeds the key text of `col`'s value at `row` to `sink(data, size)`.
template <typename Sink>
void EncodeKeyText(const Column& col, size_t row, Sink&& sink) {
  char buf[32];
  switch (col.type()) {
    case DataType::kString: {
      const std::string_view value = col.strings()[row];
      sink(value.data(), value.size());
      break;
    }
    case DataType::kDouble: {
      const int n =
          std::snprintf(buf, sizeof(buf), "%.17g", col.doubles()[row]);
      sink(buf, static_cast<size_t>(n));
      break;
    }
    default: {
      const char* end =
          std::to_chars(buf, buf + sizeof(buf), col.ints()[row]).ptr;
      sink(buf, static_cast<size_t>(end - buf));
    }
  }
  sink("\x1f", 1);
}

/// The key text of `row` over the key columns `keys`.
std::string KeyText(const Chunk& chunk, const std::vector<int>& keys,
                    size_t row) {
  std::string text;
  for (int k : keys) {
    EncodeKeyText(chunk.column(static_cast<size_t>(k)), row,
                  [&text](const char* data, size_t size) {
                    text.append(data, size);
                  });
  }
  return text;
}

/// KeyText(chunk, keys, row).size(), without building the text.
int64_t KeyTextLength(const Chunk& chunk, const std::vector<int>& keys,
                      size_t row) {
  size_t length = 0;
  for (int k : keys) {
    EncodeKeyText(chunk.column(static_cast<size_t>(k)), row,
                  [&length](const char*, size_t size) { length += size; });
  }
  return static_cast<int64_t>(length);
}

/// FNV-1a of every row's key text, computed one key column at a time.
void FnvKeyText(const Chunk& chunk, const std::vector<int>& keys,
                std::vector<uint64_t>* out) {
  const size_t rows = static_cast<size_t>(chunk.rows());
  out->assign(rows, 1469598103934665603ULL);
  uint64_t* hashes = out->data();
  for (int k : keys) {
    const Column& col = chunk.column(static_cast<size_t>(k));
    for (size_t row = 0; row < rows; ++row) {
      uint64_t h = hashes[row];
      EncodeKeyText(col, row, [&h](const char* data, size_t size) {
        for (size_t i = 0; i < size; ++i) {
          h ^= static_cast<unsigned char>(data[i]);
          h *= 1099511628211ULL;
        }
      });
      hashes[row] = h;
    }
  }
}

/// Key values of one kind hash and compare alike: ints and dates share the
/// int64 vector, and doubles compare as their "%.17g" text does, so -0.0
/// differs from 0.0 and all NaNs of one sign are equal.
enum class KeyKind { kInt, kDouble, kString };

KeyKind KindOf(DataType type) {
  switch (type) {
    case DataType::kDouble:
      return KeyKind::kDouble;
    case DataType::kString:
      return KeyKind::kString;
    default:
      return KeyKind::kInt;
  }
}

uint64_t DoubleKeyBits(double value) {
  if (std::isnan(value)) {
    return std::signbit(value) ? 0xFFF8000000000000ULL : 0x7FF8000000000000ULL;
  }
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t Mix(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// A row's key hash `h` so far, folded with its next key value's hash.
uint64_t FoldKeyHash(uint64_t h, uint64_t value_hash) {
  return Mix(h ^ (value_hash + 0x9e3779b97f4a7c15ULL + (h << 6)));
}

/// Hashes every row's typed key values, one key column at a time. A string
/// value's hash is computed once per dictionary value and kept for the next
/// chunk over the same dictionary.
class KeyHasher {
 public:
  void Hash(const Chunk& chunk, const std::vector<int>& keys,
            std::vector<uint64_t>* out) {
    const size_t rows = static_cast<size_t>(chunk.rows());
    out->assign(rows, 0);
    if (rows == 0) return;
    uint64_t* hashes = out->data();
    auto fold = [hashes, rows](auto value_hash) {
      for (size_t row = 0; row < rows; ++row) {
        hashes[row] = FoldKeyHash(hashes[row], value_hash(row));
      }
    };
    string_hashes_.resize(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
      const Column& col = chunk.column(static_cast<size_t>(keys[k]));
      switch (KindOf(col.type())) {
        case KeyKind::kString: {
          const uint64_t* value_hashes = string_hashes_[k].Get(
              col.dict(), std::hash<std::string_view>());
          const uint32_t* codes = col.codes().data();
          fold([value_hashes, codes](size_t row) {
            return value_hashes[codes[row]];
          });
          break;
        }
        case KeyKind::kDouble:
          fold([&col](size_t row) {
            return DoubleKeyBits(col.doubles()[row]);
          });
          break;
        case KeyKind::kInt:
          fold([&col](size_t row) {
            return static_cast<uint64_t>(col.ints()[row]);
          });
          break;
      }
    }
  }

  /// The hash Hash gives `row` of `chunk`, whose keys are all strings.
  static uint64_t HashStringRow(const Chunk& chunk,
                                const std::vector<int>& keys, size_t row) {
    uint64_t h = 0;
    for (int k : keys) {
      const std::string_view value =
          chunk.column(static_cast<size_t>(k)).strings()[row];
      h = FoldKeyHash(h, std::hash<std::string_view>()(value));
    }
    return h;
  }

 private:
  std::vector<data::DictMemo<uint64_t>> string_hashes_;  ///< Per key.
};

/// Whether row `ra` of `a` over `a_keys` and row `rb` of `b` over `b_keys`
/// hold equal keys. Paired key columns must be of one KeyKind.
bool SameKey(const Chunk& a, const std::vector<int>& a_keys, size_t ra,
             const Chunk& b, const std::vector<int>& b_keys, size_t rb) {
  for (size_t k = 0; k < a_keys.size(); ++k) {
    const Column& x = a.column(static_cast<size_t>(a_keys[k]));
    const Column& y = b.column(static_cast<size_t>(b_keys[k]));
    bool same;
    switch (KindOf(x.type())) {
      case KeyKind::kString:
        same = (x.dict() == y.dict() && x.codes()[ra] == y.codes()[rb]) ||
               x.strings()[ra] == y.strings()[rb];
        break;
      case KeyKind::kDouble:
        same = DoubleKeyBits(x.doubles()[ra]) == DoubleKeyBits(y.doubles()[rb]);
        break;
      default:
        same = x.ints()[ra] == y.ints()[rb];
    }
    if (!same) return false;
  }
  return true;
}

/// Open-addressing index from a key hash to a dense entry id. The keys live
/// in columns, so each lookup supplies `same(id)` to compare against one.
class KeyIndex {
 public:
  enum : uint32_t { kAbsent = std::numeric_limits<uint32_t>::max() };

  /// The id whose key `same(id)` reports equal, or kAbsent.
  template <typename Same>
  uint32_t Find(uint64_t hash, Same same) const {
    return ids_.empty() ? kAbsent : ids_[Probe(hash, same)];
  }

  /// Find(), or else records `id` under `hash` and returns it.
  template <typename Same>
  uint32_t FindOrAdd(uint64_t hash, uint32_t id, Same same) {
    if (2 * (size_ + 1) > ids_.size()) Grow();
    const size_t slot = Probe(hash, same);
    if (ids_[slot] != kAbsent) return ids_[slot];
    ids_[slot] = id;
    hashes_[slot] = hash;
    ++size_;
    return id;
  }

 private:
  /// The slot holding the key `same` recognises, else the empty slot that
  /// ends its probe sequence. The table is never full.
  template <typename Same>
  size_t Probe(uint64_t hash, Same same) const {
    const size_t mask = ids_.size() - 1;
    size_t slot = hash & mask;
    while (ids_[slot] != kAbsent &&
           !(hashes_[slot] == hash && same(ids_[slot]))) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void Grow() {
    std::vector<uint32_t> ids = std::move(ids_);
    std::vector<uint64_t> hashes = std::move(hashes_);
    ids_.assign(std::max<size_t>(16, 2 * ids.size()), kAbsent);
    hashes_.assign(ids_.size(), 0);
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == kAbsent) continue;
      const size_t slot = Probe(hashes[i], [](uint32_t) { return false; });
      ids_[slot] = ids[i];
      hashes_[slot] = hashes[i];
    }
  }

  std::vector<uint32_t> ids_;
  std::vector<uint64_t> hashes_;
  size_t size_ = 0;
};

enum class AggFunc : uint8_t { kSum, kCount, kMin, kMax };

Result<AggFunc> ParseAggFunc(const std::string& func) {
  if (func == "sum") return AggFunc::kSum;
  if (func == "count") return AggFunc::kCount;
  if (func == "min") return AggFunc::kMin;
  if (func == "max") return AggFunc::kMax;
  return Status::InvalidArgument("unknown aggregate: " + func);
}

Result<std::vector<int>> ResolveColumns(const Schema& schema,
                                        const std::vector<std::string>& names) {
  std::vector<int> out;
  for (const auto& name : names) {
    const int idx = schema.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no column: " + name);
    out.push_back(idx);
  }
  return out;
}

// --- Per-operator schema propagation. ---

Result<Schema> ProjectSchema(const OperatorSpec& op, const Schema& in) {
  std::vector<data::Field> fields;
  for (const auto& [name, expr] : op.projections) {
    if (expr->kind == Expr::Kind::kColumn) {
      const int idx = in.FieldIndex(expr->column);
      if (idx < 0) return Status::NotFound("no column: " + expr->column);
      fields.push_back(data::Field{name, in.field(static_cast<size_t>(idx)).type});
    } else {
      fields.push_back(data::Field{name, DataType::kDouble});
    }
  }
  return Schema(std::move(fields));
}

Result<Schema> AggSchema(const OperatorSpec& op, const Schema& in) {
  std::vector<data::Field> fields;
  for (const auto& name : op.group_by) {
    const int idx = in.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no group column: " + name);
    fields.push_back(in.field(static_cast<size_t>(idx)));
  }
  for (const auto& agg : op.aggregates) {
    AggFunc func;
    SKYRISE_ASSIGN_OR_RETURN(func, ParseAggFunc(agg.func));
    if (func != AggFunc::kCount && agg.expr == nullptr) {
      return Status::InvalidArgument(agg.func + " needs an argument");
    }
    fields.push_back(data::Field{
        agg.as,
        func == AggFunc::kCount ? DataType::kInt64 : DataType::kDouble});
  }
  return Schema(std::move(fields));
}

Result<Schema> JoinSchema(const OperatorSpec& op, const Schema& probe,
                          const Schema& build) {
  std::vector<data::Field> fields = probe.fields();
  for (const auto& name : op.build_columns) {
    const int idx = build.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no build column: " + name);
    fields.push_back(build.field(static_cast<size_t>(idx)));
  }
  return Schema(std::move(fields));
}

Schema SessionizeSchema() {
  return Schema({{"item_sk", DataType::kInt64}});
}

// --- Whole-input operator kernels. ---

Result<Chunk> ApplySort(const OperatorSpec& op, Chunk&& in,
                        CostAccumulator* cost) {
  const double n = static_cast<double>(std::max<int64_t>(in.rows(), 1));
  cost->AddNs(n * std::log2(n + 1) * cost->model().sort_ns_per_row_log);
  if (in.is_synthetic()) return std::move(in);
  std::vector<int> key_indices;
  SKYRISE_ASSIGN_OR_RETURN(key_indices,
                           ResolveColumns(in.schema(), op.sort_keys));
  std::vector<uint32_t> order(static_cast<size_t>(in.rows()));
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_indices.size(); ++k) {
      const Column& col = in.column(static_cast<size_t>(key_indices[k]));
      const bool asc =
          k < op.sort_ascending.size() ? op.sort_ascending[k] : true;
      int cmp = 0;
      switch (col.type()) {
        case DataType::kString:
          cmp = col.strings()[a].compare(col.strings()[b]);
          break;
        case DataType::kDouble:
          cmp = col.doubles()[a] < col.doubles()[b]
                    ? -1
                    : (col.doubles()[a] > col.doubles()[b] ? 1 : 0);
          break;
        default:
          cmp = col.ints()[a] < col.ints()[b]
                    ? -1
                    : (col.ints()[a] > col.ints()[b] ? 1 : 0);
      }
      if (cmp != 0) return asc ? cmp < 0 : cmp > 0;
    }
    return false;
  });
  std::vector<Column> columns;
  for (size_t c = 0; c < in.num_columns(); ++c) {
    columns.push_back(in.column(c).Filter(order));
  }
  return Chunk(in.schema(), std::move(columns));
}

/// TPCx-BB Q3 style sessionization UDF: for every purchase of an item in the
/// target category, emit the same-category items the user viewed within the
/// preceding window. Requires columns: wcs_click_date, wcs_user_sk,
/// wcs_item_sk, wcs_sales_sk, i_category_id.
Result<Chunk> ApplySessionize(const OperatorSpec& op, Chunk&& in,
                              CostAccumulator* cost) {
  cost->AddNs(static_cast<double>(in.rows()) * cost->model().udf_ns_per_row);
  const Schema out_schema = SessionizeSchema();
  if (in.is_synthetic()) {
    return Chunk::Synthetic(out_schema,
                            static_cast<int64_t>(std::llround(
                                static_cast<double>(in.rows()) *
                                op.udf_output_ratio)));
  }
  std::vector<int> indices;
  SKYRISE_ASSIGN_OR_RETURN(
      indices,
      ResolveColumns(in.schema(), {"wcs_click_date", "wcs_user_sk",
                                   "wcs_item_sk", "wcs_sales_sk",
                                   "i_category_id"}));
  const auto& date = in.column(static_cast<size_t>(indices[0])).ints();
  const auto& user = in.column(static_cast<size_t>(indices[1])).ints();
  const auto& item = in.column(static_cast<size_t>(indices[2])).ints();
  const auto& sale = in.column(static_cast<size_t>(indices[3])).ints();
  const auto& category = in.column(static_cast<size_t>(indices[4])).ints();

  // Each user's clicks by date, users ascending; ties keep row order.
  std::vector<uint32_t> order(static_cast<size_t>(in.rows()));
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (user[a] != user[b]) return user[a] < user[b];
    return date[a] < date[b];
  });
  Chunk out = Chunk::Empty(out_schema);
  auto& out_items = out.column(0).ints();
  for (size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    end = begin + 1;
    while (end < order.size() && user[order[end]] == user[order[begin]]) {
      ++end;
    }
    for (size_t i = begin; i < end; ++i) {
      const uint32_t purchase = order[i];
      if (sale[purchase] <= 0 || category[purchase] != op.target_category) {
        continue;
      }
      // Views on strictly earlier days within the window. Day-granular
      // semantics keep the result independent of intra-day row order, which
      // is arbitrary after a shuffle.
      for (size_t j = begin; j < end; ++j) {
        const uint32_t view = order[j];
        if (sale[view] != 0) continue;
        if (category[view] != op.target_category) continue;
        const int64_t gap = date[purchase] - date[view];
        if (gap < 1 || gap > op.session_window_days) continue;
        out_items.push_back(item[view]);
      }
    }
  }
  return out;
}

// --- Streaming operator states. ---
//
// Each operator in the chain is an OperatorState: Push() consumes one morsel
// and either returns the transformed morsel (streaming operators) or absorbs
// it into accumulated state (pipeline breakers and sinks, which return
// nullopt). Flush() emits a breaker's accumulated result at end-of-stream.
// StateBytes() reports accumulated-state size for the MemoryTracker.

class OperatorState {
 public:
  virtual ~OperatorState() = default;
  [[nodiscard]] virtual Result<std::optional<Chunk>> Push(Chunk&& in) = 0;
  [[nodiscard]] virtual Result<std::optional<Chunk>> Flush() {
    return std::optional<Chunk>();
  }
  virtual bool is_sink() const { return false; }
  virtual std::vector<FragmentOutput> TakeOutputs() { return {}; }
  virtual int64_t StateBytes() const { return 0; }
};

/// Streaming filter: the shared FilterKernel, whose output chunks and
/// selection vector are reused across morsels.
class FilterOp final : public OperatorState {
 public:
  FilterOp(const OperatorSpec& op, CostAccumulator* cost,
           data::ChunkPool* pool)
      : filter_(op.predicate, op.selectivity, cost, pool) {}
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    Chunk out;
    SKYRISE_ASSIGN_OR_RETURN(out, filter_.Apply(std::move(in)));
    return std::optional<Chunk>(std::move(out));
  }

 private:
  FilterKernel filter_;
};

/// Streaming projection that moves pass-through columns out of the input
/// instead of copying them; only computed expressions materialize new
/// buffers. Expressions are evaluated before any column is moved, since they
/// may read columns the projection also passes through.
class ProjectOp final : public OperatorState {
 public:
  ProjectOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    if (!resolved_) {
      SKYRISE_ASSIGN_OR_RETURN(out_schema_, ProjectSchema(op_, in.schema()));
      for (const auto& [name, expr] : op_.projections) {
        sources_.push_back(expr->kind == Expr::Kind::kColumn
                               ? in.schema().FieldIndex(expr->column)
                               : -1);
      }
      resolved_ = true;
    }
    cost_->AddNs(static_cast<double>(in.rows()) *
                 static_cast<double>(op_.projections.size()) *
                 cost_->model().project_ns_per_row_col);
    if (in.is_synthetic()) {
      return std::optional<Chunk>(Chunk::Synthetic(out_schema_, in.rows()));
    }
    if (!compiled_) {
      for (const auto& [name, expr] : op_.projections) {
        if (expr->kind == Expr::Kind::kColumn) continue;
        ExprKernel kernel;
        SKYRISE_ASSIGN_OR_RETURN(kernel,
                                 ExprKernel::Numeric(*expr, in.schema()));
        kernels_.push_back(std::move(kernel));
      }
      compiled_ = true;
    }
    const size_t rows = static_cast<size_t>(in.rows());
    std::vector<Column> computed;
    for (ExprKernel& kernel : kernels_) {
      Column col(DataType::kDouble);
      const double* values = kernel.Evaluate(in);
      col.doubles().assign(values, values + rows);
      computed.push_back(std::move(col));
    }
    std::vector<Column> columns;
    columns.reserve(op_.projections.size());
    moved_to_.assign(in.num_columns(), -1);
    size_t next_computed = 0;
    for (int source : sources_) {
      if (source < 0) {
        columns.push_back(std::move(computed[next_computed++]));
        continue;
      }
      const size_t idx = static_cast<size_t>(source);
      if (moved_to_[idx] >= 0) {
        // Duplicate reference: copy from the already-built output column,
        // never from the moved-from input.
        columns.push_back(columns[static_cast<size_t>(moved_to_[idx])]);
      } else {
        moved_to_[idx] = static_cast<int>(columns.size());
        columns.push_back(std::move(in.column(idx)));
      }
    }
    return std::optional<Chunk>(Chunk(out_schema_, std::move(columns)));
  }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  bool resolved_ = false;
  bool compiled_ = false;
  Schema out_schema_;
  std::vector<int> sources_;  ///< Input column per projection; -1: computed.
  std::vector<ExprKernel> kernels_;  ///< One per computed projection.
  std::vector<int> moved_to_;
};

/// Pipeline breaker: accumulates group states across morsels in row order
/// (so floating-point accumulation matches the materialized path bit for
/// bit) and emits the groups in key-text order on Flush(). Each morsel runs
/// one loop per key column to hash, one lookup per row, and one loop per
/// aggregate; a no-key aggregate is a single group and needs no lookup.
/// Keys that are all dictionary-coded strings, with at most kDenseSlots
/// tuples of codes, find their group by code in a dense table instead: only
/// a tuple's first row is hashed and looked up, so groups open at the rows
/// and in the order the hashed lookup opens them.
class AggOp final : public OperatorState {
 public:
  AggOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    cost_->AddNs(static_cast<double>(in.rows()) *
                 cost_->model().agg_ns_per_row);
    if (!resolved_) {
      SKYRISE_ASSIGN_OR_RETURN(out_schema_, AggSchema(op_, in.schema()));
      SKYRISE_ASSIGN_OR_RETURN(group_indices_,
                               ResolveColumns(in.schema(), op_.group_by));
      std::vector<data::Field> key_fields;
      for (int idx : group_indices_) {
        key_fields.push_back(in.schema().field(static_cast<size_t>(idx)));
        key_columns_.push_back(static_cast<int>(key_columns_.size()));
      }
      key_chunk_ = Chunk::Empty(Schema(std::move(key_fields)));
      for (const auto& agg : op_.aggregates) {
        funcs_.push_back(ParseAggFunc(agg.func).ValueOrDie());
      }
      resolved_ = true;
    }
    if (in.is_synthetic()) {
      synthetic_result_ =
          Chunk::Synthetic(out_schema_, std::min(in.rows(), op_.groups_hint));
      return std::optional<Chunk>();
    }
    if (!compiled_) {
      for (const auto& agg : op_.aggregates) {
        std::optional<ExprKernel> kernel;
        if (agg.expr != nullptr) {
          SKYRISE_ASSIGN_OR_RETURN(kernel,
                                   ExprKernel::Numeric(*agg.expr, in.schema()));
        }
        arguments_.push_back(std::move(kernel));
      }
      compiled_ = true;
    }
    const size_t rows = static_cast<size_t>(in.rows());
    if (rows == 0) return std::optional<Chunk>();
    if (group_indices_.empty()) {
      if (groups_ == 0) AddGroup(in, 0);
      for (size_t a = 0; a < funcs_.size(); ++a) {
        Accumulate(a, in, rows, [](size_t) { return size_t{0}; });
      }
      return std::optional<Chunk>();
    }
    group_of_.resize(rows);
    if (LayOutDense(in)) {
      GroupByCodes(in, rows);
    } else {
      hasher_.Hash(in, group_indices_, &hashes_);
      for (size_t row = 0; row < rows; ++row) {
        group_of_[row] = FindOrAddGroup(in, row, hashes_[row]);
      }
    }
    for (size_t a = 0; a < funcs_.size(); ++a) {
      Accumulate(a, in, rows, [this](size_t row) {
        return static_cast<size_t>(group_of_[row]);
      });
    }
    return std::optional<Chunk>();
  }

  Result<std::optional<Chunk>> Flush() override {
    state_bytes_ = 0;
    if (synthetic_result_.has_value()) {
      return std::optional<Chunk>(std::move(*synthetic_result_));
    }
    if (!resolved_) return std::optional<Chunk>();
    // Deterministic output order: ascending key text. Distinct typed keys
    // can share a text only through a 0x1F inside a string; those keep
    // insertion order.
    std::vector<uint32_t> order(groups_);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return key_texts_[a] < key_texts_[b];
    });
    Chunk out = Chunk::Empty(out_schema_);
    for (size_t g = 0; g < group_indices_.size(); ++g) {
      out.column(g).AppendRows(key_chunk_.column(g), order.data(),
                               order.size());
    }
    const size_t stride = funcs_.size();
    for (size_t a = 0; a < stride; ++a) {
      Column& col = out.column(group_indices_.size() + a);
      for (uint32_t group : order) {
        const double value = accumulators_[group * stride + a];
        if (funcs_[a] == AggFunc::kCount) {
          col.AppendInt(static_cast<int64_t>(std::llround(value)));
        } else {
          col.AppendDouble(value);
        }
      }
    }
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  /// Caps of dense grouping: tuples of codes, and key columns.
  enum : uint32_t { kDenseSlots = 4096, kDenseKeys = 4 };

  /// The dictionary a key's codes index dense_ by, as it was when dense_
  /// was laid out.
  struct DenseKey {
    std::weak_ptr<data::StringDict> dict;
    uint64_t refills = 0;
    uint32_t size = 0;
  };

  /// The group of `row` of `in`, whose key hash is `hash`: an existing one
  /// with an equal key, or a new one.
  uint32_t FindOrAddGroup(const Chunk& in, size_t row, uint64_t hash) {
    const uint32_t group = index_.FindOrAdd(hash, groups_, [&](uint32_t id) {
      return SameKey(in, group_indices_, row, key_chunk_, key_columns_, id);
    });
    if (group == groups_) AddGroup(in, row);
    return group;
  }

  /// Whether `in`'s keys can find their groups in dense_: every key is a
  /// string and the product of their dictionary sizes is at most
  /// kDenseSlots. Empties dense_ unless each key's dictionary is the one,
  /// with the refill count and size, it was laid out for.
  bool LayOutDense(const Chunk& in) {
    if (group_indices_.size() > kDenseKeys) return false;
    uint32_t slots = 1;
    for (int k : group_indices_) {
      const Column& col = in.column(static_cast<size_t>(k));
      if (col.type() != DataType::kString ||
          col.dict()->size() > kDenseSlots / slots) {
        return false;
      }
      slots *= col.dict()->size();
    }
    bool stale = dense_keys_.size() != group_indices_.size();
    dense_keys_.resize(group_indices_.size());
    for (size_t k = 0; k < group_indices_.size(); ++k) {
      const auto& dict =
          in.column(static_cast<size_t>(group_indices_[k])).dict();
      DenseKey& key = dense_keys_[k];
      if (key.dict.owner_before(dict) || dict.owner_before(key.dict) ||
          key.refills != dict->refills() || key.size != dict->size()) {
        key = DenseKey{dict, dict->refills(), dict->size()};
        stale = true;
      }
    }
    if (stale) dense_.assign(slots, KeyIndex::kAbsent);
    return true;
  }

  /// Fills group_of_ through dense_, laid out for `in` by LayOutDense: a
  /// row's slot is its codes, the first key varying fastest.
  void GroupByCodes(const Chunk& in, size_t rows) {
    uint32_t* slot = group_of_.data();
    uint32_t stride = 1;
    for (size_t k = 0; k < group_indices_.size(); ++k) {
      const uint32_t* codes =
          in.column(static_cast<size_t>(group_indices_[k])).codes().data();
      if (k == 0) {
        std::copy(codes, codes + rows, slot);
      } else {
        for (size_t row = 0; row < rows; ++row) {
          slot[row] += stride * codes[row];
        }
      }
      stride *= dense_keys_[k].size;
    }
    for (size_t row = 0; row < rows; ++row) {
      uint32_t& group = dense_[slot[row]];
      if (group == KeyIndex::kAbsent) {
        group = FindOrAddGroup(
            in, row, KeyHasher::HashStringRow(in, group_indices_, row));
      }
      slot[row] = group;
    }
  }

  /// Opens a group keyed by `row` of `in`, charging its key text, a fixed
  /// overhead and one double per aggregate.
  void AddGroup(const Chunk& in, size_t row) {
    for (size_t g = 0; g < group_indices_.size(); ++g) {
      key_chunk_.column(g).AppendFrom(
          in.column(static_cast<size_t>(group_indices_[g])), row);
    }
    key_texts_.push_back(KeyText(in, group_indices_, row));
    state_bytes_ += static_cast<int64_t>(key_texts_.back().size()) + 48 +
                    8 * static_cast<int64_t>(funcs_.size());
    for (AggFunc func : funcs_) {
      accumulators_.push_back(func == AggFunc::kMin
                                  ? std::numeric_limits<double>::infinity()
                              : func == AggFunc::kMax
                                  ? -std::numeric_limits<double>::infinity()
                                  : 0);
    }
    ++groups_;
  }

  /// Folds aggregate `a` over the morsel's rows, in row order.
  template <typename GroupOf>
  void Accumulate(size_t a, const Chunk& in, size_t rows, GroupOf group_of) {
    const size_t stride = funcs_.size();
    double* acc = accumulators_.data() + a;
    if (funcs_[a] == AggFunc::kCount) {
      for (size_t row = 0; row < rows; ++row) acc[group_of(row) * stride] += 1;
      return;
    }
    const double* v = arguments_[a]->Evaluate(in);
    switch (funcs_[a]) {
      case AggFunc::kSum:
        for (size_t row = 0; row < rows; ++row) {
          acc[group_of(row) * stride] += v[row];
        }
        break;
      case AggFunc::kMin:
        for (size_t row = 0; row < rows; ++row) {
          double& slot = acc[group_of(row) * stride];
          slot = std::min(slot, v[row]);
        }
        break;
      case AggFunc::kMax:
        for (size_t row = 0; row < rows; ++row) {
          double& slot = acc[group_of(row) * stride];
          slot = std::max(slot, v[row]);
        }
        break;
      case AggFunc::kCount:
        break;
    }
  }

  const OperatorSpec& op_;
  CostAccumulator* cost_;
  bool resolved_ = false;
  bool compiled_ = false;
  Schema out_schema_;
  std::vector<int> group_indices_;
  std::vector<int> key_columns_;  ///< 0..k-1: key_chunk_'s key columns.
  std::vector<AggFunc> funcs_;
  std::vector<std::optional<ExprKernel>> arguments_;  ///< Per aggregate.
  Chunk key_chunk_;  ///< One row per group, insertion order.
  std::vector<std::string> key_texts_;  ///< Per group.
  std::vector<double> accumulators_;    ///< Group-major, one per aggregate.
  uint32_t groups_ = 0;
  KeyIndex index_;
  KeyHasher hasher_;
  std::vector<DenseKey> dense_keys_;
  /// Group per tuple of key codes, or kAbsent until the tuple's first row.
  std::vector<uint32_t> dense_;
  std::vector<uint64_t> hashes_;     ///< Scratch: per-row key hash.
  std::vector<uint32_t> group_of_;   ///< Scratch: per-row group.
  std::optional<Chunk> synthetic_result_;
  int64_t state_bytes_ = 0;
};

/// Streaming probe over a build table constructed once on the first morsel.
/// The build side is a pipeline breaker by construction (it arrives fully
/// materialized); the probe side streams. Each probe morsel hashes its keys
/// one column at a time, collects (probe row, build row) pairs, and gathers
/// the output column by column.
class JoinOp final : public OperatorState {
 public:
  JoinOp(const OperatorSpec& op, const Chunk* build, CostAccumulator* cost,
         data::ChunkPool* pool)
      : op_(op), build_(build), cost_(cost), pool_(pool) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    if (!resolved_) {
      SKYRISE_ASSIGN_OR_RETURN(out_schema_,
                               JoinSchema(op_, in.schema(), build_->schema()));
      SKYRISE_ASSIGN_OR_RETURN(probe_indices_,
                               ResolveColumns(in.schema(), op_.probe_keys));
      resolved_ = true;
    }
    if (!build_charged_) {
      cost_->AddNs(static_cast<double>(build_->rows()) *
                   cost_->model().join_build_ns_per_row);
      build_charged_ = true;
    }
    cost_->AddNs(static_cast<double>(in.rows()) *
                 cost_->model().join_probe_ns_per_row);
    if (in.is_synthetic() || build_->is_synthetic()) {
      return std::optional<Chunk>(Chunk::Synthetic(
          out_schema_, static_cast<int64_t>(std::llround(
                           static_cast<double>(in.rows()) *
                           op_.join_multiplier))));
    }
    if (!table_built_) SKYRISE_RETURN_IF_ERROR(BuildTable(in.schema()));
    hasher_.Hash(in, probe_indices_, &hashes_);
    probe_rows_.clear();
    build_rows_.clear();
    const size_t probe_rows = static_cast<size_t>(in.rows());
    for (size_t row = 0; row < probe_rows; ++row) {
      const uint32_t group = index_.Find(hashes_[row], [&](uint32_t id) {
        return SameKey(in, probe_indices_, row, *build_, build_indices_,
                       matches_[match_begin_[id]]);
      });
      if (group == KeyIndex::kAbsent) continue;
      for (uint32_t m = match_begin_[group]; m < match_begin_[group + 1];
           ++m) {
        probe_rows_.push_back(static_cast<uint32_t>(row));
        build_rows_.push_back(matches_[m]);
      }
    }
    Chunk out = pool_->AcquirePrepared(out_schema_);
    for (size_t c = 0; c < in.num_columns(); ++c) {
      in.column(c).FilterInto(probe_rows_, &out.column(c));
    }
    for (size_t c = 0; c < carried_.size(); ++c) {
      build_->column(static_cast<size_t>(carried_[c]))
          .FilterInto(build_rows_, &out.column(in.num_columns() + c));
    }
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  Status BuildTable(const Schema& probe_schema) {
    SKYRISE_ASSIGN_OR_RETURN(build_indices_,
                             ResolveColumns(build_->schema(), op_.build_keys));
    SKYRISE_ASSIGN_OR_RETURN(
        carried_, ResolveColumns(build_->schema(), op_.build_columns));
    if (build_indices_.size() != probe_indices_.size()) {
      return Status::InvalidArgument("join key counts differ");
    }
    for (size_t k = 0; k < probe_indices_.size(); ++k) {
      const DataType probe =
          probe_schema.field(static_cast<size_t>(probe_indices_[k])).type;
      const DataType build =
          build_->schema().field(static_cast<size_t>(build_indices_[k])).type;
      if (KindOf(probe) != KindOf(build)) {
        return Status::InvalidArgument("join keys of different kinds: " +
                                       op_.probe_keys[k] + " and " +
                                       op_.build_keys[k]);
      }
    }
    // Group the build rows by key, then lay each key's rows out in match
    // order: counting sort to ascending rows, then the multimap order.
    const size_t build_rows = static_cast<size_t>(build_->rows());
    KeyHasher().Hash(*build_, build_indices_, &hashes_);
    std::vector<uint32_t> group_of(build_rows);
    std::vector<uint32_t> first_row;
    for (size_t row = 0; row < build_rows; ++row) {
      const auto next = static_cast<uint32_t>(first_row.size());
      const uint32_t group =
          index_.FindOrAdd(hashes_[row], next, [&](uint32_t id) {
            return SameKey(*build_, build_indices_, row, *build_,
                           build_indices_, first_row[id]);
          });
      if (group == next) first_row.push_back(static_cast<uint32_t>(row));
      group_of[row] = group;
      state_bytes_ += KeyTextLength(*build_, build_indices_, row) + 24;
    }
    match_begin_.assign(first_row.size() + 1, 0);
    for (uint32_t group : group_of) ++match_begin_[group + 1];
    std::partial_sum(match_begin_.begin(), match_begin_.end(),
                     match_begin_.begin());
    std::vector<uint32_t> fill(match_begin_.begin(), match_begin_.end() - 1);
    matches_.resize(build_rows);
    for (size_t row = 0; row < build_rows; ++row) {
      matches_[fill[group_of[row]]++] = static_cast<uint32_t>(row);
    }
    // A libstdc++ unordered_multimap<std::string, size_t> filled in build
    // row order once defined the match order, and still does. While it held
    // at most 20 rows, an insert went right after the first row of its key;
    // later inserts went in front of them all. So ascending rows r1, s...,
    // l... (l past row 20) match as l... descending, r1, s... descending.
    constexpr uint32_t kSmallTableRows = 20;
    for (size_t group = 0; group + 1 < match_begin_.size(); ++group) {
      const auto begin = matches_.begin() + match_begin_[group];
      const auto end = matches_.begin() + match_begin_[group + 1];
      const auto late = std::count_if(begin + 1, end, [](uint32_t row) {
        return row > kSmallTableRows;
      });
      std::reverse(begin, end);
      std::rotate(begin + late, end - 1, end);
    }
    table_built_ = true;
    return Status::OK();
  }

  const OperatorSpec& op_;
  const Chunk* build_;
  CostAccumulator* cost_;
  data::ChunkPool* pool_;
  bool resolved_ = false;
  bool build_charged_ = false;
  bool table_built_ = false;
  Schema out_schema_;
  std::vector<int> probe_indices_, build_indices_, carried_;
  KeyIndex index_;                    ///< Key -> group of build rows.
  KeyHasher hasher_;                  ///< Of probe keys.
  /// Build rows grouped by key, in match order; group g holds
  /// matches_[match_begin_[g]] up to matches_[match_begin_[g + 1]].
  std::vector<uint32_t> match_begin_;
  std::vector<uint32_t> matches_;
  std::vector<uint64_t> hashes_;       ///< Scratch: per-row key hash.
  std::vector<uint32_t> probe_rows_, build_rows_;  ///< Scratch: the pairs.
  int64_t state_bytes_ = 0;
};

/// Pipeline breaker: buffers the full input, sorts on Flush(). The n·log n
/// cost is charged once over the whole input, as in the materialized path.
class SortOp final : public OperatorState {
 public:
  SortOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    state_bytes_ += in.ByteSize();
    if (!acc_.has_value()) {
      acc_.emplace(std::move(in));
    } else {
      acc_->Append(in);
    }
    return std::optional<Chunk>();
  }

  Result<std::optional<Chunk>> Flush() override {
    state_bytes_ = 0;
    if (!acc_.has_value()) return std::optional<Chunk>();
    Chunk out;
    SKYRISE_ASSIGN_OR_RETURN(out, ApplySort(op_, std::move(*acc_), cost_));
    acc_.reset();
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  std::optional<Chunk> acc_;
  int64_t state_bytes_ = 0;
};

class LimitOp final : public OperatorState {
 public:
  explicit LimitOp(const OperatorSpec& op) : op_(op) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    if (op_.limit < 0) return std::optional<Chunk>(std::move(in));
    const int64_t remaining = op_.limit - emitted_;
    if (in.rows() <= remaining) {
      emitted_ += in.rows();
      return std::optional<Chunk>(std::move(in));
    }
    Chunk out = in.Slice(0, remaining);
    emitted_ = op_.limit;
    return std::optional<Chunk>(std::move(out));
  }

 private:
  const OperatorSpec& op_;
  int64_t emitted_ = 0;
};

/// Pipeline breaker: the sessionization UDF needs every click of a user, so
/// it buffers the full input and runs once on Flush().
class SessionizeOp final : public OperatorState {
 public:
  SessionizeOp(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    state_bytes_ += in.ByteSize();
    if (!acc_.has_value()) {
      acc_.emplace(std::move(in));
    } else {
      acc_->Append(in);
    }
    return std::optional<Chunk>();
  }

  Result<std::optional<Chunk>> Flush() override {
    state_bytes_ = 0;
    if (!acc_.has_value()) return std::optional<Chunk>();
    Chunk out;
    SKYRISE_ASSIGN_OR_RETURN(out,
                             ApplySessionize(op_, std::move(*acc_), cost_));
    acc_.reset();
    return std::optional<Chunk>(std::move(out));
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  std::optional<Chunk> acc_;
  int64_t state_bytes_ = 0;
};

/// Barriers are awaited by the worker's I/O state machine (they poll a
/// shared queue); no data transformation here.
class BarrierOp final : public OperatorState {
 public:
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    return std::optional<Chunk>(std::move(in));
  }
};

/// Sink: hash-partitions each morsel's rows (in row order, so partition
/// contents are identical to the materialized path) into per-partition
/// output chunks: a row goes to FNV-1a(key text) % partition_count. Rows are
/// bucketed per partition and appended column by column; a single partition
/// takes each morsel whole.
class PartitionSink final : public OperatorState {
 public:
  PartitionSink(const OperatorSpec& op, CostAccumulator* cost)
      : op_(op), cost_(cost) {}

  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    cost_->AddNs(static_cast<double>(in.rows()) *
                 cost_->model().partition_ns_per_row);
    if (in.is_synthetic()) {
      synthetic_ = true;
      synthetic_rows_ += in.rows();
      schema_ = in.schema();
      return std::optional<Chunk>();
    }
    if (!initialized_) {
      if (op_.partition_count < 1) {
        return Status::InvalidArgument("partition_count must be positive");
      }
      SKYRISE_ASSIGN_OR_RETURN(
          key_indices_, ResolveColumns(in.schema(), op_.partition_keys));
      schema_ = in.schema();
      parts_.reserve(static_cast<size_t>(op_.partition_count));
      for (int p = 0; p < op_.partition_count; ++p) {
        parts_.push_back(Chunk::Empty(schema_));
      }
      initialized_ = true;
    }
    state_bytes_ += in.ByteSize();
    if (parts_.size() == 1) {
      parts_[0].Append(in);
      return std::optional<Chunk>();
    }
    // Counting sort of the row ids by partition, stable in row order.
    const size_t rows = static_cast<size_t>(in.rows());
    FnvKeyText(in, key_indices_, &hashes_);
    part_begin_.assign(parts_.size() + 1, 0);
    for (uint64_t& h : hashes_) {
      h %= parts_.size();
      ++part_begin_[h + 1];
    }
    std::partial_sum(part_begin_.begin(), part_begin_.end(),
                     part_begin_.begin());
    fill_.assign(part_begin_.begin(), part_begin_.end() - 1);
    by_part_.resize(rows);
    for (size_t row = 0; row < rows; ++row) {
      by_part_[fill_[hashes_[row]]++] = static_cast<uint32_t>(row);
    }
    for (size_t p = 0; p < parts_.size(); ++p) {
      const size_t count = part_begin_[p + 1] - part_begin_[p];
      if (count == 0) continue;
      for (size_t c = 0; c < in.num_columns(); ++c) {
        parts_[p].column(c).AppendRows(
            in.column(c), by_part_.data() + part_begin_[p], count);
      }
    }
    return std::optional<Chunk>();
  }

  bool is_sink() const override { return true; }

  std::vector<FragmentOutput> TakeOutputs() override {
    std::vector<FragmentOutput> outputs;
    const int parts = op_.partition_count;
    if (synthetic_ || !initialized_) {
      const int64_t rows = synthetic_rows_;
      for (int p = 0; p < parts; ++p) {
        const int64_t share = rows * (p + 1) / parts - rows * p / parts;
        outputs.push_back(
            FragmentOutput{p, Chunk::Synthetic(schema_, share)});
      }
      return outputs;
    }
    for (int p = 0; p < parts; ++p) {
      outputs.push_back(FragmentOutput{
          p, std::move(parts_[static_cast<size_t>(p)])});
    }
    return outputs;
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  const OperatorSpec& op_;
  CostAccumulator* cost_;
  bool initialized_ = false;
  bool synthetic_ = false;
  int64_t synthetic_rows_ = 0;
  Schema schema_;
  std::vector<int> key_indices_;
  std::vector<Chunk> parts_;
  std::vector<uint64_t> hashes_;  ///< Scratch: per-row hash, then partition.
  std::vector<size_t> part_begin_, fill_;  ///< Scratch: per-partition offsets.
  std::vector<uint32_t> by_part_;  ///< Scratch: row ids by partition.
  int64_t state_bytes_ = 0;
};

/// Sink: concatenates morsels (in arrival order) into the terminal result.
class CollectSink final : public OperatorState {
 public:
  Result<std::optional<Chunk>> Push(Chunk&& in) override {
    state_bytes_ += in.ByteSize();
    if (!acc_.has_value()) {
      acc_.emplace(std::move(in));
    } else {
      acc_->Append(in);
    }
    return std::optional<Chunk>();
  }

  bool is_sink() const override { return true; }

  std::vector<FragmentOutput> TakeOutputs() override {
    std::vector<FragmentOutput> outputs;
    outputs.push_back(FragmentOutput{
        -1, acc_.has_value() ? std::move(*acc_) : Chunk()});
    return outputs;
  }

  int64_t StateBytes() const override { return state_bytes_; }

 private:
  std::optional<Chunk> acc_;
  int64_t state_bytes_ = 0;
};

}  // namespace

// --- FragmentPipeline. ---

struct FragmentPipeline::Impl {
  PipelineSpec spec;
  std::vector<Chunk> builds;
  CostAccumulator* cost = nullptr;
  MemoryTracker local_memory;
  MemoryTracker* memory = nullptr;
  data::ChunkPool local_pool;
  data::ChunkPool* pool = nullptr;
  int64_t morsel_rows = 0;
  Status init = Status::OK();
  std::vector<std::unique_ptr<OperatorState>> ops;
  std::vector<int64_t> op_state_bytes;
  OperatorState* sink = nullptr;
  bool accumulating = false;
  std::optional<Chunk> pending;
  int64_t pending_bytes = 0;
  std::optional<data::Schema> stream_schema;
  std::optional<Chunk> tail;
  int64_t batches = 0;

  Status BuildOps();
  void SyncState(size_t i);
  Status WalkFrom(size_t start, Chunk&& chunk);
};

Status FragmentPipeline::Impl::BuildOps() {
  for (const auto& op : spec.ops) {
    if (op.op == "filter") {
      ops.push_back(std::make_unique<FilterOp>(op, cost, pool));
    } else if (op.op == "project") {
      ops.push_back(std::make_unique<ProjectOp>(op, cost));
    } else if (op.op == "hash_agg") {
      ops.push_back(std::make_unique<AggOp>(op, cost));
    } else if (op.op == "hash_join") {
      const size_t build_index = static_cast<size_t>(op.build_input - 1);
      if (build_index >= builds.size()) {
        return Status::InvalidArgument("missing join build input");
      }
      ops.push_back(
          std::make_unique<JoinOp>(op, &builds[build_index], cost, pool));
      // Synthetic cardinality hints are nonlinear: joins against a synthetic
      // build must see the whole probe stream at once.
      if (builds[build_index].is_synthetic()) accumulating = true;
    } else if (op.op == "sort") {
      ops.push_back(std::make_unique<SortOp>(op, cost));
    } else if (op.op == "limit") {
      ops.push_back(std::make_unique<LimitOp>(op));
    } else if (op.op == "bb_sessionize") {
      ops.push_back(std::make_unique<SessionizeOp>(op, cost));
    } else if (op.op == "barrier") {
      ops.push_back(std::make_unique<BarrierOp>());
    } else if (op.op == "partition_write") {
      ops.push_back(std::make_unique<PartitionSink>(op, cost));
      sink = ops.back().get();
      break;  // Operators past the first sink are unreachable.
    } else if (op.op == "collect") {
      ops.push_back(std::make_unique<CollectSink>());
      sink = ops.back().get();
      break;
    } else {
      return Status::InvalidArgument("unknown operator: " + op.op);
    }
  }
  op_state_bytes.assign(ops.size(), 0);
  return Status::OK();
}

void FragmentPipeline::Impl::SyncState(size_t i) {
  const int64_t now = ops[i]->StateBytes();
  const int64_t delta = now - op_state_bytes[i];
  if (delta >= 0) {
    memory->Add(delta);
  } else {
    memory->Release(-delta);
  }
  op_state_bytes[i] = now;
}

Status FragmentPipeline::Impl::WalkFrom(size_t start, Chunk&& chunk) {
  if (start == 0) ++batches;
  Chunk current = std::move(chunk);
  for (size_t i = start; i < ops.size(); ++i) {
    const int64_t in_bytes = current.ByteSize();
    memory->Add(in_bytes);
    Result<std::optional<Chunk>> out = ops[i]->Push(std::move(current));
    SyncState(i);
    memory->Release(in_bytes);
    if (!out.ok()) return out.status();
    // Donate the spent input back to the pool. Operators that consumed it by
    // move left an empty shell behind, which Release drops; operators that
    // copied (or filtered) out of it leave warm buffers to recycle.
    const bool absorbed = !out->has_value();
    // skyrise-check: allow(use-after-move) — Release accepts moved-from chunks.
    pool->Release(std::move(current));
    if (absorbed) return Status::OK();
    current = std::move(**out);
  }
  // No terminal operator: collect the stream as the result.
  const int64_t bytes = current.ByteSize();
  if (!tail.has_value()) {
    tail.emplace(std::move(current));
  } else {
    tail->Append(current);
    pool->Release(std::move(current));
  }
  memory->Add(bytes);
  return Status::OK();
}

FragmentPipeline::FragmentPipeline(const PipelineSpec& pipeline,
                                   std::vector<data::Chunk> builds,
                                   CostAccumulator* cost,
                                   MemoryTracker* memory, int64_t morsel_rows,
                                   data::ChunkPool* pool)
    : impl_(std::make_unique<Impl>()) {
  impl_->spec = pipeline;
  impl_->builds = std::move(builds);
  impl_->cost = cost;
  impl_->memory = memory != nullptr ? memory : &impl_->local_memory;
  impl_->pool = pool != nullptr ? pool : &impl_->local_pool;
  impl_->morsel_rows = morsel_rows;
  impl_->accumulating = morsel_rows < 0;
  for (const auto& build : impl_->builds) {
    impl_->memory->Add(build.ByteSize());
  }
  impl_->init = impl_->BuildOps();
}

FragmentPipeline::~FragmentPipeline() = default;

Status FragmentPipeline::Push(data::Chunk&& morsel) {
  Impl& im = *impl_;
  if (!im.init.ok()) return im.init;
  if (!im.stream_schema.has_value()) im.stream_schema = morsel.schema();
  // Synthetic cardinality hints round per batch; fall back to one batch.
  if (morsel.is_synthetic()) im.accumulating = true;
  if (im.accumulating) {
    const int64_t bytes = morsel.ByteSize();
    if (!im.pending.has_value()) {
      im.pending.emplace(std::move(morsel));
    } else {
      im.pending->Append(morsel);
    }
    im.pending_bytes += bytes;
    im.memory->Add(bytes);
    return Status::OK();
  }
  if (im.morsel_rows > 0 && morsel.rows() > im.morsel_rows) {
    const int64_t total = morsel.rows();
    for (int64_t offset = 0; offset < total; offset += im.morsel_rows) {
      const int64_t count = std::min(im.morsel_rows, total - offset);
      Chunk piece = im.pool->AcquirePrepared(morsel.schema());
      morsel.SliceInto(offset, count, &piece);
      SKYRISE_RETURN_IF_ERROR(im.WalkFrom(0, std::move(piece)));
    }
    im.pool->Release(std::move(morsel));
    return Status::OK();
  }
  return im.WalkFrom(0, std::move(morsel));
}

Result<std::vector<FragmentOutput>> FragmentPipeline::Finish() {
  Impl& im = *impl_;
  if (!im.init.ok()) return im.init;
  if (im.pending.has_value()) {
    im.memory->Release(im.pending_bytes);
    im.pending_bytes = 0;
    Chunk whole = std::move(*im.pending);
    im.pending.reset();
    SKYRISE_RETURN_IF_ERROR(im.WalkFrom(0, std::move(whole)));
  } else if (im.batches == 0) {
    // Zero-morsel stream: run the chain once over an empty batch so schema
    // propagation and breaker flushes match the materialized path.
    SKYRISE_RETURN_IF_ERROR(im.WalkFrom(
        0, Chunk::Empty(im.stream_schema.value_or(data::Schema()))));
  }
  for (size_t i = 0; i < im.ops.size(); ++i) {
    Result<std::optional<Chunk>> flushed = im.ops[i]->Flush();
    im.SyncState(i);
    if (!flushed.ok()) return flushed.status();
    if (flushed->has_value()) {
      SKYRISE_RETURN_IF_ERROR(im.WalkFrom(i + 1, std::move(**flushed)));
    }
  }
  if (im.sink != nullptr) return im.sink->TakeOutputs();
  std::vector<FragmentOutput> outputs;
  Chunk result = im.tail.has_value()
                     ? std::move(*im.tail)
                     : Chunk::Empty(im.stream_schema.value_or(data::Schema()));
  outputs.push_back(FragmentOutput{-1, std::move(result)});
  return outputs;
}

int64_t FragmentPipeline::batches() const { return impl_->batches; }

Result<std::vector<FragmentOutput>> ExecuteFragment(
    const PipelineSpec& pipeline, data::Chunk&& stream,
    std::vector<data::Chunk> builds, CostAccumulator* cost) {
  FragmentPipeline executor(pipeline, std::move(builds), cost,
                            /*memory=*/nullptr, /*morsel_rows=*/-1);
  SKYRISE_RETURN_IF_ERROR(executor.Push(std::move(stream)));
  return executor.Finish();
}

Result<data::Chunk> FilterKernel::Apply(data::Chunk&& in) {
  cost_->AddNs(static_cast<double>(in.rows()) *
               cost_->model().filter_ns_per_row);
  if (in.is_synthetic()) {
    return Chunk::Synthetic(in.schema(),
                            static_cast<int64_t>(std::llround(
                                static_cast<double>(in.rows()) *
                                selectivity_)));
  }
  SKYRISE_RETURN_IF_ERROR(Compile(in.schema()));
  kernel_->Select(in, &selection_);
  if (selection_.size() == static_cast<size_t>(in.rows())) {
    return std::move(in);
  }
  Chunk out = pool_->AcquirePrepared(in.schema());
  for (size_t c = 0; c < in.num_columns(); ++c) {
    in.column(c).FilterInto(selection_, &out.column(c));
  }
  pool_->Release(std::move(in));
  return out;
}

Result<data::Chunk> FilterKernel::Gather(const data::Schema& schema,
                                         const ExprKernel::ColumnRefs& columns,
                                         size_t rows) {
  cost_->AddNs(static_cast<double>(rows) * cost_->model().filter_ns_per_row);
  SKYRISE_RETURN_IF_ERROR(Compile(schema));
  kernel_->Select(columns, rows, &selection_);
  Chunk out = pool_->AcquirePrepared(schema);
  for (size_t c = 0; c < columns.size(); ++c) {
    if (selection_.size() == rows) {
      columns[c]->SliceInto(0, rows, &out.column(c));
    } else {
      columns[c]->FilterInto(selection_, &out.column(c));
    }
  }
  return out;
}

Status FilterKernel::Compile(const data::Schema& schema) {
  if (kernel_.has_value()) return Status::OK();
  if (predicate_ == nullptr) {
    return Status::InvalidArgument("filter without a predicate");
  }
  SKYRISE_ASSIGN_OR_RETURN(kernel_, ExprKernel::Predicate(*predicate_, schema));
  return Status::OK();
}

}  // namespace skyrise::engine
