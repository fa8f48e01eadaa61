#pragma once

#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/macros.h"
#include "common/result.h"
#include "data/types.h"

/// \file chunk.h
/// Vectorized batches. A Column is a typed value vector; a Chunk is a batch
/// of equal-length columns flowing between operators; a Schema names them.
/// Chunks may alternatively be *synthetic* — carrying only a row count — so
/// paper-scale experiments can exercise the identical operator/IO code paths
/// without materializing terabytes (see DESIGN.md "hybrid fidelity").

namespace skyrise::data {

struct Field {
  std::string name;
  DataType type;
  bool operator==(const Field&) const = default;
};

class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t size() const { return fields_.size(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  /// Index of a column by name; -1 when absent.
  int FieldIndex(const std::string& name) const {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (fields_[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

  [[nodiscard]] Result<Schema> Select(const std::vector<std::string>& names) const {
    std::vector<Field> out;
    for (const auto& name : names) {
      const int idx = FieldIndex(name);
      if (idx < 0) return Status::NotFound("no column: " + name);
      out.push_back(fields_[static_cast<size_t>(idx)]);
    }
    return Schema(std::move(out));
  }

  bool operator==(const Schema&) const = default;

 private:
  std::vector<Field> fields_;
};

/// The values a string column's codes stand for. A code, once handed out,
/// names the same bytes for as long as the dictionary lives: values are
/// only appended, and only format decode empties a dictionary to refill it,
/// when its own column holds it alone. Columns whose rows were copied from
/// one another share one dictionary by reference count (DESIGN.md §12.3).
/// Equal codes always mean equal values. Equal values mean equal codes only
/// in a dictionary flagged distinct: one built by interning, or decoded from
/// a dictionary chunk whose values strictly ascend. A frozen dictionary
/// takes no more values: a column about to put one into it takes an
/// unfrozen copy instead; an append from another dictionary copies it only
/// for a value it does not hold, if it is distinct.
class StringDict {
 public:
  enum : uint32_t { kNoCode = 0xFFFFFFFFu };

  explicit StringDict(bool distinct) : distinct_(distinct) {}

  uint32_t size() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size() - 1);
  }
  std::string_view value(uint32_t code) const {
    return std::string_view(bytes_.data() + offsets_[code],
                            offsets_[code + 1] - offsets_[code]);
  }
  bool distinct() const { return distinct_; }
  /// How often the dictionary was emptied for a refill; with its identity
  /// and size, it tells a cache of per-value results when those are stale.
  uint64_t refills() const { return refills_; }

  /// Appends `value` under a new code. A distinct dictionary must not hold
  /// it yet; use Intern.
  uint32_t Add(std::string_view value);
  /// The code `value` gets: its existing one in a distinct dictionary,
  /// else a new one.
  uint32_t Intern(std::string_view value);
  /// The code of `value` in a distinct dictionary, or kNoCode when it holds
  /// none. Adds no value, so a frozen dictionary answers too.
  uint32_t Find(std::string_view value);
  /// Makes room for `values` more values of `bytes` bytes in all.
  void Reserve(size_t values, size_t bytes);
  /// Empties the dictionary, keeping its capacity, sets its flag and
  /// unfreezes it.
  void Refill(bool distinct);

  bool frozen() const { return frozen_; }
  void Freeze() { frozen_ = true; }
  /// A copy that is not frozen, its values and codes unchanged.
  std::shared_ptr<StringDict> UnfrozenCopy() const;

 private:
  /// Codes by value hash, open addressing, each slot a code + 1 (0: empty);
  /// covers codes [0, indexed_). Built on the first Intern into, or Find
  /// in, a distinct dictionary.
  void Index();

  std::string bytes_;  ///< Every value, back to back.
  /// Value `code` is bytes_[offsets_[code], offsets_[code + 1]); empty
  /// until the first value.
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> slots_;
  uint32_t indexed_ = 0;
  bool distinct_;
  bool frozen_ = false;
  uint64_t refills_ = 0;
};

/// Read-only rows of a string column: row i is the value of its code.
class StringsView {
 public:
  StringsView(const StringDict* dict, const uint32_t* codes, size_t size)
      : dict_(dict), codes_(codes), size_(size) {}
  size_t size() const { return size_; }
  std::string_view operator[](size_t row) const {
    return dict_->value(codes_[row]);
  }

 private:
  const StringDict* dict_;
  const uint32_t* codes_;
  size_t size_;
};

/// Row-by-row equality of values.
bool operator==(const StringsView& a, const StringsView& b);
bool operator==(const StringsView& a, const std::vector<std::string>& b);

/// Prints the values, for test failures.
void PrintTo(const StringsView& view, std::ostream* os);

/// A result per value of one dictionary, computed once per value and kept
/// from call to call. It recomputes everything for another dictionary, even
/// one allocated where a freed one was (the weak reference tells them
/// apart), and for a refilled one; it computes only the new values of one
/// that grew.
template <typename T>
class DictMemo {
 public:
  /// `compute(value)` of each of `dict`'s values, indexed by code.
  template <typename Compute>
  const T* Get(const std::shared_ptr<StringDict>& dict, Compute compute) {
    if (dict_.owner_before(dict) || dict.owner_before(dict_) ||
        refills_ != dict->refills()) {
      dict_ = dict;
      refills_ = dict->refills();
      values_.clear();
    }
    values_.reserve(dict->size());
    for (auto code = static_cast<uint32_t>(values_.size());
         code < dict->size(); ++code) {
      values_.push_back(compute(dict->value(code)));
    }
    return values_.data();
  }

 private:
  std::weak_ptr<StringDict> dict_;
  uint64_t refills_ = 0;
  std::vector<T> values_;
};

/// A typed value vector. Int64/date values live in `ints`, doubles in
/// `doubles`; a string column holds one code per row into a StringDict
/// (only the matching storage is populated). Copies, slices and gathers of
/// a string column copy codes and share the dictionary; appends from
/// another dictionary put each value they meet into this one once.
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const {
    switch (type_) {
      case DataType::kDouble:
        return doubles_.size();
      case DataType::kString:
        return codes_.size();
      default:
        return ints_.size();
    }
  }

  std::vector<int64_t>& ints() { return ints_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  std::vector<double>& doubles() { return doubles_; }
  const std::vector<double>& doubles() const { return doubles_; }
  StringsView strings() const {
    return StringsView(dict_.get(), codes_.data(), codes_.size());
  }
  /// A string column's codes, one per row, each below dict()->size().
  std::vector<uint32_t>& codes() { return codes_; }
  const std::vector<uint32_t>& codes() const { return codes_; }
  /// Null until a string column first holds a row.
  const std::shared_ptr<StringDict>& dict() const { return dict_; }

  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string_view v);

  /// For format decode: empties the column and returns a dictionary only
  /// it holds, emptied and flagged `distinct`: its own, refilled in place,
  /// when no other column shares it, else a new one. The caller adds the
  /// values, then the codes.
  StringDict* RefillDict(bool distinct);

  /// Appends row `row` of `other` to this column.
  void AppendFrom(const Column& other, size_t row);

  /// Appends rows [offset, offset + count) of `other`, which must have this
  /// column's type, lie within it and not alias this column.
  void AppendRange(const Column& other, size_t offset, size_t count);

  /// Appends `other`'s rows `rows[0..count)`, in that order (gather).
  void AppendRows(const Column& other, const uint32_t* rows, size_t count);

  /// Gathers the rows selected by `selection` into a new column.
  Column Filter(const std::vector<uint32_t>& selection) const;

  /// Gathers the selected rows into `out`, overwriting its contents but
  /// reusing its vector capacity. `out` must have this column's type and
  /// must not alias it.
  void FilterInto(const std::vector<uint32_t>& selection, Column* out) const;

  /// Copies the contiguous row range [offset, offset + count) into a new
  /// column. The range must lie within the column.
  Column Slice(size_t offset, size_t count) const;

  /// Range copy into `out`, overwriting contents but reusing buffers — the
  /// allocation-free morsel primitive. `out` must match type, no aliasing.
  void SliceInto(size_t offset, size_t count, Column* out) const;

  /// Drops all values and the dictionary but keeps vector capacity for
  /// refill.
  void Clear();

  /// Retypes the column and clears it (retained buffers of the old type keep
  /// their capacity).
  void Reset(DataType type);

 private:
  /// Appends the codes of `other`'s rows row_at(0..count): copied when both
  /// share a dictionary (or this column is empty and takes `other`'s);
  /// otherwise each value met is put into this column's dictionary once.
  template <typename RowAt>
  void AppendCodes(const Column& other, size_t count, RowAt row_at);

  /// The code of another dictionary's `value` in this column's: its code in
  /// a frozen distinct one that holds it, else Intern into DictToGrow().
  uint32_t CodeFor(std::string_view value);

  /// The dictionary to put new values into: this column's own, a new one
  /// when it has none, or an unfrozen copy of a frozen one.
  StringDict& DictToGrow();

  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint32_t> codes_;
  std::shared_ptr<StringDict> dict_;
};

/// Move-only: a copy of a materialized chunk deep-copies every column, so
/// one is spelled `Slice(0, rows())`, which also works for synthetic chunks.
class Chunk {
 public:
  Chunk() = default;
  Chunk(Chunk&&) = default;
  Chunk& operator=(Chunk&&) = default;
  Chunk(const Chunk&) = delete;
  Chunk& operator=(const Chunk&) = delete;
  Chunk(Schema schema, std::vector<Column> columns)
      : schema_(std::move(schema)), columns_(std::move(columns)) {
    for (const auto& c : columns_) {
      SKYRISE_CHECK(c.size() == columns_[0].size());
    }
  }

  /// Synthetic chunk: a row count with no materialized values.
  static Chunk Synthetic(Schema schema, int64_t rows) {
    Chunk c;
    c.schema_ = std::move(schema);
    c.synthetic_rows_ = rows;
    return c;
  }

  /// Empty materialized chunk with the given schema.
  static Chunk Empty(const Schema& schema) {
    std::vector<Column> cols;
    for (const auto& f : schema.fields()) cols.emplace_back(f.type);
    return Chunk(schema, std::move(cols));
  }

  bool is_synthetic() const { return synthetic_rows_ >= 0; }
  int64_t rows() const {
    if (is_synthetic()) return synthetic_rows_;
    return columns_.empty() ? 0 : static_cast<int64_t>(columns_[0].size());
  }

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  Column& column(size_t i) { return columns_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }
  const Column& column(const std::string& name) const {
    const int idx = schema_.FieldIndex(name);
    SKYRISE_CHECK(idx >= 0);
    return columns_[static_cast<size_t>(idx)];
  }

  /// Appends all rows of `other` (schemas must match), column by column.
  void Append(const Chunk& other);

  /// Appends rows [offset, offset + count) of the materialized `other`
  /// (schemas must match; `other` must not alias this chunk).
  void AppendRange(const Chunk& other, int64_t offset, int64_t count);

  /// Contiguous row range [offset, offset + count) as a new chunk — the
  /// morsel primitive. Synthetic chunks slice to synthetic chunks of `count`
  /// rows. The range must lie within the chunk.
  [[nodiscard]] Chunk Slice(int64_t offset, int64_t count) const;

  /// Slice() into `out`, overwriting its contents but reusing its buffers.
  /// `out` is reshaped to this chunk's schema and must not alias this chunk.
  void SliceInto(int64_t offset, int64_t count, Chunk* out) const;

  /// Reshapes to `schema` reusing column buffers where the positional types
  /// match; column contents become unspecified (callers overwrite them via
  /// the *Into APIs). Clears the synthetic flag.
  void PrepareFor(const Schema& schema);

  /// PrepareFor + Clear on every column: an empty materialized chunk of
  /// `schema` with recycled capacity, ready for Append.
  void ResetTo(const Schema& schema);

  /// Rough in-memory/in-flight byte size (used by the CPU and shuffle size
  /// models; also valid for synthetic chunks via per-type width estimates).
  int64_t ByteSize() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  int64_t synthetic_rows_ = -1;
};

}  // namespace skyrise::data
