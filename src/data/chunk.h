#pragma once

#include <memory>
#include <string>
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

/// A typed value vector. Int64/date values live in `ints`, doubles in
/// `doubles`, strings in `strings` (only the matching vector is populated).
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const {
    switch (type_) {
      case DataType::kDouble:
        return doubles_.size();
      case DataType::kString:
        return strings_.size();
      default:
        return ints_.size();
    }
  }

  std::vector<int64_t>& ints() { return ints_; }
  const std::vector<int64_t>& ints() const { return ints_; }
  std::vector<double>& doubles() { return doubles_; }
  const std::vector<double>& doubles() const { return doubles_; }
  std::vector<std::string>& strings() { return strings_; }
  const std::vector<std::string>& strings() const { return strings_; }

  void AppendInt(int64_t v) { ints_.push_back(v); }
  void AppendDouble(double v) { doubles_.push_back(v); }
  void AppendString(std::string v) { strings_.push_back(std::move(v)); }

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
  /// reusing its buffers (vector capacity; per-element string capacity via
  /// assignment). `out` must have this column's type and must not alias it.
  void FilterInto(const std::vector<uint32_t>& selection, Column* out) const;

  /// Copies the contiguous row range [offset, offset + count) into a new
  /// column. The range must lie within the column.
  Column Slice(size_t offset, size_t count) const;

  /// Range copy into `out`, overwriting contents but reusing buffers — the
  /// allocation-free morsel primitive. `out` must match type, no aliasing.
  void SliceInto(size_t offset, size_t count, Column* out) const;

  /// Drops all values but keeps vector capacity for refill.
  void Clear();

  /// Retypes the column and clears it (retained buffers of the old type keep
  /// their capacity).
  void Reset(DataType type);

 private:
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

class Chunk {
 public:
  Chunk() = default;
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
