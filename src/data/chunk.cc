#include "data/chunk.h"

namespace skyrise::data {

void Column::AppendFrom(const Column& other, size_t row) {
  SKYRISE_CHECK(type_ == other.type_);
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(other.doubles_[row]);
      break;
    case DataType::kString:
      strings_.push_back(other.strings_[row]);
      break;
    default:
      ints_.push_back(other.ints_[row]);
  }
}

void Column::AppendRange(const Column& other, size_t offset, size_t count) {
  SKYRISE_CHECK(&other != this && type_ == other.type_);
  SKYRISE_CHECK(offset + count <= other.size());
  const auto first = static_cast<ptrdiff_t>(offset);
  const auto last = static_cast<ptrdiff_t>(offset + count);
  switch (type_) {
    case DataType::kDouble:
      doubles_.insert(doubles_.end(), other.doubles_.begin() + first,
                      other.doubles_.begin() + last);
      break;
    case DataType::kString:
      strings_.insert(strings_.end(), other.strings_.begin() + first,
                      other.strings_.begin() + last);
      break;
    default:
      ints_.insert(ints_.end(), other.ints_.begin() + first,
                   other.ints_.begin() + last);
  }
}

void Column::AppendRows(const Column& other, const uint32_t* rows,
                        size_t count) {
  SKYRISE_CHECK(&other != this && type_ == other.type_);
  switch (type_) {
    case DataType::kDouble: {
      const size_t base = doubles_.size();
      doubles_.resize(base + count);
      for (size_t i = 0; i < count; ++i) {
        doubles_[base + i] = other.doubles_[rows[i]];
      }
      break;
    }
    case DataType::kString:
      strings_.reserve(strings_.size() + count);
      for (size_t i = 0; i < count; ++i) {
        strings_.push_back(other.strings_[rows[i]]);
      }
      break;
    default: {
      const size_t base = ints_.size();
      ints_.resize(base + count);
      for (size_t i = 0; i < count; ++i) ints_[base + i] = other.ints_[rows[i]];
    }
  }
}

Column Column::Filter(const std::vector<uint32_t>& selection) const {
  Column out(type_);
  switch (type_) {
    case DataType::kDouble:
      out.doubles_.reserve(selection.size());
      for (uint32_t i : selection) out.doubles_.push_back(doubles_[i]);
      break;
    case DataType::kString:
      out.strings_.reserve(selection.size());
      for (uint32_t i : selection) out.strings_.push_back(strings_[i]);
      break;
    default:
      out.ints_.reserve(selection.size());
      for (uint32_t i : selection) out.ints_.push_back(ints_[i]);
  }
  return out;
}

void Column::FilterInto(const std::vector<uint32_t>& selection,
                        Column* out) const {
  SKYRISE_CHECK(out != this && out->type_ == type_);
  const size_t n = selection.size();
  switch (type_) {
    case DataType::kDouble: {
      out->doubles_.resize(n);
      double* dst = out->doubles_.data();
      const double* src = doubles_.data();
      for (size_t i = 0; i < n; ++i) dst[i] = src[selection[i]];
      break;
    }
    case DataType::kString: {
      // resize + operator= (not clear + push_back) so surviving elements
      // keep their heap buffers across refills.
      out->strings_.resize(n);
      for (size_t i = 0; i < n; ++i) out->strings_[i] = strings_[selection[i]];
      break;
    }
    default: {
      out->ints_.resize(n);
      int64_t* dst = out->ints_.data();
      const int64_t* src = ints_.data();
      for (size_t i = 0; i < n; ++i) dst[i] = src[selection[i]];
    }
  }
}

Column Column::Slice(size_t offset, size_t count) const {
  SKYRISE_CHECK(offset + count <= size());
  Column out(type_);
  switch (type_) {
    case DataType::kDouble:
      out.doubles_.assign(doubles_.begin() + static_cast<ptrdiff_t>(offset),
                          doubles_.begin() +
                              static_cast<ptrdiff_t>(offset + count));
      break;
    case DataType::kString:
      out.strings_.assign(strings_.begin() + static_cast<ptrdiff_t>(offset),
                          strings_.begin() +
                              static_cast<ptrdiff_t>(offset + count));
      break;
    default:
      out.ints_.assign(ints_.begin() + static_cast<ptrdiff_t>(offset),
                       ints_.begin() + static_cast<ptrdiff_t>(offset + count));
  }
  return out;
}

void Column::SliceInto(size_t offset, size_t count, Column* out) const {
  SKYRISE_CHECK(out != this && out->type_ == type_);
  SKYRISE_CHECK(offset + count <= size());
  switch (type_) {
    case DataType::kDouble:
      out->doubles_.assign(doubles_.begin() + static_cast<ptrdiff_t>(offset),
                           doubles_.begin() +
                               static_cast<ptrdiff_t>(offset + count));
      break;
    case DataType::kString:
      // vector::assign copies into existing elements first, so string
      // buffers are recycled across morsels.
      out->strings_.assign(strings_.begin() + static_cast<ptrdiff_t>(offset),
                           strings_.begin() +
                               static_cast<ptrdiff_t>(offset + count));
      break;
    default:
      out->ints_.assign(ints_.begin() + static_cast<ptrdiff_t>(offset),
                        ints_.begin() +
                            static_cast<ptrdiff_t>(offset + count));
  }
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  strings_.clear();
}

void Column::Reset(DataType type) {
  type_ = type;
  Clear();
}

void Chunk::Append(const Chunk& other) {
  SKYRISE_CHECK(schema_ == other.schema_);
  if (is_synthetic() || other.is_synthetic()) {
    const int64_t total = rows() + other.rows();
    columns_.clear();
    synthetic_rows_ = total;
    return;
  }
  AppendRange(other, 0, other.rows());
}

void Chunk::AppendRange(const Chunk& other, int64_t offset, int64_t count) {
  SKYRISE_CHECK(&other != this && schema_ == other.schema_);
  SKYRISE_CHECK(!is_synthetic() && !other.is_synthetic());
  SKYRISE_CHECK(offset >= 0 && count >= 0 && offset + count <= other.rows());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(other.columns_[c], static_cast<size_t>(offset),
                            static_cast<size_t>(count));
  }
}

Chunk Chunk::Slice(int64_t offset, int64_t count) const {
  SKYRISE_CHECK(offset >= 0 && count >= 0 && offset + count <= rows());
  if (is_synthetic()) return Synthetic(schema_, count);
  std::vector<Column> columns;
  columns.reserve(columns_.size());
  for (const auto& col : columns_) {
    columns.push_back(col.Slice(static_cast<size_t>(offset),
                                static_cast<size_t>(count)));
  }
  return Chunk(schema_, std::move(columns));
}

void Chunk::SliceInto(int64_t offset, int64_t count, Chunk* out) const {
  SKYRISE_CHECK(out != this);
  SKYRISE_CHECK(offset >= 0 && count >= 0 && offset + count <= rows());
  if (is_synthetic()) {
    *out = Synthetic(schema_, count);
    return;
  }
  out->PrepareFor(schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].SliceInto(static_cast<size_t>(offset),
                          static_cast<size_t>(count), &out->columns_[c]);
  }
}

void Chunk::PrepareFor(const Schema& schema) {
  synthetic_rows_ = -1;
  if (columns_.size() > schema.size()) {
    columns_.erase(columns_.begin() + static_cast<ptrdiff_t>(schema.size()),
                   columns_.end());
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].type() != schema.field(i).type) {
      columns_[i].Reset(schema.field(i).type);
    }
  }
  while (columns_.size() < schema.size()) {
    columns_.emplace_back(schema.field(columns_.size()).type);
  }
  schema_ = schema;
}

void Chunk::ResetTo(const Schema& schema) {
  PrepareFor(schema);
  for (auto& column : columns_) column.Clear();
}

int64_t Chunk::ByteSize() const {
  int64_t per_row = 0;
  for (const auto& f : schema_.fields()) {
    switch (f.type) {
      case DataType::kString:
        per_row += 12;  // Typical short TPC string + length.
        break;
      default:
        per_row += 8;
    }
  }
  if (is_synthetic()) return rows() * per_row;
  int64_t bytes = 0;
  for (const auto& col : columns_) {
    switch (col.type()) {
      case DataType::kDouble:
        bytes += static_cast<int64_t>(col.doubles().size()) * 8;
        break;
      case DataType::kString: {
        for (const auto& s : col.strings()) {
          bytes += static_cast<int64_t>(s.size()) + 4;
        }
        break;
      }
      default:
        bytes += static_cast<int64_t>(col.ints().size()) * 8;
    }
  }
  return bytes;
}

}  // namespace skyrise::data
