#include "data/chunk.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <ostream>

namespace skyrise::data {

uint32_t StringDict::Add(std::string_view value) {
  SKYRISE_CHECK(bytes_.size() + value.size() <=
                std::numeric_limits<uint32_t>::max());
  if (offsets_.empty()) offsets_.push_back(0);
  bytes_.append(value);
  offsets_.push_back(static_cast<uint32_t>(bytes_.size()));
  return size() - 1;
}

uint32_t StringDict::Intern(std::string_view value) {
  if (!distinct_) return Add(value);
  Index();
  const size_t mask = slots_.size() - 1;
  size_t slot = std::hash<std::string_view>()(value) & mask;
  while (slots_[slot] != 0) {
    if (this->value(slots_[slot] - 1) == value) return slots_[slot] - 1;
    slot = (slot + 1) & mask;
  }
  const uint32_t code = Add(value);
  slots_[slot] = code + 1;
  indexed_ = size();
  return code;
}

uint32_t StringDict::Find(std::string_view value) {
  // Intern's probe loop, repeated: one probe shared out of line would cost
  // every AppendString a call.
  SKYRISE_CHECK(distinct_);
  Index();
  const size_t mask = slots_.size() - 1;
  for (size_t slot = std::hash<std::string_view>()(value) & mask;
       slots_[slot] != 0; slot = (slot + 1) & mask) {
    if (this->value(slots_[slot] - 1) == value) return slots_[slot] - 1;
  }
  return kNoCode;
}

void StringDict::Index() {
  // At most half full, counting the value about to be put.
  size_t capacity = std::max<size_t>(16, slots_.size());
  while (2 * (size_t{size()} + 1) > capacity) capacity *= 2;
  if (capacity != slots_.size()) {
    slots_.assign(capacity, 0);
    indexed_ = 0;
  }
  const size_t mask = capacity - 1;
  for (; indexed_ < size(); ++indexed_) {
    size_t slot = std::hash<std::string_view>()(value(indexed_)) & mask;
    while (slots_[slot] != 0) slot = (slot + 1) & mask;
    slots_[slot] = indexed_ + 1;
  }
}

void StringDict::Reserve(size_t values, size_t bytes) {
  offsets_.reserve(offsets_.size() + values + 1);
  bytes_.reserve(bytes_.size() + bytes);
}

void StringDict::Refill(bool distinct) {
  bytes_.clear();
  offsets_.clear();
  slots_.clear();
  indexed_ = 0;
  distinct_ = distinct;
  frozen_ = false;
  ++refills_;
}

std::shared_ptr<StringDict> StringDict::UnfrozenCopy() const {
  auto copy = std::make_shared<StringDict>(*this);
  copy->frozen_ = false;
  return copy;
}

bool operator==(const StringsView& a, const StringsView& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool operator==(const StringsView& a, const std::vector<std::string>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

void PrintTo(const StringsView& view, std::ostream* os) {
  *os << "{";
  for (size_t i = 0; i < view.size(); ++i) {
    *os << (i == 0 ? " \"" : ", \"") << view[i] << "\"";
  }
  *os << " }";
}

void Column::AppendString(std::string_view v) {
  if (dict_ == nullptr || dict_->frozen()) DictToGrow();
  codes_.push_back(dict_->Intern(v));
}

uint32_t Column::CodeFor(std::string_view value) {
  if (dict_ != nullptr && dict_->frozen() && dict_->distinct()) {
    const uint32_t code = dict_->Find(value);
    if (code != StringDict::kNoCode) return code;
  }
  return DictToGrow().Intern(value);
}

StringDict& Column::DictToGrow() {
  if (dict_ == nullptr) {
    dict_ = std::make_shared<StringDict>(/*distinct=*/true);
  } else if (dict_->frozen()) {
    dict_ = dict_->UnfrozenCopy();
  }
  return *dict_;
}

StringDict* Column::RefillDict(bool distinct) {
  codes_.clear();
  if (dict_ != nullptr && dict_.use_count() == 1) {
    dict_->Refill(distinct);
  } else {
    dict_ = std::make_shared<StringDict>(distinct);
  }
  return dict_.get();
}

template <typename RowAt>
void Column::AppendCodes(const Column& other, size_t count, RowAt row_at) {
  if (count == 0) return;
  const size_t base = codes_.size();
  if (base == 0) dict_ = other.dict_;
  codes_.resize(base + count);
  uint32_t* dst = codes_.data() + base;
  const uint32_t* src = other.codes_.data();
  if (dict_ == other.dict_) {
    for (size_t i = 0; i < count; ++i) dst[i] = src[row_at(i)];
    return;
  }
  // Each value met is put once: through a code table when the source
  // dictionary is no larger than the rows appended, else per row.
  const StringDict& from = *other.dict_;
  constexpr uint32_t kUnmapped = std::numeric_limits<uint32_t>::max();
  std::array<uint32_t, 256> remap;
  if (from.size() > std::min(count, remap.size())) {
    for (size_t i = 0; i < count; ++i) {
      dst[i] = CodeFor(from.value(src[row_at(i)]));
    }
    return;
  }
  std::fill_n(remap.begin(), from.size(), kUnmapped);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t code = src[row_at(i)];
    if (remap[code] == kUnmapped) remap[code] = CodeFor(from.value(code));
    dst[i] = remap[code];
  }
}

void Column::AppendFrom(const Column& other, size_t row) {
  SKYRISE_CHECK(type_ == other.type_);
  switch (type_) {
    case DataType::kDouble:
      doubles_.push_back(other.doubles_[row]);
      break;
    case DataType::kString:
      AppendCodes(other, 1, [row](size_t) { return row; });
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
      AppendCodes(other, count, [offset](size_t i) { return offset + i; });
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
      AppendCodes(other, count, [rows](size_t i) { return rows[i]; });
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
  FilterInto(selection, &out);
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
      out->codes_.resize(n);
      uint32_t* dst = out->codes_.data();
      const uint32_t* src = codes_.data();
      for (size_t i = 0; i < n; ++i) dst[i] = src[selection[i]];
      out->dict_ = dict_;
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
  Column out(type_);
  SliceInto(offset, count, &out);
  return out;
}

void Column::SliceInto(size_t offset, size_t count, Column* out) const {
  SKYRISE_CHECK(out != this && out->type_ == type_);
  SKYRISE_CHECK(offset + count <= size());
  const auto first = static_cast<ptrdiff_t>(offset);
  const auto last = static_cast<ptrdiff_t>(offset + count);
  switch (type_) {
    case DataType::kDouble:
      out->doubles_.assign(doubles_.begin() + first, doubles_.begin() + last);
      break;
    case DataType::kString:
      out->codes_.assign(codes_.begin() + first, codes_.begin() + last);
      out->dict_ = dict_;
      break;
    default:
      out->ints_.assign(ints_.begin() + first, ints_.begin() + last);
  }
}

void Column::Clear() {
  ints_.clear();
  doubles_.clear();
  codes_.clear();
  dict_.reset();
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
        bytes += 4 * static_cast<int64_t>(col.size());
        const StringDict* dict = col.dict().get();
        for (uint32_t code : col.codes()) {
          bytes += static_cast<int64_t>(dict->value(code).size());
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
