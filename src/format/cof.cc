#include "format/cof.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/json.h"
#include "format/encoding.h"

namespace skyrise::format {

namespace {
constexpr char kMagic[4] = {'C', 'O', 'F', '1'};

/// Sets `cm`'s min and max over rows [offset, offset + count) of a numeric
/// or date column; strings and empty ranges leave them unset.
void SetMinMax(const data::Column& col, size_t offset, size_t count,
               ColumnChunkMeta* cm) {
  using data::DataType;
  if (count == 0 || col.type() == DataType::kString) return;
  if (col.type() == DataType::kDouble) {
    const double* first = col.doubles().data() + offset;
    cm->min = *std::min_element(first, first + count);
    cm->max = *std::max_element(first, first + count);
    return;
  }
  const int64_t* first = col.ints().data() + offset;
  cm->min = static_cast<double>(*std::min_element(first, first + count));
  cm->max = static_cast<double>(*std::max_element(first, first + count));
}

data::DataType TypeFromName(std::string_view name) {
  if (name == "double") return data::DataType::kDouble;
  if (name == "string") return data::DataType::kString;
  if (name == "date") return data::DataType::kDate;
  return data::DataType::kInt64;
}

}  // namespace

int64_t FileMeta::TotalRows() const {
  int64_t rows = 0;
  for (const auto& rg : row_groups) rows += rg.rows;
  return rows;
}

CofWriter::CofWriter(data::Schema schema, int64_t row_group_rows)
    : schema_(std::move(schema)),
      row_group_rows_(row_group_rows),
      buffer_(data::Chunk::Empty(schema_)) {
  SKYRISE_CHECK(row_group_rows_ > 0);
}

Status CofWriter::Append(const data::Chunk& chunk) {
  if (!(chunk.schema() == schema_)) {
    return Status::InvalidArgument("chunk schema mismatch");
  }
  if (chunk.is_synthetic()) {
    return Status::InvalidArgument("cannot write synthetic chunk");
  }
  // Row groups take rows in order: first top up a buffered partial group,
  // then encode whole groups in place, then buffer the rest.
  int64_t offset = 0;
  const int64_t rows = chunk.rows();
  if (buffer_.rows() > 0) {
    const int64_t take = std::min(rows, row_group_rows_ - buffer_.rows());
    buffer_.AppendRange(chunk, 0, take);
    offset = take;
    if (buffer_.rows() == row_group_rows_) {
      WriteRowGroup(buffer_, 0, row_group_rows_);
      buffer_.ResetTo(schema_);
    }
  }
  for (; rows - offset >= row_group_rows_; offset += row_group_rows_) {
    WriteRowGroup(chunk, offset, row_group_rows_);
  }
  buffer_.AppendRange(chunk, offset, rows - offset);
  return Status::OK();
}

void CofWriter::WriteRowGroup(const data::Chunk& chunk, int64_t offset,
                              int64_t rows) {
  RowGroupMeta rg;
  rg.rows = rows;
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const data::Column& column = chunk.column(c);
    ColumnChunkMeta cm;
    cm.offset = static_cast<int64_t>(data_.size());
    SetMinMax(column, static_cast<size_t>(offset), static_cast<size_t>(rows),
              &cm);
    EncodeColumn(column, static_cast<size_t>(offset),
                 static_cast<size_t>(rows), &data_);
    cm.size = static_cast<int64_t>(data_.size()) - cm.offset;
    rg.columns.push_back(cm);
  }
  row_groups_.push_back(std::move(rg));
}

std::string CofWriter::Finish() {
  if (buffer_.rows() > 0) WriteRowGroup(buffer_, 0, buffer_.rows());
  FileMeta meta;
  meta.schema = schema_;
  meta.row_groups = std::move(row_groups_);
  meta.data_size = static_cast<int64_t>(data_.size());
  std::string footer;
  AppendFooter(meta, &footer);
  // Sized exactly: stored files keep their capacity for as long as they live.
  std::string out;
  out.reserve(data_.size() + footer.size() + kCofTrailerSize);
  out += data_;
  out += footer;
  const uint32_t footer_size = static_cast<uint32_t>(footer.size());
  char trailer[8];
  std::memcpy(trailer, &footer_size, 4);
  std::memcpy(trailer + 4, kMagic, 4);
  out.append(trailer, 8);
  return out;
}

std::string WriteCofFile(const data::Schema& schema, const data::Chunk& chunk,
                         int64_t row_group_rows) {
  CofWriter writer(schema, row_group_rows);
  SKYRISE_CHECK_OK(writer.Append(chunk));
  return writer.Finish();
}

FileMeta BuildSyntheticFileMeta(
    const data::Schema& schema, int64_t rows, int64_t target_bytes,
    int64_t row_group_rows,
    const std::vector<SyntheticColumnStats>& stats) {
  SKYRISE_CHECK(rows >= 0 && row_group_rows > 0);
  FileMeta meta;
  meta.schema = schema;
  meta.synthetic = true;
  meta.data_size = target_bytes;
  const int64_t groups = std::max<int64_t>(1, (rows + row_group_rows - 1) /
                                                  row_group_rows);
  const double bytes_per_row =
      rows > 0 ? static_cast<double>(target_bytes) / rows : 0;
  int64_t offset = 0;
  int64_t remaining = rows;
  for (int64_t g = 0; g < groups; ++g) {
    RowGroupMeta rg;
    rg.rows = std::min(remaining, row_group_rows);
    remaining -= rg.rows;
    const int64_t group_bytes =
        static_cast<int64_t>(bytes_per_row * rg.rows);
    const int64_t per_column =
        std::max<int64_t>(1, group_bytes / static_cast<int64_t>(schema.size()));
    for (size_t c = 0; c < schema.size(); ++c) {
      ColumnChunkMeta cm;
      cm.offset = offset;
      cm.size = per_column;
      offset += per_column;
      // Spread each column's global [min, max] range over the row groups so
      // range predicates prune a realistic subset (clustered layout).
      for (const auto& s : stats) {
        if (s.column == schema.field(c).name) {
          const double span = (s.max - s.min) / static_cast<double>(groups);
          cm.min = s.min + span * static_cast<double>(g);
          cm.max = s.min + span * static_cast<double>(g + 1);
        }
      }
      rg.columns.push_back(cm);
    }
    meta.row_groups.push_back(std::move(rg));
  }
  meta.data_size = offset;
  return meta;
}

void AppendFooter(const FileMeta& meta, std::string* out) {
  // Writes `text`, then `value` as a JSON number.
  auto number = [out](const char* text, double value) {
    *out += text;
    AppendJsonNumber(value, out);
  };
  number("{\"data_size\":", static_cast<double>(meta.data_size));
  *out += ",\"row_groups\":[";
  for (size_t g = 0; g < meta.row_groups.size(); ++g) {
    const RowGroupMeta& rg = meta.row_groups[g];
    *out += g == 0 ? "{\"columns\":[" : ",{\"columns\":[";
    for (size_t c = 0; c < rg.columns.size(); ++c) {
      const ColumnChunkMeta& cm = rg.columns[c];
      *out += c == 0 ? "{" : ",{";
      if (cm.max.has_value()) number("\"max\":", *cm.max);
      if (cm.min.has_value()) {
        number(cm.max.has_value() ? ",\"min\":" : "\"min\":", *cm.min);
      }
      const bool bounded = cm.min.has_value() || cm.max.has_value();
      number(bounded ? ",\"offset\":" : "\"offset\":",
             static_cast<double>(cm.offset));
      number(",\"size\":", static_cast<double>(cm.size));
      out->push_back('}');
    }
    number("],\"rows\":", static_cast<double>(rg.rows));
    out->push_back('}');
  }
  *out += "],\"schema\":[";
  for (size_t f = 0; f < meta.schema.size(); ++f) {
    const data::Field& field = meta.schema.field(f);
    *out += f == 0 ? "{\"name\":" : ",{\"name\":";
    AppendJsonString(field.name, out);
    *out += ",\"type\":";
    AppendJsonString(data::DataTypeName(field.type), out);
    out->push_back('}');
  }
  *out += meta.synthetic ? "],\"synthetic\":true}" : "],\"synthetic\":false}";
}

namespace {

// Footer members are read as Json's typed getters read them: a member of
// another type than expected reads as the getter's default.

Status ReadNumberOr0(JsonReader* json, double* out) {
  Json::Type type;
  SKYRISE_RETURN_IF_ERROR(json->Peek(&type));
  if (type == Json::Type::kNumber) return json->ReadNumber(out);
  *out = 0;
  return json->Skip();
}

Status ReadIntOr0(JsonReader* json, int64_t* out) {
  double value = 0;
  SKYRISE_RETURN_IF_ERROR(ReadNumberOr0(json, &value));
  *out = static_cast<int64_t>(std::llround(value));
  return Status::OK();
}

Status ReadStringOrEmpty(JsonReader* json, std::string* out) {
  Json::Type type;
  SKYRISE_RETURN_IF_ERROR(json->Peek(&type));
  out->clear();
  if (type != Json::Type::kString) return json->Skip();
  std::string_view value;
  SKYRISE_RETURN_IF_ERROR(json->ReadString(&value));
  out->assign(value);
  return Status::OK();
}

/// Reads an array of objects, calling `member(key)` for every member of
/// each; `element()` runs before each object and `not_object` is the error
/// for an element of another type. Sets `present` to whether the value was
/// an array at all (anything else is skipped).
template <typename Element, typename Member>
Status ReadObjectArray(JsonReader* json, bool* present, const char* not_object,
                       Element element, Member member) {
  Json::Type type;
  SKYRISE_RETURN_IF_ERROR(json->Peek(&type));
  *present = type == Json::Type::kArray;
  if (!*present) return json->Skip();
  SKYRISE_RETURN_IF_ERROR(json->BeginArray());
  bool more = false;
  while (true) {
    SKYRISE_RETURN_IF_ERROR(json->NextElement(&more));
    if (!more) return Status::OK();
    SKYRISE_RETURN_IF_ERROR(json->Peek(&type));
    if (type != Json::Type::kObject) return Status::IoError(not_object);
    SKYRISE_RETURN_IF_ERROR(element());
    SKYRISE_RETURN_IF_ERROR(json->BeginObject());
    std::string_view key;
    while (true) {
      SKYRISE_RETURN_IF_ERROR(json->NextMember(&more, &key));
      if (!more) break;
      SKYRISE_RETURN_IF_ERROR(member(key));
    }
  }
}

Status ReadColumns(JsonReader* json, RowGroupMeta* rg, bool* present) {
  rg->columns.clear();
  return ReadObjectArray(
      json, present, "footer column not an object",
      [rg] {
        rg->columns.emplace_back();
        return Status::OK();
      },
      [json, rg](std::string_view key) -> Status {
        ColumnChunkMeta& cm = rg->columns.back();
        if (key == "offset") return ReadIntOr0(json, &cm.offset);
        if (key == "size") return ReadIntOr0(json, &cm.size);
        if (key == "min" || key == "max") {
          std::optional<double>& bound = key == "min" ? cm.min : cm.max;
          bound.emplace();
          return ReadNumberOr0(json, &*bound);
        }
        return json->Skip();
      });
}

Status ReadFooterObject(JsonReader* json, FileMeta* meta) {
  Json::Type type;
  SKYRISE_RETURN_IF_ERROR(json->Peek(&type));
  if (type != Json::Type::kObject) {
    return Status::IoError("footer is not an object");
  }
  std::vector<data::Field> fields;
  std::string type_name;
  bool has_schema = false;
  bool has_groups = false;
  // Whether the row group read last carried a column list.
  bool has_columns = true;
  SKYRISE_RETURN_IF_ERROR(json->BeginObject());
  bool more = false;
  std::string_view key;
  while (true) {
    SKYRISE_RETURN_IF_ERROR(json->NextMember(&more, &key));
    if (!more) break;
    if (key == "data_size") {
      SKYRISE_RETURN_IF_ERROR(ReadIntOr0(json, &meta->data_size));
    } else if (key == "synthetic") {
      SKYRISE_RETURN_IF_ERROR(json->Peek(&type));
      meta->synthetic = false;
      if (type == Json::Type::kBool) {
        SKYRISE_RETURN_IF_ERROR(json->ReadBool(&meta->synthetic));
      } else {
        SKYRISE_RETURN_IF_ERROR(json->Skip());
      }
    } else if (key == "schema") {
      fields.clear();
      SKYRISE_RETURN_IF_ERROR(ReadObjectArray(
          json, &has_schema, "footer field not an object",
          [&fields, &type_name] {
            fields.emplace_back();
            type_name.clear();
            return Status::OK();
          },
          [json, &fields, &type_name](std::string_view member) -> Status {
            data::Field& field = fields.back();
            if (member == "name") return ReadStringOrEmpty(json, &field.name);
            if (member == "type") {
              SKYRISE_RETURN_IF_ERROR(ReadStringOrEmpty(json, &type_name));
              field.type = TypeFromName(type_name);
              return Status::OK();
            }
            return json->Skip();
          }));
    } else if (key == "row_groups") {
      meta->row_groups.clear();
      has_columns = true;
      SKYRISE_RETURN_IF_ERROR(ReadObjectArray(
          json, &has_groups, "footer row group lacks columns",
          [meta, &has_columns] {
            if (!has_columns) {
              return Status::IoError("footer row group lacks columns");
            }
            meta->row_groups.emplace_back();
            has_columns = false;
            return Status::OK();
          },
          [json, meta, &has_columns](std::string_view member) -> Status {
            RowGroupMeta& rg = meta->row_groups.back();
            if (member == "rows") return ReadIntOr0(json, &rg.rows);
            if (member == "columns") {
              return ReadColumns(json, &rg, &has_columns);
            }
            return json->Skip();
          }));
      if (!has_columns) {
        return Status::IoError("footer row group lacks columns");
      }
    } else {
      SKYRISE_RETURN_IF_ERROR(json->Skip());
    }
  }
  SKYRISE_RETURN_IF_ERROR(json->Finish());
  if (!has_schema || !has_groups) {
    return Status::IoError("footer lacks a schema or row groups");
  }
  meta->schema = data::Schema(std::move(fields));
  for (const RowGroupMeta& rg : meta->row_groups) {
    for (const ColumnChunkMeta& cm : rg.columns) {
      if (cm.offset < 0 || cm.size < 0 || cm.offset > meta->data_size ||
          cm.size > meta->data_size - cm.offset) {
        return Status::IoError("footer column chunk outside the data region");
      }
    }
    if (rg.columns.size() != meta->schema.size()) {
      return Status::IoError("row group column count mismatch");
    }
  }
  return Status::OK();
}

}  // namespace

Result<FileMeta> ParseFooterText(std::string_view footer) {
  JsonReader json(footer);
  FileMeta meta;
  const Status status = ReadFooterObject(&json, &meta);
  if (status.ok()) return meta;
  // The lexer's syntax errors are InvalidArgument; a bad footer is an I/O
  // error like every other.
  if (status.code() == StatusCode::kIoError) return status;
  return Status::IoError(status.message());
}

Result<std::string_view> FooterText(std::string_view tail, int64_t tail_offset,
                                    int64_t file_size) {
  if (tail.size() < kCofTrailerSize) return Status::IoError("file too small");
  const int64_t tail_end = tail_offset + static_cast<int64_t>(tail.size());
  if (tail_end != file_size) {
    return Status::InvalidArgument("tail does not reach end of file");
  }
  if (std::memcmp(tail.data() + tail.size() - 4, kMagic, 4) != 0) {
    return Status::IoError("bad magic: not a COF file");
  }
  uint32_t footer_size;
  std::memcpy(&footer_size, tail.data() + tail.size() - 8, 4);
  if (footer_size + static_cast<size_t>(kCofTrailerSize) > tail.size()) {
    return Status::IoError("footer larger than fetched tail");
  }
  return tail.substr(tail.size() - kCofTrailerSize - footer_size,
                     footer_size);
}

Result<FileMeta> ParseFooter(std::string_view tail, int64_t tail_offset,
                             int64_t file_size) {
  std::string_view footer;
  SKYRISE_ASSIGN_OR_RETURN(footer, FooterText(tail, tail_offset, file_size));
  FileMeta meta;
  SKYRISE_ASSIGN_OR_RETURN(meta, ParseFooterText(footer));
  // Every column chunk lies inside data_size, so this keeps them all inside
  // the file.
  if (meta.data_size > file_size - static_cast<int64_t>(footer.size()) -
                           kCofTrailerSize) {
    return Status::IoError("data region larger than the file");
  }
  return meta;
}

Result<std::vector<ColumnRange>> RowGroupColumnRanges(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection) {
  if (row_group >= meta.row_groups.size()) {
    return Status::OutOfRange("row group index");
  }
  const RowGroupMeta& rg = meta.row_groups[row_group];
  std::vector<ColumnRange> ranges;
  ranges.reserve(projection.size());
  for (const auto& name : projection) {
    const int idx = meta.schema.FieldIndex(name);
    if (idx < 0) return Status::NotFound("no column: " + name);
    const ColumnChunkMeta& cm = rg.columns[static_cast<size_t>(idx)];
    ranges.push_back(ColumnRange{cm.offset, cm.size});
  }
  return ranges;
}

Status DecodeRowGroupInto(const FileMeta& meta, size_t row_group,
                          const data::Schema& projected,
                          const std::vector<std::string_view>& column_bytes,
                          data::Chunk* out) {
  if (row_group >= meta.row_groups.size()) {
    return Status::OutOfRange("row group index");
  }
  if (projected.size() != column_bytes.size()) {
    return Status::InvalidArgument("projection/bytes size mismatch");
  }
  const RowGroupMeta& rg = meta.row_groups[row_group];
  if (meta.synthetic) {
    *out = data::Chunk::Synthetic(projected, rg.rows);
    return Status::OK();
  }
  out->PrepareFor(projected);
  for (size_t i = 0; i < column_bytes.size(); ++i) {
    SKYRISE_RETURN_IF_ERROR(DecodeColumnInto(
        column_bytes[i].data(), column_bytes[i].size(),
        projected.field(i).type, rg.rows, &out->column(i)));
  }
  return Status::OK();
}

Result<data::Chunk> DecodeRowGroup(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection,
    const std::vector<std::string_view>& column_bytes) {
  data::Schema projected;
  SKYRISE_ASSIGN_OR_RETURN(projected, meta.schema.Select(projection));
  data::Chunk chunk;
  SKYRISE_RETURN_IF_ERROR(
      DecodeRowGroupInto(meta, row_group, projected, column_bytes, &chunk));
  return chunk;
}

}  // namespace skyrise::format
