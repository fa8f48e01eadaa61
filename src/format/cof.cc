#include "format/cof.h"

#include <algorithm>
#include <cstring>

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

data::DataType TypeFromName(const std::string& name) {
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

Json FileMeta::ToJson() const {
  Json out = Json::Object();
  Json schema_json = Json::Array();
  for (const auto& field : schema.fields()) {
    Json f = Json::Object();
    f["name"] = field.name;
    f["type"] = data::DataTypeName(field.type);
    schema_json.Append(std::move(f));
  }
  out["schema"] = std::move(schema_json);
  out["data_size"] = data_size;
  out["synthetic"] = synthetic;
  Json groups = Json::Array();
  for (const auto& rg : row_groups) {
    Json g = Json::Object();
    g["rows"] = rg.rows;
    Json cols = Json::Array();
    for (const auto& c : rg.columns) {
      Json cj = Json::Object();
      cj["offset"] = c.offset;
      cj["size"] = c.size;
      if (c.min.has_value()) cj["min"] = *c.min;
      if (c.max.has_value()) cj["max"] = *c.max;
      cols.Append(std::move(cj));
    }
    g["columns"] = std::move(cols);
    groups.Append(std::move(g));
  }
  out["row_groups"] = std::move(groups);
  return out;
}

Result<FileMeta> FileMeta::FromJson(const Json& json) {
  if (!json.is_object()) return Status::IoError("footer is not an object");
  if (!json.Get("schema").is_array() || !json.Get("row_groups").is_array()) {
    return Status::IoError("footer lacks a schema or row groups");
  }
  FileMeta meta;
  std::vector<data::Field> fields;
  for (const auto& f : json.Get("schema").AsArray()) {
    if (!f.is_object()) return Status::IoError("footer field not an object");
    fields.push_back(
        data::Field{f.GetString("name"), TypeFromName(f.GetString("type"))});
  }
  meta.schema = data::Schema(std::move(fields));
  meta.data_size = json.GetInt("data_size");
  meta.synthetic = json.GetBool("synthetic");
  for (const auto& g : json.Get("row_groups").AsArray()) {
    if (!g.is_object() || !g.Get("columns").is_array()) {
      return Status::IoError("footer row group lacks columns");
    }
    RowGroupMeta rg;
    rg.rows = g.GetInt("rows");
    for (const auto& c : g.Get("columns").AsArray()) {
      if (!c.is_object()) return Status::IoError("footer column not an object");
      ColumnChunkMeta cm;
      cm.offset = c.GetInt("offset");
      cm.size = c.GetInt("size");
      if (cm.offset < 0 || cm.size < 0 || cm.offset > meta.data_size ||
          cm.size > meta.data_size - cm.offset) {
        return Status::IoError("footer column chunk outside the data region");
      }
      if (c.Has("min")) cm.min = c.GetDouble("min");
      if (c.Has("max")) cm.max = c.GetDouble("max");
      rg.columns.push_back(cm);
    }
    if (rg.columns.size() != meta.schema.size()) {
      return Status::IoError("row group column count mismatch");
    }
    meta.row_groups.push_back(std::move(rg));
  }
  return meta;
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
  const std::string footer = meta.ToJson().Dump();
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

namespace {

/// The footer bytes at the end of `tail`, once the trailer checks out.
Result<std::string_view> FooterBytes(const std::string& tail,
                                     int64_t tail_offset, int64_t file_size) {
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
  return std::string_view(tail).substr(
      tail.size() - kCofTrailerSize - footer_size, footer_size);
}

Result<FileMeta> ParseFooterBytes(std::string_view footer) {
  Json json;
  SKYRISE_ASSIGN_OR_RETURN(json, Json::Parse(std::string(footer)));
  return FileMeta::FromJson(json);
}

}  // namespace

Result<FileMeta> ParseFooter(const std::string& tail, int64_t tail_offset,
                             int64_t file_size) {
  std::string_view footer;
  SKYRISE_ASSIGN_OR_RETURN(footer, FooterBytes(tail, tail_offset, file_size));
  return ParseFooterBytes(footer);
}

Result<std::shared_ptr<const FileMeta>> FooterMemo::Parse(
    const std::string& tail, int64_t tail_offset, int64_t file_size) {
  std::string_view footer;
  SKYRISE_ASSIGN_OR_RETURN(footer, FooterBytes(tail, tail_offset, file_size));
  auto it = parsed_.find(footer);
  if (it == parsed_.end()) {
    FileMeta meta;
    SKYRISE_ASSIGN_OR_RETURN(meta, ParseFooterBytes(footer));
    it = parsed_
             .emplace(std::string(footer),
                      std::make_shared<const FileMeta>(std::move(meta)))
             .first;
  }
  return it->second;
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
                          const std::vector<std::string>& projection,
                          const std::vector<std::string>& column_bytes,
                          data::Chunk* out) {
  if (row_group >= meta.row_groups.size()) {
    return Status::OutOfRange("row group index");
  }
  if (projection.size() != column_bytes.size()) {
    return Status::InvalidArgument("projection/bytes size mismatch");
  }
  const RowGroupMeta& rg = meta.row_groups[row_group];
  data::Schema projected;
  SKYRISE_ASSIGN_OR_RETURN(projected, meta.schema.Select(projection));
  if (meta.synthetic) {
    *out = data::Chunk::Synthetic(std::move(projected), rg.rows);
    return Status::OK();
  }
  out->PrepareFor(projected);
  for (size_t i = 0; i < projection.size(); ++i) {
    SKYRISE_RETURN_IF_ERROR(DecodeColumnInto(
        column_bytes[i].data(), column_bytes[i].size(),
        projected.field(i).type, rg.rows, &out->column(i)));
  }
  return Status::OK();
}

Result<data::Chunk> DecodeRowGroup(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection,
    const std::vector<std::string>& column_bytes) {
  data::Chunk chunk;
  SKYRISE_RETURN_IF_ERROR(
      DecodeRowGroupInto(meta, row_group, projection, column_bytes, &chunk));
  return chunk;
}

}  // namespace skyrise::format
