#include "datagen/dataset.h"

#include "common/string_util.h"

namespace skyrise::datagen {

Json DatasetInfo::ToJson() const {
  Json out = Json::Object();
  out["name"] = name;
  Json schema_json = Json::Array();
  for (const auto& field : schema.fields()) {
    Json f = Json::Object();
    f["name"] = field.name;
    f["type"] = data::DataTypeName(field.type);
    schema_json.Append(std::move(f));
  }
  out["schema"] = std::move(schema_json);
  Json parts = Json::Array();
  for (const auto& p : partitions) {
    Json pj = Json::Object();
    pj["key"] = p.key;
    pj["size"] = p.size_bytes;
    pj["rows"] = p.rows;
    parts.Append(std::move(pj));
  }
  out["partitions"] = std::move(parts);
  out["total_bytes"] = total_bytes;
  out["total_rows"] = total_rows;
  return out;
}

Result<DatasetInfo> DatasetInfo::FromJson(const Json& json) {
  if (!json.is_object()) return Status::IoError("manifest is not an object");
  if (!json.Get("schema").is_array() || !json.Get("partitions").is_array()) {
    return Status::IoError("manifest lacks a schema or partitions");
  }
  DatasetInfo info;
  info.name = json.GetString("name");
  std::vector<data::Field> fields;
  for (const auto& f : json.Get("schema").AsArray()) {
    const std::string type = f.GetString("type");
    data::DataType dt = data::DataType::kInt64;
    if (type == "double") dt = data::DataType::kDouble;
    if (type == "string") dt = data::DataType::kString;
    if (type == "date") dt = data::DataType::kDate;
    fields.push_back(data::Field{f.GetString("name"), dt});
  }
  info.schema = data::Schema(std::move(fields));
  for (const auto& p : json.Get("partitions").AsArray()) {
    info.partitions.push_back(PartitionInfo{
        p.GetString("key"), p.GetInt("size"), p.GetInt("rows")});
  }
  info.total_bytes = json.GetInt("total_bytes");
  info.total_rows = json.GetInt("total_rows");
  return info;
}

std::string DatasetPartitionKey(const std::string& name, int partition) {
  return StrFormat("tables/%s/part-%05d.cof", name.c_str(), partition);
}

std::string DatasetManifestKey(const std::string& name) {
  return StrFormat("tables/%s/manifest.json", name.c_str());
}

Result<DatasetInfo> UploadDataset(
    storage::StorageService* store, const std::string& name,
    const data::Schema& schema, int partition_count,
    const std::function<data::Chunk(int)>& generator,
    int64_t row_group_rows) {
  DatasetInfo info;
  info.name = name;
  info.schema = schema;
  for (int p = 0; p < partition_count; ++p) {
    data::Chunk chunk = generator(p);
    if (!(chunk.schema() == schema)) {
      return Status::InvalidArgument("generator schema mismatch");
    }
    const std::string bytes =
        format::WriteCofFile(schema, chunk, row_group_rows);
    PartitionInfo part;
    part.key = DatasetPartitionKey(name, p);
    part.size_bytes = static_cast<int64_t>(bytes.size());
    part.rows = chunk.rows();
    info.total_bytes += part.size_bytes;
    info.total_rows += part.rows;
    SKYRISE_RETURN_IF_ERROR(
        store->Insert(part.key, storage::Blob::FromString(bytes)));
    info.partitions.push_back(std::move(part));
  }
  SKYRISE_RETURN_IF_ERROR(
      store->Insert(DatasetManifestKey(name),
                    storage::Blob::FromString(info.ToJson().Dump())));
  return info;
}

Result<DatasetInfo> UploadSyntheticDataset(
    storage::StorageService* store, format::SyntheticFileCatalog* catalog,
    const std::string& name, const data::Schema& schema, int partition_count,
    int64_t rows_per_partition, int64_t bytes_per_partition,
    const std::vector<format::SyntheticColumnStats>& stats,
    int64_t row_group_rows) {
  DatasetInfo info;
  info.name = name;
  info.schema = schema;
  for (int p = 0; p < partition_count; ++p) {
    format::FileMeta meta = format::BuildSyntheticFileMeta(
        schema, rows_per_partition, bytes_per_partition, row_group_rows,
        stats);
    PartitionInfo part;
    part.key = DatasetPartitionKey(name, p);
    part.size_bytes = meta.data_size + format::kCofTrailerSize;
    part.rows = rows_per_partition;
    info.total_bytes += part.size_bytes;
    info.total_rows += part.rows;
    SKYRISE_RETURN_IF_ERROR(
        store->Insert(part.key, storage::Blob::Synthetic(part.size_bytes)));
    catalog->Register(part.key, std::move(meta));
    info.partitions.push_back(std::move(part));
  }
  SKYRISE_RETURN_IF_ERROR(
      store->Insert(DatasetManifestKey(name),
                    storage::Blob::FromString(info.ToJson().Dump())));
  return info;
}

Result<DatasetInfo> ParseManifest(std::string_view text) {
  Json json;
  SKYRISE_ASSIGN_OR_RETURN(json, Json::Parse(text));
  return DatasetInfo::FromJson(json);
}

Result<DatasetInfo> ReadManifest(const storage::StorageService& store,
                                 const std::string& name) {
  storage::Blob blob;
  SKYRISE_ASSIGN_OR_RETURN(blob, store.Peek(DatasetManifestKey(name)));
  return ParseManifest(blob.bytes());
}

}  // namespace skyrise::datagen
