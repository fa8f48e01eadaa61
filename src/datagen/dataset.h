#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "format/cof.h"
#include "storage/storage_service.h"

/// \file dataset.h
/// Dataset loading: encodes partitioned tables into COF files and registers
/// them in a storage service under `tables/<name>/part-NNNNN.cof` plus a
/// `manifest.json` the coordinator reads for file counts and sizes (the
/// paper's "metadata on the referenced pipeline input datasets").

namespace skyrise::datagen {

struct PartitionInfo {
  std::string key;
  int64_t size_bytes = 0;
  int64_t rows = 0;
};

struct DatasetInfo {
  std::string name;
  data::Schema schema;
  std::vector<PartitionInfo> partitions;
  int64_t total_bytes = 0;
  int64_t total_rows = 0;

  Json ToJson() const;
  /// IoError when the schema or partition list is missing or mistyped.
  [[nodiscard]] static Result<DatasetInfo> FromJson(const Json& json);
};

/// Parses manifest text (Json::Parse, then DatasetInfo::FromJson).
[[nodiscard]] Result<DatasetInfo> ParseManifest(std::string_view text);

/// Uploads a real dataset: `generator(partition)` produces each partition's
/// rows, which are COF-encoded and stored. Returns the manifest (also stored
/// as `tables/<name>/manifest.json`).
[[nodiscard]] Result<DatasetInfo> UploadDataset(
    storage::StorageService* store, const std::string& name,
    const data::Schema& schema, int partition_count,
    const std::function<data::Chunk(int)>& generator,
    int64_t row_group_rows = 65536);

/// Uploads a synthetic dataset: footers are registered in `catalog`, blobs
/// are size-only. `rows_per_partition` and `bytes_per_partition` set the
/// geometry; `stats` clusters per-column value ranges across row groups.
[[nodiscard]] Result<DatasetInfo> UploadSyntheticDataset(
    storage::StorageService* store, format::SyntheticFileCatalog* catalog,
    const std::string& name, const data::Schema& schema, int partition_count,
    int64_t rows_per_partition, int64_t bytes_per_partition,
    const std::vector<format::SyntheticColumnStats>& stats,
    int64_t row_group_rows = 1 << 20);

/// Reads a dataset manifest back from storage (instant control-plane read;
/// the coordinator's timed metadata fetch goes through the data plane).
[[nodiscard]] Result<DatasetInfo> ReadManifest(const storage::StorageService& store,
                                 const std::string& name);

/// Key helpers.
std::string DatasetPartitionKey(const std::string& name, int partition);
std::string DatasetManifestKey(const std::string& name);

}  // namespace skyrise::datagen
