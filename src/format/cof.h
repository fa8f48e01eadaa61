#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse_memo.h"
#include "data/chunk.h"

/// \file cof.h
/// COF — Columnar Object Format. A Parquet/ORC-style immutable columnar file
/// used for base tables and shuffle intermediates:
///
///   [row group 0: col chunk 0, col chunk 1, ...]
///   [row group 1: ...]
///   [JSON footer: schema, per-row-group column offsets/sizes, min/max]
///   [footer length: 4 bytes LE][magic "COF1"]
///
/// Readers fetch the footer with a single trailing range request, prune row
/// groups by min/max statistics (selection pushdown), and fetch only the
/// column chunks a query projects (projection pushdown) — the Section 3.2
/// access pattern on cloud object storage.
///
/// A *synthetic* file (paper-scale runs) materializes only its footer; scans
/// yield row-count-only chunks through the same request sequence.
///
/// The footer is JSON text (DESIGN.md "COF footer" gives its byte layout).
/// AppendFooter writes it and ParseFooterText reads it straight into a
/// FileMeta, with no Json tree on either side; the reader runs on
/// JsonReader, the lexer under Json::Parse. Decoders take the column bytes
/// as views, so a reader decodes where the bytes already lie.

namespace skyrise::format {

struct ColumnChunkMeta {
  int64_t offset = 0;  ///< Absolute file offset.
  int64_t size = 0;
  std::optional<double> min;  ///< Min/max: numeric and date columns only.
  std::optional<double> max;
};

struct RowGroupMeta {
  int64_t rows = 0;
  std::vector<ColumnChunkMeta> columns;  ///< One per schema field.
};

struct FileMeta {
  data::Schema schema;
  std::vector<RowGroupMeta> row_groups;
  int64_t data_size = 0;  ///< Bytes before the footer.
  bool synthetic = false;

  int64_t TotalRows() const;
};

constexpr int64_t kCofTrailerSize = 8;  ///< Footer length + magic.
/// Readers fetch this much from the file tail to get trailer + footer in one
/// request for typical footers.
constexpr int64_t kFooterFetchSize = 16 * 1024;

class CofWriter {
 public:
  /// `row_group_rows`: target rows per row group.
  explicit CofWriter(data::Schema schema, int64_t row_group_rows = 65536);

  /// Appends a materialized chunk, split across row groups as needed.
  /// Whole row groups are encoded straight from `chunk`'s columns; only a
  /// partial group's rows are buffered.
  [[nodiscard]] Status Append(const data::Chunk& chunk);

  /// Finalizes and returns the file bytes.
  std::string Finish();

 private:
  /// Encodes rows [offset, offset + rows) of `chunk` as one row group.
  void WriteRowGroup(const data::Chunk& chunk, int64_t offset, int64_t rows);

  data::Schema schema_;
  int64_t row_group_rows_;
  data::Chunk buffer_;
  std::string data_;
  std::vector<RowGroupMeta> row_groups_;
};

/// Serializes a materialized chunk of `schema` in one call.
std::string WriteCofFile(const data::Schema& schema, const data::Chunk& chunk,
                         int64_t row_group_rows = 65536);

/// Builds the footer for a synthetic file of `rows` rows and roughly
/// `target_bytes` of data, with per-column min/max ranges supplied by
/// `stats` (nullptr => no stats). Returns (footer-only file bytes to attach,
/// total synthetic file size). The returned FileMeta describes the file.
struct SyntheticColumnStats {
  std::string column;
  double min = 0;
  double max = 0;
};

FileMeta BuildSyntheticFileMeta(const data::Schema& schema, int64_t rows,
                                int64_t target_bytes, int64_t row_group_rows,
                                const std::vector<SyntheticColumnStats>& stats);

/// Appends the footer text of `meta`: compact JSON whose members appear in
/// byte order of their names, with numbers and strings as Json::Dump writes
/// them (AppendJsonNumber, AppendJsonString). Min and max are written only
/// when set.
void AppendFooter(const FileMeta& meta, std::string* out);

/// Reads footer text. Members may come in any order, with any whitespace;
/// unknown members are skipped. A footer that is not JSON, lacks its schema,
/// row groups or column lists, has a column chunk outside the data region,
/// or a row group whose column count differs from the schema's, is an
/// IoError.
[[nodiscard]] Result<FileMeta> ParseFooterText(std::string_view footer);

/// The footer text at the end of `tail`, the trailing bytes of a file of
/// `file_size` bytes that begin at file offset `tail_offset`, once the
/// trailer checks out.
[[nodiscard]] Result<std::string_view> FooterText(std::string_view tail,
                                                  int64_t tail_offset,
                                                  int64_t file_size);

/// FooterText, then ParseFooterText. A footer whose data region runs past
/// the bytes in front of it is an IoError.
[[nodiscard]] Result<FileMeta> ParseFooter(std::string_view tail,
                                           int64_t tail_offset,
                                           int64_t file_size);

/// ParseFooterText for immutable files read many times, such as base
/// tables: each distinct footer text is parsed once. Shuffle objects are
/// read once each and bypass it.
using FooterMemo = ParseMemo<FileMeta, ParseFooterText>;

/// One ranged read needed to fetch a projected column chunk of a row group.
struct ColumnRange {
  int64_t offset = 0;  ///< Absolute file offset.
  int64_t size = 0;
};

/// The ranged reads needed to decode row group `row_group` restricted to
/// `projection` (in projection order) — the unit of incremental, per-row-group
/// fetching. Synthetic files report the same ranges so the request sequence
/// matches the real layout.
[[nodiscard]] Result<std::vector<ColumnRange>> RowGroupColumnRanges(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection);

/// Decodes one row group (selected columns, in `projection` order) from
/// per-column chunk bytes.
[[nodiscard]] Result<data::Chunk> DecodeRowGroup(
    const FileMeta& meta, size_t row_group,
    const std::vector<std::string>& projection,
    const std::vector<std::string_view>& column_bytes);

/// Decode-into variant: reshapes `out` to `projected`, the file schema's
/// Select of the projection, which is fixed per file and so built once by
/// the caller, and decodes each column chunk into its reused buffers (see
/// format::DecodeColumnInto). With a pooled `out` chunk, steady-state
/// row-group decode performs no column-vector allocations; a string column
/// takes a new dictionary only when another column shares its own.
/// Synthetic files
/// reset `out` to a synthetic chunk. On error `out`'s contents are
/// unspecified.
[[nodiscard]] Status DecodeRowGroupInto(
    const FileMeta& meta, size_t row_group, const data::Schema& projected,
    const std::vector<std::string_view>& column_bytes, data::Chunk* out);

/// Registry of synthetic file footers, consulted by readers when the stored
/// blob carries no real bytes. Keyed by the storage key.
class SyntheticFileCatalog {
 public:
  void Register(const std::string& key, FileMeta meta) {
    files_[key] = std::move(meta);
  }
  [[nodiscard]] Result<FileMeta> Find(const std::string& key) const {
    auto it = files_.find(key);
    if (it == files_.end()) return Status::NotFound("no synthetic meta: " + key);
    return it->second;
  }
  bool Contains(const std::string& key) const { return files_.count(key) > 0; }

 private:
  std::map<std::string, FileMeta> files_;
};

}  // namespace skyrise::format
