#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/result.h"
#include "data/chunk.h"
#include "storage/blob.h"

/// \file column_memo.h
/// ColumnChunkMemo: table column chunks decoded once per engine instance
/// (see engine::EngineContext, DESIGN.md §12.7). A scan hands it each column
/// range that arrived in one GET, a view of the stored object, and gets the
/// decoded column back: decoded on the first request for where those bytes
/// lie, shared after. Host-side only: the caller still issues and bills
/// every request and charges every decoded byte. Not thread-safe.

namespace skyrise::engine {

class ColumnChunkMemo {
 public:
  /// The column that `chunk`, a real view, decodes to as `rows` values of
  /// `type`. It stays valid while a view of `chunk`'s buffer lives: only
  /// the entries of freed buffers are dropped. Memo columns are immutable:
  /// their string dictionaries are frozen, so a column that gathers from one
  /// shares it and one that appends other values into it takes a copy
  /// first. Decode failures are returned each time and not remembered.
  [[nodiscard]] Result<const data::Column*> Decode(const storage::Blob& chunk,
                                                   data::DataType type,
                                                   int64_t rows);

  /// Drops the entries whose buffers are freed. Decode sweeps whenever the
  /// entries have doubled since the last sweep.
  void Sweep();

  size_t size() const { return entries_.size(); }
  int64_t hits() const { return hits_; }
  /// Decodes run, failed ones included.
  int64_t misses() const { return misses_; }

 private:
  /// Where the bytes lie and how they decode. An entry matches only while
  /// its buffer lives: a live buffer cannot be reallocated at the same
  /// address, and stored buffers are immutable.
  struct Key {
    const char* start = nullptr;
    int64_t size = 0;
    data::DataType type = data::DataType::kInt64;
    int64_t rows = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  struct Entry {
    std::weak_ptr<const char> buffer;
    data::Column column;
  };

  static constexpr size_t kFirstSweep = 64;

  std::unordered_map<Key, Entry, KeyHash> entries_;
  size_t sweep_at_ = kFirstSweep;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
};

}  // namespace skyrise::engine
