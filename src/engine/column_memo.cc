#include "engine/column_memo.h"

#include <algorithm>
#include <functional>
#include <string_view>

#include "format/encoding.h"

namespace skyrise::engine {

size_t ColumnChunkMemo::KeyHash::operator()(const Key& key) const {
  size_t h = std::hash<const char*>()(key.start);
  h = h * 31 + std::hash<int64_t>()(key.size);
  h = h * 31 + std::hash<int64_t>()(key.rows);
  return h * 31 + static_cast<size_t>(key.type);
}

Result<const data::Column*> ColumnChunkMemo::Decode(const storage::Blob& chunk,
                                                    data::DataType type,
                                                    int64_t rows) {
  const std::string_view bytes = chunk.bytes();
  const Key key{bytes.data(), chunk.size(), type, rows};
  auto it = entries_.find(key);
  if (it != entries_.end() && !it->second.buffer.expired()) {
    ++hits_;
    return &it->second.column;
  }
  ++misses_;
  Entry entry{chunk.buffer(), data::Column(type)};
  SKYRISE_RETURN_IF_ERROR(format::DecodeColumnInto(
      bytes.data(), bytes.size(), type, rows, &entry.column));
  if (entry.column.dict() != nullptr) entry.column.dict()->Freeze();
  if (it != entries_.end()) {
    it->second = std::move(entry);
  } else {
    it = entries_.emplace(key, std::move(entry)).first;
    // The sweep keeps `it`: its buffer is the caller's.
    if (entries_.size() >= sweep_at_) Sweep();
  }
  return &it->second.column;
}

void ColumnChunkMemo::Sweep() {
  std::erase_if(entries_, [](const auto& entry) {
    return entry.second.buffer.expired();
  });
  sweep_at_ = std::max(kFirstSweep, 2 * entries_.size());
}

}  // namespace skyrise::engine
