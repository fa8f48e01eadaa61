#include "format/encoding.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <numeric>
#include <string_view>
#include <vector>

namespace skyrise::format {

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

Result<uint64_t> GetVarint(const std::string& in, size_t* pos) {
  uint64_t v = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(in[(*pos)++]);
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
  return Status::IoError("truncated varint");
}

uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

namespace {

// Deltas wrap around in two's complement: between extreme values (say
// INT64_MAX then INT64_MIN) they overflow int64_t, and the encoding stores
// the wrapped difference.
int64_t WrappingSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrappingAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

/// Finds the distinct keys of `count` rows (`key_of(row)`, a code or a
/// value) in first-seen order through a 512-slot open-addressing table: one
/// hash and a short probe per row. Stores each key's value in `distinct`
/// and each row's first-seen index in `ids`; false past 255 keys.
template <typename KeyOf, typename ValueOf>
bool FirstSeen(size_t count, KeyOf key_of, ValueOf value_of,
               std::array<std::string_view, 255>* distinct,
               size_t* distinct_count, uint8_t* ids) {
  using Key = decltype(key_of(0));
  std::array<Key, 255> keys;
  std::array<int16_t, 512> slots;
  slots.fill(-1);
  for (size_t i = 0; i < count; ++i) {
    const Key key = key_of(i);
    size_t slot = std::hash<Key>{}(key) & (slots.size() - 1);
    while (slots[slot] >= 0 && keys[static_cast<size_t>(slots[slot])] != key) {
      slot = (slot + 1) & (slots.size() - 1);
    }
    if (slots[slot] < 0) {
      if (*distinct_count == keys.size()) return false;
      slots[slot] = static_cast<int16_t>(*distinct_count);
      keys[*distinct_count] = key;
      (*distinct)[(*distinct_count)++] = value_of(key);
    }
    ids[i] = static_cast<uint8_t>(slots[slot]);
  }
  return true;
}

}  // namespace

ColumnEncoding EncodeColumn(const data::Column& column, size_t offset,
                            size_t count, std::string* out) {
  using data::DataType;
  SKYRISE_CHECK(offset + count <= column.size());
  switch (column.type()) {
    case DataType::kDouble: {
      out->push_back(static_cast<char>(ColumnEncoding::kDoubleRaw));
      const size_t base = out->size();
      out->resize(base + count * 8);
      std::memcpy(out->data() + base, column.doubles().data() + offset,
                  count * 8);
      return ColumnEncoding::kDoubleRaw;
    }
    case DataType::kString: {
      const uint32_t* codes = column.codes().data() + offset;
      const data::StringDict* dict = column.dict().get();
      // Distinct values in first-seen order. A distinct dictionary names
      // each value by one code, so codes find them; other dictionaries may
      // repeat a value under two codes, so values do. A chunk with more
      // than 255 of them is written plain.
      std::array<std::string_view, 255> distinct;
      size_t distinct_count = 0;
      std::vector<uint8_t> first_seen_ids(count);
      const bool dictionary =
          count > 0 &&
          (dict->distinct()
               ? FirstSeen(
                     count, [codes](size_t i) { return codes[i]; },
                     [dict](uint32_t code) { return dict->value(code); },
                     &distinct, &distinct_count, first_seen_ids.data())
               : FirstSeen(
                     count,
                     [codes, dict](size_t i) { return dict->value(codes[i]); },
                     [](std::string_view value) { return value; }, &distinct,
                     &distinct_count, first_seen_ids.data()));
      if (dictionary) {
        out->push_back(static_cast<char>(ColumnEncoding::kStringDict));
        // Ids follow the values' sorted order, so the bytes do not depend
        // on which value a chunk meets first.
        std::array<uint8_t, 255> sorted;
        std::iota(sorted.begin(), sorted.begin() + distinct_count, 0);
        std::sort(sorted.begin(), sorted.begin() + distinct_count,
                  [&distinct](uint8_t a, uint8_t b) {
                    return distinct[a] < distinct[b];
                  });
        std::array<uint8_t, 255> id_of;
        PutVarint(out, distinct_count);
        for (size_t id = 0; id < distinct_count; ++id) {
          id_of[sorted[id]] = static_cast<uint8_t>(id);
          PutVarint(out, distinct[sorted[id]].size());
          out->append(distinct[sorted[id]]);
        }
        for (uint8_t first_seen : first_seen_ids) {
          out->push_back(static_cast<char>(id_of[first_seen]));
        }
        return ColumnEncoding::kStringDict;
      }
      out->push_back(static_cast<char>(ColumnEncoding::kStringPlain));
      for (size_t i = 0; i < count; ++i) {
        const std::string_view value = dict->value(codes[i]);
        PutVarint(out, value.size());
        out->append(value);
      }
      return ColumnEncoding::kStringPlain;
    }
    default: {  // kInt64 / kDate.
      out->push_back(static_cast<char>(ColumnEncoding::kIntDelta));
      int64_t prev = 0;
      const int64_t* values = column.ints().data() + offset;
      for (size_t i = 0; i < count; ++i) {
        PutVarint(out, ZigzagEncode(WrappingSub(values[i], prev)));
        prev = values[i];
      }
      return ColumnEncoding::kIntDelta;
    }
  }
}

namespace {

/// Pointer-walking varint decode over a contiguous span; returns the
/// position past the varint, or nullptr on truncation/overflow. The caller
/// handles the one-byte fast path inline, so this only runs for multi-byte
/// values.
inline const uint8_t* GetVarintSpan(const uint8_t* p, const uint8_t* end,
                                    uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (p < end && shift <= 63) {
    const uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return p;
    }
    shift += 7;
  }
  return nullptr;
}

}  // namespace

Status DecodeColumnInto(const char* data, size_t size, data::DataType type,
                        int64_t rows, data::Column* out) {
  using data::DataType;
  if (size == 0) return Status::IoError("empty column chunk");
  if (out->type() != type) out->Reset(type);
  const auto encoding = static_cast<ColumnEncoding>(data[0]);
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data) + 1;
  const uint8_t* const end = reinterpret_cast<const uint8_t*>(data) + size;
  switch (encoding) {
    case ColumnEncoding::kDoubleRaw: {
      if (type != DataType::kDouble) {
        return Status::IoError("encoding/type mismatch");
      }
      if (static_cast<size_t>(end - p) < static_cast<size_t>(rows) * 8) {
        return Status::IoError("truncated double chunk");
      }
      out->doubles().resize(static_cast<size_t>(rows));
      std::memcpy(out->doubles().data(), p, static_cast<size_t>(rows) * 8);
      return Status::OK();
    }
    case ColumnEncoding::kStringDict: {
      if (type != DataType::kString) {
        return Status::IoError("encoding/type mismatch");
      }
      uint64_t dict_size = 0;
      p = GetVarintSpan(p, end, &dict_size);
      if (p == nullptr) return Status::IoError("truncated varint");
      // One-byte ids address at most 256 entries, and each entry takes at
      // least its length byte: check before reserving the claimed size.
      if (dict_size > 256 || dict_size > static_cast<uint64_t>(end - p)) {
        return Status::IoError("bad dictionary size");
      }
      std::array<std::string_view, 256> entries;
      bool ascending = true;
      size_t value_bytes = 0;
      for (uint64_t i = 0; i < dict_size; ++i) {
        uint64_t len = 0;
        p = GetVarintSpan(p, end, &len);
        if (p == nullptr) return Status::IoError("truncated varint");
        if (static_cast<size_t>(end - p) < len) {
          return Status::IoError("truncated dictionary");
        }
        entries[i] = std::string_view(reinterpret_cast<const char*>(p), len);
        value_bytes += len;
        ascending = ascending && (i == 0 || entries[i - 1] < entries[i]);
        p += len;
      }
      if (static_cast<size_t>(end - p) < static_cast<size_t>(rows)) {
        return Status::IoError("truncated dict indices");
      }
      // Values that strictly ascend, as the encoder writes them, are
      // distinct; a chunk that repeats one keeps both entries.
      data::StringDict* dict = out->RefillDict(ascending);
      dict->Reserve(dict_size, value_bytes);
      for (uint64_t i = 0; i < dict_size; ++i) dict->Add(entries[i]);
      auto& codes = out->codes();
      codes.resize(static_cast<size_t>(rows));
      uint32_t* dst = codes.data();
      uint8_t max_id = 0;
      for (int64_t i = 0; i < rows; ++i) {
        dst[i] = p[i];
        max_id = std::max(max_id, p[i]);
      }
      if (rows > 0 && max_id >= dict_size) {
        codes.clear();
        return Status::IoError("bad dict index");
      }
      return Status::OK();
    }
    case ColumnEncoding::kStringPlain: {
      if (type != DataType::kString) {
        return Status::IoError("encoding/type mismatch");
      }
      // One value per row: code i is row i.
      data::StringDict* dict = out->RefillDict(false);
      // Each row takes at least its length byte.
      const size_t max_rows =
          std::min(static_cast<size_t>(rows), static_cast<size_t>(end - p));
      dict->Reserve(max_rows, static_cast<size_t>(end - p));
      auto& codes = out->codes();
      codes.reserve(max_rows);
      for (int64_t i = 0; i < rows; ++i) {
        uint64_t len = 0;
        if (p < end && *p < 0x80) {
          len = *p++;  // One-byte fast path: typical TPC string lengths.
        } else {
          p = GetVarintSpan(p, end, &len);
          if (p == nullptr) return Status::IoError("truncated varint");
        }
        if (static_cast<size_t>(end - p) < len) {
          return Status::IoError("truncated string");
        }
        codes.push_back(
            dict->Add(std::string_view(reinterpret_cast<const char*>(p), len)));
        p += len;
      }
      return Status::OK();
    }
    case ColumnEncoding::kIntDelta: {
      if (type != DataType::kInt64 && type != DataType::kDate) {
        return Status::IoError("encoding/type mismatch");
      }
      auto& ints = out->ints();
      ints.resize(static_cast<size_t>(rows));
      int64_t* dst = ints.data();
      int64_t prev = 0;
      for (int64_t i = 0; i < rows; ++i) {
        if (p < end && *p < 0x80) {
          // One-byte fast path: deltas of sorted keys / small domains.
          prev = WrappingAdd(prev, ZigzagDecode(*p++));
          dst[i] = prev;
          continue;
        }
        uint64_t raw = 0;
        p = GetVarintSpan(p, end, &raw);
        if (p == nullptr) return Status::IoError("truncated varint");
        prev = WrappingAdd(prev, ZigzagDecode(raw));
        dst[i] = prev;
      }
      return Status::OK();
    }
  }
  return Status::IoError("unknown encoding");
}

Result<data::Column> DecodeColumn(const std::string& bytes,
                                  data::DataType type, int64_t rows) {
  data::Column column(type);
  SKYRISE_RETURN_IF_ERROR(
      DecodeColumnInto(bytes.data(), bytes.size(), type, rows, &column));
  return column;
}

}  // namespace skyrise::format
