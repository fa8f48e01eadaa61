#pragma once

#include <cstdint>
#include <string>

#include "common/result.h"
#include "data/chunk.h"

/// \file encoding.h
/// Column-chunk encodings for the COF file format: zigzag-varint deltas for
/// integers/dates, raw little-endian doubles, and dictionary or plain
/// layouts for strings (dictionary when the value domain is small, as for
/// TPC flag/mode columns — this is where most of the compression comes from).

namespace skyrise::format {

// Low-level primitives (exposed for tests).
void PutVarint(std::string* out, uint64_t v);
[[nodiscard]] Result<uint64_t> GetVarint(const std::string& in, size_t* pos);
uint64_t ZigzagEncode(int64_t v);
int64_t ZigzagDecode(uint64_t v);

enum class ColumnEncoding : uint8_t {
  kIntDelta = 0,    ///< Zigzag-varint of deltas.
  kDoubleRaw = 1,   ///< 8-byte little-endian.
  kStringPlain = 2,
  kStringDict = 3,
};

/// Appends the encoding of rows [offset, offset + count) of a column to
/// `out`; returns the encoding used. The first byte of the encoded chunk
/// records the encoding. A string chunk of at most 255 distinct values is
/// written as a dictionary of them, sorted, else plain.
ColumnEncoding EncodeColumn(const data::Column& column, size_t offset,
                            size_t count, std::string* out);

/// EncodeColumn over all of `column`'s rows.
inline ColumnEncoding EncodeColumn(const data::Column& column,
                                   std::string* out) {
  return EncodeColumn(column, 0, column.size(), out);
}

/// Decodes an encoded column chunk of `rows` values.
[[nodiscard]] Result<data::Column> DecodeColumn(const std::string& bytes,
                                  data::DataType type, int64_t rows);

/// Decode-into-reused-buffer variant: overwrites `out` (retyping it if
/// needed), recycling its vector capacity across calls. A string chunk
/// becomes a data::StringDict and one code per row: a dictionary chunk's
/// entries and ids, or a plain chunk's values with code i for row i. The
/// dictionary is `out`'s own, refilled in place, when no other column
/// shares it. The decode kernels run branch-light over the contiguous input
/// span (pointer-walked varints with a one-byte fast path) instead of
/// per-byte bounds-checked string indexing. On error `out`'s values are
/// unspecified. This is the hot path under format::DecodeRowGroupInto;
/// DecodeColumn wraps it.
[[nodiscard]] Status DecodeColumnInto(const char* data, size_t size,
                                      data::DataType type, int64_t rows,
                                      data::Column* out);

}  // namespace skyrise::format
