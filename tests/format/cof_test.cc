#include "format/cof.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/json.h"
#include "common/units.h"
#include "format/encoding.h"

namespace skyrise::format {
namespace {

using data::Chunk;
using data::Column;
using data::DataType;
using data::Schema;

Chunk SampleChunk(int64_t rows, int64_t offset = 0) {
  Schema schema({{"id", DataType::kInt64},
                 {"price", DataType::kDouble},
                 {"flag", DataType::kString},
                 {"day", DataType::kDate}});
  Chunk chunk = Chunk::Empty(schema);
  for (int64_t i = 0; i < rows; ++i) {
    chunk.column(0).AppendInt(offset + i);
    chunk.column(1).AppendDouble(0.5 * static_cast<double>(i));
    chunk.column(2).AppendString(i % 3 == 0 ? "R" : (i % 3 == 1 ? "A" : "N"));
    chunk.column(3).AppendInt(100 + i / 10);
  }
  return chunk;
}

// --- Encoding primitives. ---

TEST(EncodingTest, VarintRoundTrip) {
  std::string buffer;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1ULL << 32, ~0ULL};
  for (uint64_t v : values) PutVarint(&buffer, v);
  size_t pos = 0;
  for (uint64_t v : values) {
    auto got = GetVarint(buffer, &pos);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_EQ(pos, buffer.size());
}

TEST(EncodingTest, VarintTruncated) {
  std::string buffer;
  PutVarint(&buffer, 1ULL << 40);
  buffer.resize(buffer.size() - 1);
  size_t pos = 0;
  EXPECT_FALSE(GetVarint(buffer, &pos).ok());
}

TEST(EncodingTest, ZigzagRoundTrip) {
  const int64_t values[] = {0, 1, -1, 12345, -987654321,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (int64_t v : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  EXPECT_EQ(ZigzagEncode(0), 0u);
  EXPECT_EQ(ZigzagEncode(-1), 1u);
  EXPECT_EQ(ZigzagEncode(1), 2u);
}

TEST(EncodingTest, ColumnRoundTripAllTypes) {
  Chunk chunk = SampleChunk(1000);
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    std::string encoded;
    EncodeColumn(chunk.column(c), &encoded);
    auto decoded =
        DecodeColumn(encoded, chunk.column(c).type(), chunk.rows());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    switch (chunk.column(c).type()) {
      case DataType::kDouble:
        EXPECT_EQ(decoded->doubles(), chunk.column(c).doubles());
        break;
      case DataType::kString:
        EXPECT_EQ(decoded->strings(), chunk.column(c).strings());
        break;
      default:
        EXPECT_EQ(decoded->ints(), chunk.column(c).ints());
    }
  }
}

TEST(EncodingTest, LowCardinalityStringsUseDictionary) {
  Column flags(DataType::kString);
  for (int i = 0; i < 10000; ++i) flags.AppendString(i % 2 ? "AIR" : "SHIP");
  std::string encoded;
  EXPECT_EQ(EncodeColumn(flags, &encoded), ColumnEncoding::kStringDict);
  // 1 byte per value plus a small dictionary.
  EXPECT_LT(encoded.size(), 10100u);
  auto decoded = DecodeColumn(encoded, DataType::kString, 10000);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->strings()[0], "SHIP");
  EXPECT_EQ(decoded->strings()[1], "AIR");
}

TEST(EncodingTest, HighCardinalityStringsUsePlain) {
  Column names(DataType::kString);
  for (int i = 0; i < 1000; ++i) names.AppendString("v" + std::to_string(i));
  std::string encoded;
  EXPECT_EQ(EncodeColumn(names, &encoded), ColumnEncoding::kStringPlain);
  auto decoded = DecodeColumn(encoded, DataType::kString, 1000);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->strings()[999], "v999");
}

TEST(EncodingTest, TypeMismatchRejected) {
  Column ints(DataType::kInt64);
  ints.AppendInt(5);
  std::string encoded;
  EncodeColumn(ints, &encoded);
  EXPECT_FALSE(DecodeColumn(encoded, DataType::kDouble, 1).ok());
  EXPECT_FALSE(DecodeColumn("", DataType::kInt64, 1).ok());
}

TEST(EncodingTest, RegressionHugeDictionarySizeIsIoError) {
  // Ten bytes: the dictionary tag and a varint claiming 2^62 entries. The
  // decoder once reserved the claimed size before reading any entry and
  // aborted with std::length_error.
  std::string huge(1, static_cast<char>(ColumnEncoding::kStringDict));
  PutVarint(&huge, uint64_t{1} << 62);
  ASSERT_EQ(huge.size(), 10u);
  auto decoded = DecodeColumn(huge, DataType::kString, 1);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIoError);
  // One-byte ids address 256 entries; a 257th cannot be, even when present.
  for (uint64_t entries : {256u, 257u}) {
    std::string dict(1, static_cast<char>(ColumnEncoding::kStringDict));
    PutVarint(&dict, entries);
    dict.append(entries, '\0');  // Empty entries.
    dict.push_back(static_cast<char>(255));
    auto column = DecodeColumn(dict, DataType::kString, 1);
    if (entries == 256) {
      ASSERT_TRUE(column.ok()) << column.status().ToString();
      EXPECT_EQ(column->strings()[0], "");
    } else {
      ASSERT_FALSE(column.ok());
      EXPECT_EQ(column.status().code(), StatusCode::kIoError);
    }
  }
}

TEST(EncodingTest, DictionaryRepeatingAValueDecodesAndReencodes) {
  // Hand-built: a dictionary listing "MAIL" twice, ids using both entries.
  // The encoder never writes one (its values strictly ascend).
  std::string chunk(1, static_cast<char>(ColumnEncoding::kStringDict));
  PutVarint(&chunk, 3);
  for (const char* value : {"AIR", "MAIL", "MAIL"}) {
    PutVarint(&chunk, std::strlen(value));
    chunk.append(value);
  }
  for (uint8_t id : {1, 2, 0, 2, 1}) chunk.push_back(static_cast<char>(id));
  auto decoded = DecodeColumn(chunk, DataType::kString, 5);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->strings(),
            (std::vector<std::string>{"MAIL", "MAIL", "AIR", "MAIL", "MAIL"}));
  EXPECT_FALSE(decoded->dict()->distinct());
  // Re-encoded, the repeated value is one dictionary entry.
  std::string reencoded;
  EXPECT_EQ(EncodeColumn(*decoded, &reencoded), ColumnEncoding::kStringDict);
  std::string expected(1, static_cast<char>(ColumnEncoding::kStringDict));
  PutVarint(&expected, 2);
  for (const char* value : {"AIR", "MAIL"}) {
    PutVarint(&expected, std::strlen(value));
    expected.append(value);
  }
  for (uint8_t id : {1, 1, 0, 1, 1}) expected.push_back(static_cast<char>(id));
  EXPECT_EQ(reencoded, expected);
  // A decoded dictionary whose values ascend names each value once.
  auto clean = DecodeColumn(expected, DataType::kString, 5);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->dict()->distinct());
}

TEST(EncodingTest, PlainChunkDecodesOneValuePerRowAndReencodes) {
  Column names(DataType::kString);
  for (int i = 0; i < 600; ++i) {
    names.AppendString("v" + std::to_string(i % 300));
  }
  std::string encoded;
  ASSERT_EQ(EncodeColumn(names, &encoded), ColumnEncoding::kStringPlain);
  auto decoded = DecodeColumn(encoded, DataType::kString, 600);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->strings(), names.strings());
  // Code i is row i, values repeating or not.
  EXPECT_FALSE(decoded->dict()->distinct());
  EXPECT_EQ(decoded->dict()->size(), 600u);
  EXPECT_EQ(decoded->codes()[599], 599u);
  std::string reencoded;
  EXPECT_EQ(EncodeColumn(*decoded, &reencoded), ColumnEncoding::kStringPlain);
  EXPECT_EQ(reencoded, encoded);
  // Rows of few values, gathered from it, encode as a dictionary again.
  std::vector<uint32_t> few;
  for (uint32_t row = 0; row < 600; row += 100) few.push_back(row);
  const Column gathered = decoded->Filter(few);
  std::string small;
  EXPECT_EQ(EncodeColumn(gathered, &small), ColumnEncoding::kStringDict);
  auto redecoded = DecodeColumn(small, DataType::kString, 6);
  ASSERT_TRUE(redecoded.ok());
  EXPECT_EQ(redecoded->strings(), gathered.strings());
}

TEST(EncodingTest, DecodeRefillsADictionaryOnlyItsColumnHolds) {
  Column flags(DataType::kString);
  for (int i = 0; i < 100; ++i) flags.AppendString(i % 3 ? "F" : "O");
  std::string encoded;
  EncodeColumn(flags, &encoded);
  Column out(DataType::kString);
  ASSERT_TRUE(DecodeColumnInto(encoded.data(), encoded.size(),
                               DataType::kString, 100, &out)
                  .ok());
  const data::StringDict* first = out.dict().get();
  ASSERT_TRUE(DecodeColumnInto(encoded.data(), encoded.size(),
                               DataType::kString, 100, &out)
                  .ok());
  EXPECT_EQ(out.dict().get(), first);
  // While another column shares it, decode leaves it be.
  const Column holder = out.Slice(0, 3);
  ASSERT_TRUE(DecodeColumnInto(encoded.data(), encoded.size(),
                               DataType::kString, 100, &out)
                  .ok());
  EXPECT_NE(out.dict().get(), first);
  EXPECT_EQ(holder.strings(), (std::vector<std::string>{"O", "F", "F"}));
  EXPECT_EQ(out.strings(), flags.strings());
}

// --- COF files. ---

TEST(CofTest, WriteParseRoundTrip) {
  Chunk chunk = SampleChunk(5000);
  const std::string file = WriteCofFile(chunk.schema(), chunk, 1000);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_EQ(meta->row_groups.size(), 5u);
  EXPECT_EQ(meta->TotalRows(), 5000);
  EXPECT_TRUE(meta->schema == chunk.schema());
  EXPECT_FALSE(meta->synthetic);

  // Decode one row group fully.
  std::vector<std::string> projection{"id", "price", "flag", "day"};
  std::vector<std::string_view> column_bytes;
  for (const auto& cm : meta->row_groups[2].columns) {
    column_bytes.push_back(std::string_view(file).substr(
        static_cast<size_t>(cm.offset), static_cast<size_t>(cm.size)));
  }
  auto decoded = DecodeRowGroup(*meta, 2, projection, column_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rows(), 1000);
  EXPECT_EQ(decoded->column(0).ints()[0], 2000);  // First id of group 2.
}

TEST(CofTest, FooterOnlyTailParse) {
  Chunk chunk = SampleChunk(100);
  const std::string file = WriteCofFile(chunk.schema(), chunk);
  // Fetch only the trailing kFooterFetchSize bytes, like the reader does.
  const int64_t fetch =
      std::min<int64_t>(static_cast<int64_t>(file.size()), kFooterFetchSize);
  const std::string tail = file.substr(file.size() - static_cast<size_t>(fetch));
  auto meta = ParseFooter(tail, static_cast<int64_t>(file.size()) - fetch,
                          static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->TotalRows(), 100);
}

TEST(CofTest, MinMaxStatisticsPerRowGroup) {
  Chunk chunk = SampleChunk(2000);
  const std::string file = WriteCofFile(chunk.schema(), chunk, 500);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  // id column: group 1 covers [500, 999].
  const auto& cm = meta->row_groups[1].columns[0];
  ASSERT_TRUE(cm.min.has_value());
  EXPECT_DOUBLE_EQ(*cm.min, 500);
  EXPECT_DOUBLE_EQ(*cm.max, 999);
  // String columns have no numeric stats.
  EXPECT_FALSE(meta->row_groups[1].columns[2].min.has_value());
}

TEST(CofTest, ProjectionDecodesSubset) {
  Chunk chunk = SampleChunk(100);
  const std::string file = WriteCofFile(chunk.schema(), chunk);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  std::vector<std::string> projection{"price", "id"};  // Reordered subset.
  std::vector<std::string_view> column_bytes;
  for (const auto& name : projection) {
    const int idx = meta->schema.FieldIndex(name);
    const auto& cm = meta->row_groups[0].columns[static_cast<size_t>(idx)];
    column_bytes.push_back(std::string_view(file).substr(
        static_cast<size_t>(cm.offset), static_cast<size_t>(cm.size)));
  }
  auto decoded = DecodeRowGroup(*meta, 0, projection, column_bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->schema().field(0).name, "price");
  EXPECT_EQ(decoded->schema().field(1).name, "id");
  EXPECT_EQ(decoded->column(1).ints()[7], 7);
}

TEST(CofTest, CorruptFilesRejected) {
  EXPECT_FALSE(ParseFooter("short", 0, 5).ok());
  Chunk chunk = SampleChunk(10);
  std::string file = WriteCofFile(chunk.schema(), chunk);
  std::string bad_magic = file;
  bad_magic.back() = 'X';
  EXPECT_FALSE(
      ParseFooter(bad_magic, 0, static_cast<int64_t>(bad_magic.size())).ok());
  // Wrong tail offset.
  EXPECT_FALSE(
      ParseFooter(file, 10, static_cast<int64_t>(file.size())).ok());
}

/// A file holding only `footer` and a valid trailer: the footer's length as
/// 4 bytes little-endian, then the magic.
std::string FileWithFooter(const std::string& footer) {
  std::string file = footer;
  const uint32_t size = static_cast<uint32_t>(footer.size());
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>(size >> (8 * i)));
  }
  return file + "COF1";
}

TEST(CofTest, RegressionEmptyObjectFooterIsIoError) {
  // Ten bytes, "{}" plus a valid trailer: parsing once aborted on the
  // missing schema instead of failing.
  const std::string file = FileWithFooter("{}");
  ASSERT_EQ(file.size(), 10u);
  auto meta = ParseFooter(file, 0, 10);
  ASSERT_FALSE(meta.ok());
  EXPECT_EQ(meta.status().code(), StatusCode::kIoError);
}

TEST(CofTest, MalformedFootersAreIoErrors) {
  Chunk chunk = SampleChunk(10);
  const std::string file = WriteCofFile(chunk.schema(), chunk);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  std::string good;
  AppendFooter(*meta, &good);
  // Each footer goes behind the file's own data bytes, which its data
  // region must fit in.
  const std::string data = file.substr(0, static_cast<size_t>(meta->data_size));
  const std::string rewritten = data + FileWithFooter(good);
  ASSERT_TRUE(
      ParseFooter(rewritten, 0, static_cast<int64_t>(rewritten.size())).ok());
  // Json copies share their arrays and objects: edit a fresh parse each time.
  auto fresh = [&good] { return Json::Parse(good).ValueOrDie(); };
  auto expect_io_error = [&data](const Json& footer, const char* what) {
    const std::string bad = data + FileWithFooter(footer.Dump());
    auto parsed = ParseFooter(bad, 0, static_cast<int64_t>(bad.size()));
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(parsed.status().code(), StatusCode::kIoError) << what;
  };
  Json footer = fresh();
  footer["schema"] = "id";
  expect_io_error(footer, "schema not an array");
  footer = fresh();
  footer.AsObject().erase("row_groups");
  expect_io_error(footer, "no row groups");
  footer = fresh();
  footer["row_groups"].AsArray()[0].AsObject().erase("columns");
  expect_io_error(footer, "no column list");
  footer = fresh();
  footer["row_groups"].AsArray()[0]["columns"].AsArray()[1]["offset"] = -1;
  expect_io_error(footer, "negative offset");
  footer = fresh();
  footer["row_groups"].AsArray()[0]["columns"].AsArray()[1]["size"] = -5;
  expect_io_error(footer, "negative size");
  footer = fresh();
  footer["row_groups"].AsArray()[0]["columns"].AsArray()[3]["size"] =
      meta->data_size;
  expect_io_error(footer, "chunk past the data region");
}

TEST(CofTest, RegressionDataRegionPastFileIsIoError) {
  // A 146-byte object whose footer claims 1,000 data bytes and a column
  // chunk at offset 900: readers that cut column chunks out of the object
  // at footer offsets once aborted past its end.
  FileMeta forged;
  forged.schema = Schema({{"id", DataType::kInt64}});
  forged.data_size = 1000;
  ColumnChunkMeta chunk;
  chunk.offset = 900;
  chunk.size = 2;
  forged.row_groups.push_back(RowGroupMeta{1, {chunk}});
  std::string footer;
  AppendFooter(forged, &footer);
  ASSERT_LE(footer.size() + 8, 146u);
  const std::string file =
      std::string(146 - 8 - footer.size(), '\0') + FileWithFooter(footer);
  ASSERT_EQ(file.size(), 146u);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_FALSE(meta.ok());
  EXPECT_EQ(meta.status().code(), StatusCode::kIoError);
  // The same footer behind 1,000 data bytes reads, also from a tail.
  const std::string whole = std::string(1000, '\0') + FileWithFooter(footer);
  EXPECT_TRUE(ParseFooter(whole, 0, static_cast<int64_t>(whole.size())).ok());
  const std::string tail = whole.substr(900);
  EXPECT_TRUE(
      ParseFooter(tail, 900, static_cast<int64_t>(whole.size())).ok());
}

/// ParseFooterText over a heap copy of exactly `text`'s bytes, so a read
/// past the end is a heap overflow the sanitizer job reports.
Result<FileMeta> ParseExactCopy(std::string_view text) {
  std::unique_ptr<char[]> copy(new char[text.size()]);
  std::memcpy(copy.get(), text.data(), text.size());
  return ParseFooterText(std::string_view(copy.get(), text.size()));
}

TEST(CofTest, FooterReaderSurvivesTruncationAndCorruption) {
  Chunk chunk = SampleChunk(10);
  const std::string file = WriteCofFile(chunk.schema(), chunk, 4);
  auto text = FooterText(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(text.ok());
  const std::string footer(*text);
  ASSERT_TRUE(ParseExactCopy(footer).ok());
  // Every strict prefix is an unterminated object.
  for (size_t n = 0; n < footer.size(); ++n) {
    auto meta = ParseExactCopy(std::string_view(footer).substr(0, n));
    ASSERT_FALSE(meta.ok()) << n;
    EXPECT_EQ(meta.status().code(), StatusCode::kIoError) << n;
  }
  // Every single-byte corruption reads as a FileMeta or an IoError.
  int parsed = 0;
  for (size_t i = 0; i < footer.size(); ++i) {
    for (char c : {'\0', '"', '\\', '{', '}', '[', ']', ',', ':', '-', '9',
                   'e', '.', 'x', ' ', '\xff'}) {
      std::string bad = footer;
      bad[i] = c;
      auto meta = ParseExactCopy(bad);
      if (meta.ok()) {
        ++parsed;
      } else {
        EXPECT_EQ(meta.status().code(), StatusCode::kIoError)
            << i << " " << static_cast<int>(c);
      }
    }
  }
  EXPECT_GT(parsed, 0);  // Some digits and spaces still make a footer.
}

TEST(CofTest, FooterReaderBoundsNestingAndSkipsUnknownMembers) {
  Chunk chunk = SampleChunk(10);
  const std::string file = WriteCofFile(chunk.schema(), chunk);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  std::string good;
  AppendFooter(*meta, &good);
  // Members in reverse order, indented, between unknown members.
  auto members = Json::Parse(good);
  ASSERT_TRUE(members.ok());
  std::string reversed = "{\n  \"zz_unknown\": [{}, -1.5e3, null]";
  const JsonObject& object = members->AsObject();
  for (auto it = object.rbegin(); it != object.rend(); ++it) {
    reversed.append(",\n  \"").append(it->first).append("\": ");
    reversed.append(it->second.Dump(2));
  }
  reversed += ",\n  \"aa_unknown\": {\"x\": \"\\u0041\"}\n}\n";
  auto spaced = ParseFooterText(reversed);
  ASSERT_TRUE(spaced.ok()) << spaced.status().ToString();
  std::string again;
  AppendFooter(*spaced, &again);
  EXPECT_EQ(again, good);
  // An unknown member nested 100,000 deep fails typed.
  const std::string deep = "{\"x\":" + std::string(100000, '[') +
                           std::string(100000, ']') + "," + good.substr(1);
  auto nested = ParseFooterText(deep);
  ASSERT_FALSE(nested.ok());
  EXPECT_EQ(nested.status().code(), StatusCode::kIoError);
}

TEST(CofTest, FooterMemoParsesEachFooterOnce) {
  FooterMemo memo;
  // The footer text of a file's tail, through the memo.
  auto parse = [&memo](std::string_view tail, int64_t tail_offset,
                       int64_t file_size)
      -> Result<std::shared_ptr<const FileMeta>> {
    std::string_view footer;
    SKYRISE_ASSIGN_OR_RETURN(footer,
                             FooterText(tail, tail_offset, file_size));
    return memo.Parse(footer);
  };
  Chunk chunk = SampleChunk(300);
  const std::string file = WriteCofFile(chunk.schema(), chunk, 100);
  const auto size = static_cast<int64_t>(file.size());
  auto whole = parse(file, 0, size);
  ASSERT_TRUE(whole.ok());
  EXPECT_EQ((*whole)->row_groups.size(), 3u);
  // Another fetch of the same footer bytes shares the parse.
  const std::string tail = file.substr(file.size() - 2000);
  auto again = parse(tail, size - 2000, size);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(whole->get(), again->get());
  const std::string other = WriteCofFile(chunk.schema(), chunk, 150);
  auto different = parse(other, 0, static_cast<int64_t>(other.size()));
  ASSERT_TRUE(different.ok());
  EXPECT_NE(different->get(), whole->get());
  EXPECT_EQ((*different)->row_groups.size(), 2u);
  // Failures are reported every time and not remembered.
  EXPECT_FALSE(parse(FileWithFooter("{}"), 0, 10).ok());
  EXPECT_FALSE(parse(FileWithFooter("{}"), 0, 10).ok());
}

TEST(CofTest, WriterBytesIndependentOfAppendSplits) {
  // Row groups take rows in order whatever the appended chunks' sizes:
  // appends that straddle, fill or skip row-group boundaries write the
  // bytes one whole-chunk append does.
  const Chunk whole = SampleChunk(1000);
  const std::string expected = WriteCofFile(whole.schema(), whole, 128);
  for (const std::vector<int64_t>& splits :
       {std::vector<int64_t>{1000}, std::vector<int64_t>{1, 127, 128, 744},
        std::vector<int64_t>{300, 0, 300, 400},
        std::vector<int64_t>{50, 50, 50, 256, 594}}) {
    CofWriter writer(whole.schema(), 128);
    int64_t offset = 0;
    for (int64_t rows : splits) {
      ASSERT_TRUE(writer.Append(whole.Slice(offset, rows)).ok());
      offset += rows;
    }
    EXPECT_EQ(writer.Finish(), expected) << splits.size();
  }
}

TEST(CofTest, EmptyFileHasSchemaNoGroups) {
  Schema schema({{"x", DataType::kInt64}});
  const std::string file = WriteCofFile(schema, Chunk::Empty(schema));
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->TotalRows(), 0);
  EXPECT_TRUE(meta->row_groups.empty());
  EXPECT_TRUE(meta->schema == schema);
}

TEST(CofTest, SyntheticMetaGeometry) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  FileMeta meta = BuildSyntheticFileMeta(
      schema, 1000000, 64 * kMiB, 100000,
      {{"a", 0, 700}});
  EXPECT_TRUE(meta.synthetic);
  EXPECT_EQ(meta.row_groups.size(), 10u);
  EXPECT_EQ(meta.TotalRows(), 1000000);
  EXPECT_NEAR(static_cast<double>(meta.data_size), 64.0 * kMiB,
              0.01 * kMiB);
  // Column "a" ranges are clustered across groups.
  EXPECT_DOUBLE_EQ(*meta.row_groups[0].columns[0].min, 0);
  EXPECT_DOUBLE_EQ(*meta.row_groups[0].columns[0].max, 70);
  EXPECT_DOUBLE_EQ(*meta.row_groups[9].columns[0].max, 700);
  // Column "b" has no stats.
  EXPECT_FALSE(meta.row_groups[0].columns[1].min.has_value());
}

TEST(CofTest, SyntheticDecodeYieldsSyntheticChunks) {
  Schema schema({{"a", DataType::kInt64}});
  FileMeta meta = BuildSyntheticFileMeta(schema, 1000, 10000, 400, {});
  auto chunk = DecodeRowGroup(meta, 0, {"a"}, {""});
  ASSERT_TRUE(chunk.ok());
  EXPECT_TRUE(chunk->is_synthetic());
  EXPECT_EQ(chunk->rows(), 400);
}

TEST(CofTest, FileMetaJsonRoundTrip) {
  Chunk chunk = SampleChunk(300);
  const std::string file = WriteCofFile(chunk.schema(), chunk, 100);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  std::string footer;
  AppendFooter(*meta, &footer);
  auto round = ParseFooterText(footer);
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->TotalRows(), 300);
  EXPECT_EQ(round->row_groups.size(), meta->row_groups.size());
  EXPECT_EQ(round->row_groups[1].columns[0].offset,
            meta->row_groups[1].columns[0].offset);
}

TEST(CofTest, RowGroupColumnRangesLocateColumnBytes) {
  // The ranges returned for a (row group, projection) pair must address
  // exactly the byte spans the streaming reader fetches: decoding them
  // reproduces the original column slices.
  Chunk chunk = SampleChunk(250);
  const std::string file = WriteCofFile(chunk.schema(), chunk, 100);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta->row_groups.size(), 3u);
  const std::vector<std::string> projection = {"price", "id"};
  for (size_t rg = 0; rg < meta->row_groups.size(); ++rg) {
    auto ranges = RowGroupColumnRanges(*meta, rg, projection);
    ASSERT_TRUE(ranges.ok());
    ASSERT_EQ(ranges->size(), 2u);
    std::vector<std::string_view> buffers;
    for (const auto& r : *ranges) {
      ASSERT_GE(r.offset, 0);
      ASSERT_GT(r.size, 0);
      ASSERT_LE(r.offset + r.size, static_cast<int64_t>(file.size()));
      buffers.push_back(std::string_view(file).substr(
          static_cast<size_t>(r.offset), static_cast<size_t>(r.size)));
    }
    auto decoded = DecodeRowGroup(*meta, rg, projection, buffers);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    const int64_t rows = std::min<int64_t>(100, 250 - 100 * rg);
    const Chunk expected = chunk.Slice(100 * rg, rows);
    EXPECT_EQ(decoded->column(0).doubles(), expected.column("price").doubles());
    EXPECT_EQ(decoded->column(1).ints(), expected.column("id").ints());
  }
}

TEST(CofTest, RowGroupColumnRangesRejectsBadInputs) {
  Chunk chunk = SampleChunk(50);
  const std::string file = WriteCofFile(chunk.schema(), chunk);
  auto meta = ParseFooter(file, 0, static_cast<int64_t>(file.size()));
  ASSERT_TRUE(meta.ok());
  EXPECT_FALSE(RowGroupColumnRanges(*meta, 99, {"id"}).ok());
  EXPECT_TRUE(
      RowGroupColumnRanges(*meta, 0, {"nope"}).status().IsNotFound());
}

TEST(CofTest, CatalogLookup) {
  SyntheticFileCatalog catalog;
  Schema schema({{"x", DataType::kInt64}});
  catalog.Register("tables/t/part-0.cof",
                   BuildSyntheticFileMeta(schema, 10, 100, 10, {}));
  EXPECT_TRUE(catalog.Contains("tables/t/part-0.cof"));
  EXPECT_TRUE(catalog.Find("tables/t/part-0.cof").ok());
  EXPECT_TRUE(catalog.Find("missing").status().IsNotFound());
}

}  // namespace
}  // namespace skyrise::format
