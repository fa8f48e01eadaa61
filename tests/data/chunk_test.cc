#include "data/chunk.h"

#include <gtest/gtest.h>

#include <type_traits>

#include "data/types.h"

namespace skyrise::data {
namespace {

// A chunk owns its column vectors: every deep copy is an explicit Slice.
static_assert(!std::is_copy_constructible_v<Chunk>);
static_assert(!std::is_copy_assignable_v<Chunk>);
static_assert(std::is_nothrow_move_constructible_v<Chunk>);

TEST(TypesTest, DateConversions) {
  EXPECT_EQ(DaysSinceEpoch(1992, 1, 1), 0);
  EXPECT_EQ(DaysSinceEpoch(1992, 1, 2), 1);
  EXPECT_EQ(DaysSinceEpoch(1993, 1, 1), 366);  // 1992 is a leap year.
  EXPECT_EQ(FormatDate(0), "1992-01-01");
  EXPECT_EQ(FormatDate(DaysSinceEpoch(1998, 9, 2)), "1998-09-02");
  EXPECT_EQ(FormatDate(DaysSinceEpoch(1994, 12, 31)), "1994-12-31");
}

TEST(TypesTest, Names) {
  EXPECT_STREQ(DataTypeName(DataType::kInt64), "int64");
  EXPECT_STREQ(DataTypeName(DataType::kDate), "date");
}

TEST(SchemaTest, FieldLookupAndSelect) {
  Schema schema({{"a", DataType::kInt64}, {"b", DataType::kDouble}});
  EXPECT_EQ(schema.FieldIndex("b"), 1);
  EXPECT_EQ(schema.FieldIndex("z"), -1);
  auto selected = schema.Select({"b"});
  ASSERT_TRUE(selected.ok());
  EXPECT_EQ(selected->size(), 1u);
  EXPECT_EQ(selected->field(0).name, "b");
  EXPECT_FALSE(schema.Select({"z"}).ok());
}

TEST(ColumnTest, FilterGathersSelection) {
  Column col(DataType::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt(i * 10);
  Column filtered = col.Filter({1, 3, 7});
  EXPECT_EQ(filtered.ints(), (std::vector<int64_t>{10, 30, 70}));
  Column strings(DataType::kString);
  strings.AppendString("a");
  strings.AppendString("b");
  EXPECT_EQ(strings.Filter({1}).strings(), (std::vector<std::string>{"b"}));
}

TEST(ChunkTest, AppendConcatenatesRows) {
  Schema schema({{"x", DataType::kInt64}});
  Chunk a = Chunk::Empty(schema);
  a.column(0).AppendInt(1);
  Chunk b = Chunk::Empty(schema);
  b.column(0).AppendInt(2);
  b.column(0).AppendInt(3);
  a.Append(b);
  EXPECT_EQ(a.rows(), 3);
  EXPECT_EQ(a.column(0).ints(), (std::vector<int64_t>{1, 2, 3}));
}

TEST(ChunkTest, SyntheticCarriesRowCount) {
  Schema schema({{"x", DataType::kInt64}, {"s", DataType::kString}});
  Chunk c = Chunk::Synthetic(schema, 1000000);
  EXPECT_TRUE(c.is_synthetic());
  EXPECT_EQ(c.rows(), 1000000);
  EXPECT_EQ(c.num_columns(), 0u);
  // Byte size estimate: 8 + 12 bytes per row.
  EXPECT_EQ(c.ByteSize(), 20000000);
}

TEST(ChunkTest, AppendSyntheticContaminates) {
  Schema schema({{"x", DataType::kInt64}});
  Chunk real = Chunk::Empty(schema);
  real.column(0).AppendInt(5);
  Chunk synthetic = Chunk::Synthetic(schema, 10);
  real.Append(synthetic);
  EXPECT_TRUE(real.is_synthetic());
  EXPECT_EQ(real.rows(), 11);
}

TEST(ChunkTest, ByteSizeMaterialized) {
  Schema schema({{"x", DataType::kInt64}, {"s", DataType::kString}});
  Chunk c = Chunk::Empty(schema);
  c.column(0).AppendInt(1);
  c.column(1).AppendString("abcd");
  EXPECT_EQ(c.ByteSize(), 8 + 4 + 4);
}

TEST(ChunkTest, SliceCopiesRowRange) {
  Schema schema({{"x", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString}});
  Chunk c = Chunk::Empty(schema);
  for (int i = 0; i < 10; ++i) {
    c.column(0).AppendInt(i);
    c.column(1).AppendDouble(i * 0.5);
    c.column(2).AppendString("r" + std::to_string(i));
  }
  Chunk mid = c.Slice(3, 4);
  EXPECT_EQ(mid.rows(), 4);
  EXPECT_EQ(mid.column(0).ints(), (std::vector<int64_t>{3, 4, 5, 6}));
  EXPECT_DOUBLE_EQ(mid.column(1).doubles()[0], 1.5);
  EXPECT_EQ(mid.column(2).strings()[3], "r6");
  // Degenerate slices: empty anywhere, full range, single row at the tail.
  EXPECT_EQ(c.Slice(10, 0).rows(), 0);
  EXPECT_EQ(c.Slice(0, 10).column(0).ints(), c.column(0).ints());
  EXPECT_EQ(c.Slice(9, 1).column(0).ints(), (std::vector<int64_t>{9}));
}

TEST(ChunkTest, SliceReassemblesToOriginal) {
  Schema schema({{"x", DataType::kInt64}});
  Chunk c = Chunk::Empty(schema);
  for (int i = 0; i < 7; ++i) c.column(0).AppendInt(i * 11);
  Chunk glued = c.Slice(0, 3);
  glued.Append(c.Slice(3, 4));
  EXPECT_EQ(glued.column(0).ints(), c.column(0).ints());
}

TEST(ChunkTest, SliceSyntheticKeepsSchemaAndCount) {
  Schema schema({{"x", DataType::kInt64}, {"s", DataType::kString}});
  Chunk c = Chunk::Synthetic(schema, 1000);
  Chunk s = c.Slice(200, 300);
  EXPECT_TRUE(s.is_synthetic());
  EXPECT_EQ(s.rows(), 300);
  EXPECT_TRUE(s.schema() == schema);
}

TEST(ChunkTest, ColumnByName) {
  Schema schema({{"x", DataType::kInt64}, {"y", DataType::kDouble}});
  Chunk c = Chunk::Empty(schema);
  c.column(0).AppendInt(7);
  c.column(1).AppendDouble(2.5);
  EXPECT_EQ(c.column("x").ints()[0], 7);
  EXPECT_DOUBLE_EQ(c.column("y").doubles()[0], 2.5);
}

// --- Dictionary-coded string columns. ---

/// A string column of `values`, interned into a dictionary of its own.
Column Strings(const std::vector<std::string>& values) {
  Column column(DataType::kString);
  for (const auto& value : values) column.AppendString(value);
  return column;
}

/// The column's values, one string per row.
std::vector<std::string> Values(const Column& column) {
  std::vector<std::string> out;
  for (size_t row = 0; row < column.size(); ++row) {
    out.emplace_back(column.strings()[row]);
  }
  return out;
}

TEST(StringColumnTest, AppendString) {
  Column column = Strings({"b", "a", "b", "", "a"});
  EXPECT_EQ(Values(column), (std::vector<std::string>{"b", "a", "b", "", "a"}));
  // Interned: one code per value.
  EXPECT_TRUE(column.dict()->distinct());
  EXPECT_EQ(column.dict()->size(), 3u);
  EXPECT_EQ(column.codes(), (std::vector<uint32_t>{0, 1, 0, 2, 1}));
}

TEST(StringColumnTest, AppendsAcrossDictionariesKeepValues) {
  const Column a = Strings({"x", "y", "x", "z"});
  const Column b = Strings({"z", "w", "x", "w", "v"});
  const std::vector<std::string> va = Values(a), vb = Values(b);
  ASSERT_NE(a.dict(), b.dict());
  auto expect_a_then = [&](const Column& column,
                           const std::vector<std::string>& tail) {
    std::vector<std::string> expected = va;
    expected.insert(expected.end(), tail.begin(), tail.end());
    EXPECT_EQ(Values(column), expected);
  };

  Column from = a;
  for (size_t row = 0; row < b.size(); ++row) from.AppendFrom(b, row);
  expect_a_then(from, vb);

  Column range = a;
  range.AppendRange(b, 1, 3);
  expect_a_then(range, {"w", "x", "w"});

  // Many rows from a small dictionary map codes through a table; one row
  // from a larger one puts its value directly.
  Column rows = a;
  const uint32_t picks[] = {4, 0, 4, 2, 1, 1};
  rows.AppendRows(b, picks, 6);
  rows.AppendRows(b, picks, 1);
  expect_a_then(rows, {"v", "z", "v", "x", "w", "w", "v"});
  // The interned target still names each value by one code.
  EXPECT_TRUE(rows.dict()->distinct());
  EXPECT_EQ(rows.dict()->size(), 5u);

  Schema schema({{"s", DataType::kString}, {"n", DataType::kInt64}});
  Chunk first = Chunk::Empty(schema);
  Chunk second = Chunk::Empty(schema);
  for (const auto& value : va) {
    first.column(0).AppendString(value);
    first.column(1).AppendInt(1);
  }
  for (const auto& value : vb) {
    second.column(0).AppendString(value);
    second.column(1).AppendInt(2);
  }
  first.Append(second);
  expect_a_then(first.column(0), vb);

  // A target whose dictionary repeats a value keeps every value too.
  Column repeated(DataType::kString);
  StringDict* dict = repeated.RefillDict(/*distinct=*/false);
  dict->Add("x");
  dict->Add("x");
  repeated.codes() = {0, 1};
  repeated.AppendRange(b, 0, b.size());
  EXPECT_EQ(Values(repeated),
            (std::vector<std::string>{"x", "x", "z", "w", "x", "w", "v"}));
}

TEST(StringColumnTest, GathersShareTheSourceDictionary) {
  const Column source = Strings({"p", "q", "r", "q"});
  Column filtered(DataType::kString);
  source.FilterInto({1, 3, 2}, &filtered);
  EXPECT_EQ(filtered.dict(), source.dict());
  EXPECT_EQ(Values(filtered), (std::vector<std::string>{"q", "q", "r"}));
  const Column sliced = source.Slice(1, 2);
  EXPECT_EQ(sliced.dict(), source.dict());
  EXPECT_EQ(Values(sliced), (std::vector<std::string>{"q", "r"}));
  EXPECT_EQ(source.Filter({0}).dict(), source.dict());
  // An empty column takes the dictionary it appends from.
  Column appended(DataType::kString);
  appended.AppendRange(source, 0, 2);
  EXPECT_EQ(appended.dict(), source.dict());
  // Growing a shared dictionary leaves every holder's values alone.
  filtered.AppendString("s");
  EXPECT_EQ(filtered.dict(), source.dict());
  EXPECT_EQ(Values(source), (std::vector<std::string>{"p", "q", "r", "q"}));
  EXPECT_EQ(Values(filtered), (std::vector<std::string>{"q", "q", "r", "s"}));
}

TEST(StringColumnTest, FrozenDictionaryIsCopiedBeforeItGrows) {
  Column source = Strings({"p", "q", "p"});
  const std::shared_ptr<StringDict> frozen = source.dict();
  frozen->Freeze();
  // Gathers and appends of its own codes still share it.
  Column gathered(DataType::kString);
  source.FilterInto({2, 1}, &gathered);
  gathered.AppendRange(source, 0, 3);
  EXPECT_EQ(gathered.dict(), frozen);
  // Another dictionary's values, and a new string, go into a copy.
  gathered.AppendRange(Strings({"r", "p"}), 0, 2);
  EXPECT_NE(gathered.dict(), frozen);
  EXPECT_FALSE(gathered.dict()->frozen());
  EXPECT_TRUE(gathered.dict()->distinct());
  EXPECT_EQ(Values(gathered),
            (std::vector<std::string>{"p", "q", "p", "q", "p", "r", "p"}));
  Column appended(DataType::kString);
  appended.AppendRange(source, 1, 1);
  appended.AppendString("s");
  EXPECT_NE(appended.dict(), frozen);
  EXPECT_EQ(Values(appended), (std::vector<std::string>{"q", "s"}));
  // The frozen dictionary and its column are as they were.
  EXPECT_EQ(frozen->size(), 2u);
  EXPECT_TRUE(frozen->frozen());
  EXPECT_EQ(Values(source), (std::vector<std::string>{"p", "q", "p"}));
  // A refill in place is the column's alone, so it thaws the dictionary.
  Column alone = Strings({"x"});
  alone.dict()->Freeze();
  EXPECT_FALSE(alone.RefillDict(true)->frozen());
}

TEST(StringColumnTest, FrozenDistinctDictionaryIsCopiedOnlyForANewValue) {
  Column source = Strings({"p", "q", "r"});
  const std::shared_ptr<StringDict> frozen = source.dict();
  frozen->Freeze();
  ASSERT_TRUE(frozen->distinct());
  Column target(DataType::kString);
  target.AppendRange(source, 0, 2);
  ASSERT_EQ(target.dict(), frozen);
  // Another dictionary's values that the frozen one holds keep their codes
  // in it, whether mapped through a code table or row by row.
  const Column present = Strings({"r", "p", "r"});
  target.AppendRange(present, 0, 3);
  const uint32_t last = 3;
  target.AppendRows(Strings({"z", "y", "x", "q"}), &last, 1);
  target.AppendFrom(present, 1);
  EXPECT_EQ(target.dict(), frozen);
  EXPECT_EQ(target.codes(), (std::vector<uint32_t>{0, 1, 2, 0, 2, 1, 0}));
  // One new value copies it, once; the copy then grows in place.
  target.AppendRange(Strings({"q", "s", "t"}), 0, 3);
  const std::shared_ptr<StringDict> copy = target.dict();
  EXPECT_NE(copy, frozen);
  EXPECT_FALSE(copy->frozen());
  target.AppendString("u");
  target.AppendRange(Strings({"v", "p"}), 0, 2);
  EXPECT_EQ(target.dict(), copy);
  EXPECT_EQ(Values(target),
            (std::vector<std::string>{"p", "q", "r", "p", "r", "q", "p", "q",
                                      "s", "t", "u", "v", "p"}));
  EXPECT_EQ(target.codes(), (std::vector<uint32_t>{0, 1, 2, 0, 2, 1, 0, 1, 3,
                                                   4, 5, 6, 0}));
  EXPECT_EQ(frozen->size(), 3u);
  EXPECT_TRUE(frozen->frozen());
  // A frozen dictionary that is not distinct is copied before any append.
  Column plain(DataType::kString);
  StringDict* listed = plain.RefillDict(/*distinct=*/false);
  listed->Add("p");
  plain.codes() = {0};
  plain.dict()->Freeze();
  const StringDict* before = plain.dict().get();
  plain.AppendRange(present, 1, 1);
  EXPECT_NE(plain.dict().get(), before);
  EXPECT_EQ(Values(plain), (std::vector<std::string>{"p", "p"}));
}

TEST(StringColumnTest, ClearDropsTheDictionary) {
  Column column = Strings({"a", "b"});
  column.Clear();
  EXPECT_EQ(column.size(), 0u);
  EXPECT_EQ(column.dict(), nullptr);
  column.AppendString("c");
  EXPECT_EQ(Values(column), (std::vector<std::string>{"c"}));
}

TEST(StringColumnTest, RefillReusesADictionaryHeldAlone) {
  Column column = Strings({"a", "b"});
  const StringDict* own = column.dict().get();
  const uint64_t refills = own->refills();
  EXPECT_EQ(column.RefillDict(true), own);
  EXPECT_EQ(own->refills(), refills + 1);
  EXPECT_EQ(own->size(), 0u);
  EXPECT_EQ(column.size(), 0u);
  // A shared dictionary is never refilled: the column gets a new one.
  column.AppendString("a");
  const Column copy = column;
  EXPECT_NE(column.RefillDict(true), copy.dict().get());
  EXPECT_EQ(Values(copy), (std::vector<std::string>{"a"}));
}

TEST(StringColumnTest, ByteSizeSumsValueLengthsPlusFour) {
  Schema schema({{"s", DataType::kString}});
  Chunk chunk = Chunk::Empty(schema);
  for (const char* value : {"abc", "", "abc", "de"}) {
    chunk.column(0).AppendString(value);
  }
  EXPECT_EQ(chunk.ByteSize(), (3 + 4) + (0 + 4) + (3 + 4) + (2 + 4));
}

TEST(StringColumnTest, ViewsCompareAndPrintValues) {
  const Column a = Strings({"x", "y"});
  const Column b = Strings({"y", "x", "y"});
  EXPECT_EQ(a.strings(), b.Slice(1, 2).strings());
  EXPECT_FALSE(a.strings() == b.strings());
  EXPECT_EQ(a.strings(), (std::vector<std::string>{"x", "y"}));
  EXPECT_EQ(testing::PrintToString(a.strings()), "{ \"x\", \"y\" }");
  EXPECT_EQ(testing::PrintToString(Column(DataType::kString).strings()),
            "{ }");
}

}  // namespace
}  // namespace skyrise::data
