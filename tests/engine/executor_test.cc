#include "engine/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "common/random.h"
#include "common/string_util.h"
#include "data/chunk_pool.h"
#include "engine/memory_tracker.h"
#include "format/encoding.h"

namespace skyrise::engine {
namespace {

using data::Chunk;
using data::DataType;
using data::Schema;

Chunk SalesChunk() {
  Schema schema({{"key", DataType::kInt64},
                 {"amount", DataType::kDouble},
                 {"region", DataType::kString}});
  Chunk chunk = Chunk::Empty(schema);
  const int64_t keys[] = {1, 2, 1, 3, 2, 1};
  const double amounts[] = {10, 20, 30, 40, 50, 60};
  const char* regions[] = {"eu", "us", "eu", "ap", "us", "eu"};
  for (int i = 0; i < 6; ++i) {
    chunk.column(0).AppendInt(keys[i]);
    chunk.column(1).AppendDouble(amounts[i]);
    chunk.column(2).AppendString(regions[i]);
  }
  return chunk;
}

PipelineSpec PipelineWith(std::vector<OperatorSpec> ops) {
  PipelineSpec p;
  p.id = 1;
  p.ops = std::move(ops);
  return p;
}

/// Rows with keys of every kind: ints across digit widths and signs, two
/// string columns, and doubles including -0.0 and NaNs of both signs.
Chunk KeyKindsChunk() {
  Schema schema({{"i", DataType::kInt64},
                 {"d", DataType::kDouble},
                 {"s", DataType::kString},
                 {"t", DataType::kString},
                 {"v", DataType::kDouble}});
  Chunk chunk = Chunk::Empty(schema);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t ints[] = {100, -1, 9, 10, 9, -1, 100, 10, -5, 0};
  const double doubles[] = {1.5, -0.0, 0.0, nan, -nan,
                            std::nan("7"), 10.0, 9.5, -2.5, 1.5};
  const char* s[] = {"b", "a", "ab", "a", "b", "a", "a", "", "a", "b"};
  const char* t[] = {"x", "yy", "", "b", "x", "yy", "b", "a", "", "x"};
  for (int r = 0; r < 10; ++r) {
    chunk.column(0).AppendInt(ints[r]);
    chunk.column(1).AppendDouble(doubles[r]);
    chunk.column(2).AppendString(s[r]);
    chunk.column(3).AppendString(t[r]);
    chunk.column(4).AppendDouble(1 << r);
  }
  return chunk;
}

OperatorSpec SumAndCountBy(std::vector<std::string> keys) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = std::move(keys);
  agg.aggregates.push_back({"sum", Col("v"), "total"});
  agg.aggregates.push_back({"count", nullptr, "n"});
  return agg;
}

/// A 30-row build side whose keys repeat on both sides of row 20, and a
/// `tag` column holding each row's index.
Chunk DuplicateKeyBuild() {
  Schema schema({{"id", DataType::kInt64}, {"tag", DataType::kInt64}});
  Chunk build = Chunk::Empty(schema);
  for (int64_t r = 0; r < 30; ++r) {
    int64_t id = 100 + r;
    if (r == 0 || r == 5 || r == 12 || r == 20 || r == 21 || r == 25 ||
        r == 28) {
      id = 1;
    } else if (r == 3 || r == 22) {
      id = 2;
    } else if (r == 1 || r == 2) {
      id = -10;
    }
    build.column(0).AppendInt(id);
    build.column(1).AppendInt(r);
  }
  return build;
}

OperatorSpec JoinOnKeyTaggingBuildRows() {
  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"key"};
  join.build_keys = {"id"};
  join.build_columns = {"tag"};
  return join;
}

/// `build` as a pipeline's only build input (a braced list would copy it).
std::vector<Chunk> Builds(Chunk build) {
  std::vector<Chunk> builds;
  builds.push_back(std::move(build));
  return builds;
}

/// Runs `pipeline` in 4-row morsels with a MemoryTracker.
struct TrackedRun {
  std::vector<FragmentOutput> outputs;
  int64_t peak_memory = 0;
};

TrackedRun RunTracked(const PipelineSpec& pipeline, Chunk input,
                      std::vector<Chunk> builds) {
  CostAccumulator cost;
  MemoryTracker memory;
  FragmentPipeline executor(pipeline, std::move(builds), &cost, &memory,
                            /*morsel_rows=*/4);
  EXPECT_TRUE(executor.Push(std::move(input)).ok());
  auto outputs = executor.Finish();
  EXPECT_TRUE(outputs.ok());
  TrackedRun run;
  if (outputs.ok()) run.outputs = std::move(outputs).ValueUnsafe();
  run.peak_memory = memory.peak();
  return run;
}

TEST(ExecutorTest, FilterMaterialized) {
  OperatorSpec filter;
  filter.op = "filter";
  filter.predicate = Cmp(">", Col("amount"), Num(25));
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({filter}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].partition, -1);
  EXPECT_EQ((*out)[0].chunk.rows(), 4);
  EXPECT_GT(cost.ns(), 0);
}

TEST(ExecutorTest, FilterSyntheticUsesSelectivity) {
  OperatorSpec filter;
  filter.op = "filter";
  filter.selectivity = 0.25;
  CostAccumulator cost;
  Chunk synthetic = Chunk::Synthetic(SalesChunk().schema(), 100000);
  auto out =
      ExecuteFragment(PipelineWith({filter}), std::move(synthetic), {}, &cost);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].chunk.rows(), 25000);
  EXPECT_TRUE((*out)[0].chunk.is_synthetic());
}

TEST(ExecutorTest, ProjectComputesAndPassesThrough) {
  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back("region", Col("region"));
  project.projections.emplace_back("double_amount",
                                   Arith("*", Col("amount"), Num(2)));
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({project}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  const Chunk& chunk = (*out)[0].chunk;
  EXPECT_EQ(chunk.schema().field(0).type, DataType::kString);
  EXPECT_EQ(chunk.schema().field(1).type, DataType::kDouble);
  EXPECT_DOUBLE_EQ(chunk.column(1).doubles()[0], 20);
}

TEST(ExecutorTest, HashAggregateGrouped) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"key"};
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  agg.aggregates.push_back({"count", nullptr, "n"});
  agg.aggregates.push_back({"min", Col("amount"), "lo"});
  agg.aggregates.push_back({"max", Col("amount"), "hi"});
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({agg}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  const Chunk& chunk = (*out)[0].chunk;
  ASSERT_EQ(chunk.rows(), 3);
  // Groups sorted by key string: "1","2","3".
  EXPECT_EQ(chunk.column(0).ints(), (std::vector<int64_t>{1, 2, 3}));
  EXPECT_EQ(chunk.column(1).doubles(), (std::vector<double>{100, 70, 40}));
  EXPECT_EQ(chunk.column(2).ints(), (std::vector<int64_t>{3, 2, 1}));
  EXPECT_EQ(chunk.column(3).doubles(), (std::vector<double>{10, 20, 40}));
  EXPECT_EQ(chunk.column(4).doubles(), (std::vector<double>{60, 50, 40}));
}

TEST(ExecutorTest, HashAggregateScalar) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  agg.aggregates.push_back({"count", nullptr, "n"});
  agg.aggregates.push_back({"min", Col("amount"), "lo"});
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({agg}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ((*out)[0].chunk.rows(), 1);
  EXPECT_DOUBLE_EQ((*out)[0].chunk.column(0).doubles()[0], 210);
  EXPECT_EQ((*out)[0].chunk.column(1).ints()[0], 6);
  EXPECT_DOUBLE_EQ((*out)[0].chunk.column(2).doubles()[0], 10);
  // No input rows: no group, so no output row.
  auto empty = ExecuteFragment(PipelineWith({agg}),
                               Chunk::Empty(SalesChunk().schema()), {}, &cost);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ((*empty)[0].chunk.rows(), 0);
}

TEST(ExecutorTest, HashAggregateEmitsGroupsInKeyTextOrder) {
  // Groups come out in ascending order of their keys' text: decimal ints,
  // "%.17g" doubles, each field followed by 0x1F. So 10 and 100 sort before
  // 9, -0.0 is apart from 0.0, and NaNs of one sign form one group.
  CostAccumulator cost;
  auto ints = ExecuteFragment(PipelineWith({SumAndCountBy({"i"})}),
                              KeyKindsChunk(), {}, &cost);
  ASSERT_TRUE(ints.ok());
  const Chunk& by_int = (*ints)[0].chunk;
  EXPECT_EQ(by_int.column(0).ints(),
            (std::vector<int64_t>{-1, -5, 0, 10, 100, 9}));
  EXPECT_EQ(by_int.column(1).doubles(),
            (std::vector<double>{34, 256, 512, 136, 65, 20}));
  EXPECT_EQ(by_int.column(2).ints(), (std::vector<int64_t>{2, 1, 1, 2, 2, 2}));

  auto strings = ExecuteFragment(PipelineWith({SumAndCountBy({"s", "t"})}),
                                 KeyKindsChunk(), {}, &cost);
  ASSERT_TRUE(strings.ok());
  const Chunk& by_strings = (*strings)[0].chunk;
  EXPECT_EQ(by_strings.column(0).strings(),
            (std::vector<std::string>{"", "a", "a", "a", "ab", "b"}));
  EXPECT_EQ(by_strings.column(1).strings(),
            (std::vector<std::string>{"a", "", "b", "yy", "", "x"}));
  EXPECT_EQ(by_strings.column(2).doubles(),
            (std::vector<double>{128, 256, 72, 34, 4, 529}));

  auto doubles = ExecuteFragment(PipelineWith({SumAndCountBy({"d"})}),
                                 KeyKindsChunk(), {}, &cost);
  ASSERT_TRUE(doubles.ok());
  const Chunk& by_double = (*doubles)[0].chunk;
  EXPECT_EQ(by_double.column(1).doubles(),
            (std::vector<double>{2, 256, 16, 4, 513, 64, 128, 40}));
  EXPECT_EQ(by_double.column(2).ints(),
            (std::vector<int64_t>{1, 1, 1, 1, 2, 1, 1, 2}));
  std::vector<std::string> keys;
  for (double d : by_double.column(0).doubles()) {
    keys.push_back(StrFormat("%.17g", d));
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"-0", "-2.5", "-nan", "0", "1.5",
                                            "10", "9.5", "nan"}));
}

TEST(ExecutorTest, HashAggregateKeepsSeparatorStringsApart) {
  // ("a\x1f" "b", "c") and ("a", "b\x1f" "c") share a key text but are
  // distinct keys: they stay two groups, in insertion order.
  Schema schema({{"s", DataType::kString},
                 {"t", DataType::kString},
                 {"v", DataType::kDouble}});
  Chunk chunk = Chunk::Empty(schema);
  chunk.column(0).AppendString("a\x1f" "b");
  chunk.column(1).AppendString("c");
  chunk.column(0).AppendString("a");
  chunk.column(1).AppendString("b\x1f" "c");
  chunk.column(2).AppendDouble(1);
  chunk.column(2).AppendDouble(2);
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({SumAndCountBy({"s", "t"})}),
                             std::move(chunk), {}, &cost);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].chunk.column(2).doubles(), (std::vector<double>{1, 2}));
}

TEST(ExecutorTest, HashAggregateRejectsUnknownFunctionWithoutRows) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.aggregates.push_back({"median", Col("amount"), "m"});
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({agg}),
                             Chunk::Empty(SalesChunk().schema()), {}, &cost);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutorTest, HashAggregatePeakMemoryChargesKeyText) {
  const TrackedRun run =
      RunTracked(PipelineWith({SumAndCountBy({"d", "s"})}), KeyKindsChunk(),
                 {});
  ASSERT_EQ(run.outputs.size(), 1u);
  EXPECT_EQ(run.outputs[0].chunk.rows(), 8);
  EXPECT_EQ(run.peak_memory, 625);
}

TEST(ExecutorTest, HashAggregateSyntheticGroupsHint) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"region"};
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  agg.groups_hint = 3;
  CostAccumulator cost;
  Chunk synthetic = Chunk::Synthetic(SalesChunk().schema(), 1000000);
  auto out = ExecuteFragment(PipelineWith({agg}), std::move(synthetic), {},
                             &cost);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].chunk.rows(), 3);
}

TEST(ExecutorTest, HashJoinInner) {
  Schema dim_schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  Chunk dim = Chunk::Empty(dim_schema);
  dim.column(0).AppendInt(1);
  dim.column(1).AppendString("one");
  dim.column(0).AppendInt(2);
  dim.column(1).AppendString("two");

  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"key"};
  join.build_keys = {"id"};
  join.build_columns = {"name"};
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({join}), SalesChunk(),
                             Builds(std::move(dim)), &cost);
  ASSERT_TRUE(out.ok());
  const Chunk& chunk = (*out)[0].chunk;
  // key=3 has no match: 5 of 6 rows survive.
  EXPECT_EQ(chunk.rows(), 5);
  EXPECT_EQ(chunk.schema().FieldIndex("name"), 3);
  // Row 0: key 1 -> "one".
  EXPECT_EQ(chunk.column(3).strings()[0], "one");
}

TEST(ExecutorTest, HashJoinEmitsDuplicateMatchesInMultimapOrder) {
  // Per probe row, matches come in the order a libstdc++
  // unordered_multimap<std::string, size_t> returned them: build rows
  // inserted while the table held at most 20 rows follow the first one,
  // newest first; later ones go in front of the group, newest first.
  Schema probe_schema({{"key", DataType::kInt64}, {"p", DataType::kInt64}});
  Chunk probe = Chunk::Empty(probe_schema);
  const int64_t keys[] = {1, 2, 7, -10, 1};
  for (int64_t r = 0; r < 5; ++r) {
    probe.column(0).AppendInt(keys[r]);
    probe.column(1).AppendInt(r);
  }
  const TrackedRun run =
      RunTracked(PipelineWith({JoinOnKeyTaggingBuildRows()}),
                 std::move(probe), Builds(DuplicateKeyBuild()));
  ASSERT_EQ(run.outputs.size(), 1u);
  const Chunk& chunk = run.outputs[0].chunk;
  EXPECT_EQ(chunk.column(1).ints(),
            (std::vector<int64_t>{0, 0, 0, 0, 0, 0, 0, 1, 1, 3, 3, 4, 4, 4, 4,
                                  4, 4, 4}));
  EXPECT_EQ(chunk.column(2).ints(),
            (std::vector<int64_t>{28, 25, 21, 0, 20, 12, 5, 22, 3, 1, 2, 28,
                                  25, 21, 0, 20, 12, 5}));
  EXPECT_EQ(run.peak_memory, 1734);
}

TEST(ExecutorTest, HashJoinRejectsKeysOfDifferentKinds) {
  // Int and date keys join; an int key never matches a string or double
  // key through their text.
  Schema dim_schema({{"id", DataType::kString},
                     {"day", DataType::kDate},
                     {"price", DataType::kDouble}});
  Chunk dim = Chunk::Empty(dim_schema);
  dim.column(0).AppendString("1");
  dim.column(1).AppendInt(1);
  dim.column(2).AppendDouble(1);
  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"key"};
  CostAccumulator cost;
  for (const char* key : {"id", "price"}) {
    join.build_keys = {key};
    auto out = ExecuteFragment(PipelineWith({join}), SalesChunk(),
                               Builds(dim.Slice(0, dim.rows())), &cost);
    ASSERT_FALSE(out.ok()) << key;
    EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument) << key;
  }
  join.build_keys = {"day"};
  auto out = ExecuteFragment(PipelineWith({join}), SalesChunk(),
                             Builds(std::move(dim)), &cost);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].chunk.rows(), 3);
}

TEST(ExecutorTest, HashJoinMissingBuildInputFails) {
  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"key"};
  join.build_keys = {"id"};
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({join}), SalesChunk(), {}, &cost);
  EXPECT_FALSE(out.ok());
}

TEST(ExecutorTest, SortAndLimit) {
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"amount"};
  sort.sort_ascending = {false};
  OperatorSpec limit;
  limit.op = "limit";
  limit.limit = 2;
  CostAccumulator cost;
  auto out =
      ExecuteFragment(PipelineWith({sort, limit}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  const Chunk& chunk = (*out)[0].chunk;
  ASSERT_EQ(chunk.rows(), 2);
  EXPECT_DOUBLE_EQ(chunk.column(1).doubles()[0], 60);
  EXPECT_DOUBLE_EQ(chunk.column(1).doubles()[1], 50);
}

TEST(ExecutorTest, SortMultiKeyWithStrings) {
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"region", "amount"};
  sort.sort_ascending = {true, true};
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({sort}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  const Chunk& chunk = (*out)[0].chunk;
  EXPECT_EQ(chunk.column(2).strings()[0], "ap");
  EXPECT_EQ(chunk.column(2).strings()[1], "eu");
  EXPECT_DOUBLE_EQ(chunk.column(1).doubles()[1], 10);
}

TEST(ExecutorTest, PartitionWriteSplitsByHash) {
  OperatorSpec write;
  write.op = "partition_write";
  write.partition_keys = {"key"};
  write.partition_count = 4;
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({write}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  int64_t total = 0;
  for (const auto& output : *out) total += output.chunk.rows();
  EXPECT_EQ(total, 6);
  // Same key always lands in the same partition.
  for (const auto& output : *out) {
    const auto& keys = output.chunk.column(0).ints();
    for (int64_t k : keys) {
      for (const auto& other : *out) {
        if (&other == &output) continue;
        for (int64_t ok : other.chunk.column(0).ints()) {
          EXPECT_NE(k, ok);
        }
      }
    }
  }
  // A row goes to partition FNV-1a(key text) % 4; the key text is the one
  // hash aggregation orders by. Pinned per row via the unique amounts.
  std::vector<std::vector<double>> amounts;
  for (const auto& output : *out) {
    amounts.push_back(output.chunk.column(1).doubles());
  }
  EXPECT_EQ(amounts, (std::vector<std::vector<double>>{
                         {20, 50}, {40}, {}, {10, 30, 60}}));
  write.partition_keys = {"region"};
  auto by_string =
      ExecuteFragment(PipelineWith({write}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(by_string.ok());
  amounts.clear();
  for (const auto& output : *by_string) {
    amounts.push_back(output.chunk.column(1).doubles());
  }
  EXPECT_EQ(amounts, (std::vector<std::vector<double>>{
                         {20, 50}, {}, {10, 30, 60}, {40}}));
  write.partition_keys = {"region", "key"};
  auto by_both =
      ExecuteFragment(PipelineWith({write}), SalesChunk(), {}, &cost);
  ASSERT_TRUE(by_both.ok());
  amounts.clear();
  for (const auto& output : *by_both) {
    amounts.push_back(output.chunk.column(1).doubles());
  }
  EXPECT_EQ(amounts, (std::vector<std::vector<double>>{
                         {}, {40}, {10, 30, 60}, {20, 50}}));
  write.partition_keys = {"i"};
  auto by_int =
      ExecuteFragment(PipelineWith({write}), KeyKindsChunk(), {}, &cost);
  ASSERT_TRUE(by_int.ok());
  amounts.clear();
  for (const auto& output : *by_int) {
    amounts.push_back(output.chunk.column(4).doubles());
  }
  EXPECT_EQ(amounts, (std::vector<std::vector<double>>{
                         {}, {}, {2, 32, 256, 512}, {1, 4, 8, 16, 64, 128}}));
}

TEST(ExecutorTest, PartitionWriteSyntheticEvenSplit) {
  OperatorSpec write;
  write.op = "partition_write";
  write.partition_keys = {"key"};
  write.partition_count = 3;
  CostAccumulator cost;
  Chunk synthetic = Chunk::Synthetic(SalesChunk().schema(), 100);
  auto out = ExecuteFragment(PipelineWith({write}), std::move(synthetic), {},
                             &cost);
  ASSERT_TRUE(out.ok());
  int64_t total = 0;
  for (const auto& output : *out) {
    EXPECT_NEAR(output.chunk.rows(), 33, 1);
    total += output.chunk.rows();
  }
  EXPECT_EQ(total, 100);
}

TEST(ExecutorTest, SessionizeCountsWindowViews) {
  Schema schema({{"wcs_click_date", DataType::kDate},
                 {"wcs_user_sk", DataType::kInt64},
                 {"wcs_item_sk", DataType::kInt64},
                 {"wcs_sales_sk", DataType::kInt64},
                 {"i_category_id", DataType::kInt64}});
  Chunk chunk = Chunk::Empty(schema);
  // User 1: views item 5 on days 1 and 3 (category 1), views item 9 on day 4
  // (category 2), purchases item 7 (category 1) on day 8.
  // User 2: view on day 1, purchase 20 days later (outside window).
  struct Row {
    int64_t d, u, i, s, c;
  };
  const Row rows[] = {
      {1, 1, 5, 0, 1}, {3, 1, 5, 0, 1}, {4, 1, 9, 0, 2}, {8, 1, 7, 99, 1},
      {1, 2, 5, 0, 1}, {21, 2, 7, 77, 1},
  };
  for (const auto& r : rows) {
    chunk.column(0).AppendInt(r.d);
    chunk.column(1).AppendInt(r.u);
    chunk.column(2).AppendInt(r.i);
    chunk.column(3).AppendInt(r.s);
    chunk.column(4).AppendInt(r.c);
  }
  OperatorSpec udf;
  udf.op = "bb_sessionize";
  udf.session_window_days = 10;
  udf.target_category = 1;
  CostAccumulator cost;
  auto out = ExecuteFragment(PipelineWith({udf}), std::move(chunk), {}, &cost);
  ASSERT_TRUE(out.ok());
  // Both day-1 and day-3 views of item 5 are in user 1's window; the
  // category-2 view and user 2's stale view are not.
  EXPECT_EQ((*out)[0].chunk.rows(), 2);
  EXPECT_EQ((*out)[0].chunk.column(0).ints(),
            (std::vector<int64_t>{5, 5}));
}

TEST(ExecutorTest, UnknownOperatorRejected) {
  OperatorSpec bogus;
  bogus.op = "nonsense";
  CostAccumulator cost;
  EXPECT_FALSE(
      ExecuteFragment(PipelineWith({bogus}), SalesChunk(), {}, &cost).ok());
}

TEST(ExecutorTest, CostScalesWithVcpus) {
  CostAccumulator cost;
  cost.AddNs(4000.0);
  EXPECT_EQ(cost.Duration(1), 4);
  EXPECT_EQ(cost.Duration(4), 1);
}

TEST(ExecutorTest, SyntheticAndRealSchemasAgree) {
  // Property: the synthetic path must produce the same output schema as the
  // real path for the same pipeline.
  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back("region", Col("region"));
  project.projections.emplace_back("x", Arith("+", Col("amount"), Num(1)));
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"region"};
  agg.aggregates.push_back({"sum", Col("x"), "sx"});
  agg.groups_hint = 3;
  PipelineSpec pipeline = PipelineWith({project, agg});
  CostAccumulator c1, c2;
  auto real = ExecuteFragment(pipeline, SalesChunk(), {}, &c1);
  auto synthetic = ExecuteFragment(
      pipeline, Chunk::Synthetic(SalesChunk().schema(), 6), {}, &c2);
  ASSERT_TRUE(real.ok());
  ASSERT_TRUE(synthetic.ok());
  EXPECT_TRUE((*real)[0].chunk.schema() == (*synthetic)[0].chunk.schema());
  // Identical row counts charge identical CPU cost.
  EXPECT_DOUBLE_EQ(c1.ns(), c2.ns());
}

// --- Dictionary-coded string columns. ---
//
// Predicates and key hashes are computed once per dictionary value and kept
// from chunk to chunk; these runs change the dictionary under them between
// chunks: another one, one that grew, one refilled in place, one freed.

data::Column Strings(const std::vector<std::string>& values) {
  data::Column column(DataType::kString);
  for (const auto& value : values) column.AppendString(value);
  return column;
}

/// A chunk of `strings` as column "s" and a 1 per row as column "v"; the
/// chunk shares `strings`' dictionary.
Chunk ChunkOf(const data::Column& strings) {
  Chunk chunk = Chunk::Empty(
      Schema({{"s", DataType::kString}, {"v", DataType::kInt64}}));
  chunk.column(0) = strings;
  for (size_t row = 0; row < strings.size(); ++row) {
    chunk.column(1).AppendInt(1);
  }
  return chunk;
}

/// Decodes the encoding of `values` into `column`, which must hold its
/// dictionary alone: the dictionary is refilled in place.
void RefillInPlace(const std::vector<std::string>& values,
                   data::Column* column) {
  std::string encoded;
  format::EncodeColumn(Strings(values), &encoded);
  const data::StringDict* dict = column->dict().get();
  const uint64_t refills = dict->refills();
  ASSERT_TRUE(format::DecodeColumnInto(encoded.data(), encoded.size(),
                                       DataType::kString,
                                       static_cast<int64_t>(values.size()),
                                       column)
                  .ok());
  ASSERT_EQ(column->dict().get(), dict);
  ASSERT_EQ(dict->refills(), refills + 1);
}

TEST(DictionaryTest, StringPredicateFollowsEachDictionary) {
  const ExprPtr predicate = Or(InList(Col("s"), {"MAIL", "SHIP"}),
                               Cmp(">=", Col("s"), Str("TRUCK")));
  auto kernel =
      ExprKernel::Predicate(*predicate, ChunkOf(Strings({})).schema());
  ASSERT_TRUE(kernel.ok());
  auto check = [&](const data::Column& strings) {
    std::vector<uint32_t> expected;
    for (size_t row = 0; row < strings.size(); ++row) {
      const std::string_view value = strings.strings()[row];
      if (value == "MAIL" || value == "SHIP" || value >= "TRUCK") {
        expected.push_back(static_cast<uint32_t>(row));
      }
    }
    std::vector<uint32_t> rows;
    kernel->Select(ChunkOf(strings), &rows);
    EXPECT_EQ(rows, expected) << testing::PrintToString(strings.strings());
  };
  data::Column first = Strings({"MAIL", "AIR", "TRUCK", "SHIP", "AIR"});
  data::Column second = Strings({"FOB", "AIR", "RAIL", "ZULU"});
  check(first);
  check(second);
  check(first);
  // The first dictionary grows through a column that shares it.
  data::Column grown = first;
  for (const char* value : {"REG AIR", "XRAY", "MAIL", "FOB"}) {
    grown.AppendString(value);
  }
  ASSERT_EQ(grown.dict(), first.dict());
  check(grown);
  check(first);
  // The second is refilled in place, four values at its four codes.
  check(second);
  RefillInPlace({"SHIP", "MAIL", "TRUCK", "AIR", "SHIP"}, &second);
  check(second);
  // A dictionary is freed, and another takes its place.
  { check(Strings({"AIR", "MAIL"})); }
  check(Strings({"MAIL", "AIR"}));
}

TEST(DictionaryTest, StringKeyAggregateFollowsEachDictionary) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"s"};
  agg.aggregates.push_back({"count", nullptr, "n"});
  const PipelineSpec pipeline = PipelineWith({agg});
  CostAccumulator cost;
  data::ChunkPool no_reuse(0);  // Keeps no pushed chunk alive.
  FragmentPipeline executor(pipeline, {}, &cost, nullptr, 0, &no_reuse);
  std::map<std::string, int64_t> expected;
  auto push = [&](const data::Column& strings) {
    for (size_t row = 0; row < strings.size(); ++row) {
      ++expected[std::string(strings.strings()[row])];
    }
    ASSERT_TRUE(executor.Push(ChunkOf(strings)).ok());
  };
  const data::Column first = Strings({"N", "R", "A", "N"});
  data::Column second = Strings({"O", "F", "O"});
  push(first);
  push(second);
  {
    data::Column grown = second;
    grown.AppendString("P");
    grown.AppendString("N");
    push(grown);
  }
  push(second);
  RefillInPlace({"Q", "P", "F", "Q"}, &second);
  push(second);
  push(Strings({"Q", "F", "P"}));
  push(first);
  auto outputs = executor.Finish();
  ASSERT_TRUE(outputs.ok()) << outputs.status().ToString();
  const Chunk& result = (*outputs)[0].chunk;
  std::vector<std::string> keys;
  std::vector<int64_t> counts;
  for (int64_t g = 0; g < result.rows(); ++g) {
    keys.emplace_back(result.column(0).strings()[static_cast<size_t>(g)]);
    counts.push_back(result.column(1).ints()[static_cast<size_t>(g)]);
  }
  std::vector<std::string> expected_keys;
  std::vector<int64_t> expected_counts;
  for (const auto& [key, count] : expected) {
    expected_keys.push_back(key);
    expected_counts.push_back(count);
  }
  EXPECT_EQ(keys, expected_keys);
  EXPECT_EQ(counts, expected_counts);
}

TEST(DictionaryTest, ValueListedTwiceInADictionaryIsOneGroup) {
  // A hand-built dictionary chunk listing "MAIL" twice, ids using both.
  std::string encoded(1,
                      static_cast<char>(format::ColumnEncoding::kStringDict));
  format::PutVarint(&encoded, 3);
  for (const char* value : {"AIR", "MAIL", "MAIL"}) {
    format::PutVarint(&encoded, std::strlen(value));
    encoded.append(value);
  }
  for (uint8_t id : {1, 2, 0, 2, 1}) encoded.push_back(static_cast<char>(id));
  auto decoded = format::DecodeColumn(encoded, DataType::kString, 5);
  ASSERT_TRUE(decoded.ok());
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"s"};
  agg.aggregates.push_back({"count", nullptr, "n"});
  CostAccumulator cost;
  auto outputs =
      ExecuteFragment(PipelineWith({agg}), ChunkOf(*decoded), {}, &cost);
  ASSERT_TRUE(outputs.ok());
  const Chunk& result = (*outputs)[0].chunk;
  EXPECT_EQ(result.column(0).strings(),
            (std::vector<std::string>{"AIR", "MAIL"}));
  EXPECT_EQ(result.column(1).ints(), (std::vector<int64_t>{1, 4}));
}

// --- Dense grouping of dictionary-coded keys. ---
//
// An aggregate whose keys are all strings, with few enough tuples of codes,
// finds each row's group by its codes. Each case runs the same rows twice:
// once with dictionaries that allow that, once with a key's dictionary
// padded by values no row uses, which makes the code space too large and
// sends the rows through the hashed lookup. Both runs must agree on the
// output chunk, the group order, the state bytes after every chunk and the
// cost, and both must match a row-at-a-time reference.

/// A string column whose dictionary lists `values`, then `padding` values
/// no row uses, and whose rows hold `codes`.
data::Column Coded(const std::vector<std::string>& values, bool distinct,
                   size_t padding, std::vector<uint32_t> codes) {
  data::Column column(DataType::kString);
  data::StringDict* dict = column.RefillDict(distinct);
  for (const auto& value : values) dict->Add(value);
  for (size_t p = 0; p < padding; ++p) dict->Add(StrFormat("pad%zu", p));
  column.codes() = std::move(codes);
  return column;
}

/// `column`'s dictionary, shared, under `codes`.
data::Column WithCodes(const data::Column& column,
                       std::vector<uint32_t> codes) {
  data::Column out = column;
  out.codes() = std::move(codes);
  return out;
}

/// `rows` codes below `size`.
std::vector<uint32_t> RandomCodes(Rng* rng, size_t rows, uint32_t size) {
  std::vector<uint32_t> codes(rows);
  for (uint32_t& code : codes) {
    code = static_cast<uint32_t>(rng->UniformInt(0, size - 1));
  }
  return codes;
}

/// A sum and a count of "v" grouped by `keys` of the columns "s", "t" (both
/// strings) and "i", fed chunk by chunk; keeps the state bytes after each
/// chunk, and a row-at-a-time reference of the groups.
class KeyedAggRun {
 public:
  explicit KeyedAggRun(std::vector<std::string> keys)
      : keys_(keys),
        pipeline_(PipelineWith({SumAndCountBy(std::move(keys))})),
        executor_(pipeline_, {}, &cost_, &memory_, 0, &no_reuse_) {}

  /// Pushes one chunk of `s` and `t` ("i" is the row's position overall).
  void Push(const data::Column& s, const data::Column& t) {
    Chunk chunk = Chunk::Empty(Schema({{"s", DataType::kString},
                                       {"t", DataType::kString},
                                       {"i", DataType::kInt64},
                                       {"v", DataType::kDouble}}));
    chunk.column(0) = s;
    chunk.column(1) = t;
    for (size_t row = 0; row < s.size(); ++row, ++next_) {
      chunk.column(2).AppendInt(static_cast<int64_t>(next_ % 3) - 1);
      chunk.column(3).AppendDouble(0.1 * static_cast<double>(next_ + 1));
      std::vector<std::string> key;
      for (const auto& name : keys_) {
        const data::Column& col = chunk.column(name);
        key.push_back(col.type() == DataType::kString
                          ? std::string(col.strings()[row])
                          : std::to_string(col.ints()[row]));
      }
      auto [it, added] = index_.emplace(key, groups_.size());
      if (added) groups_.push_back({key, 0, 0});
      groups_[it->second].sum += chunk.column(3).doubles()[row];
      ++groups_[it->second].count;
    }
    ASSERT_TRUE(executor_.Push(std::move(chunk)).ok());
    state_bytes_.push_back(memory_.current());
  }

  /// Ends the stream, checks the output against the reference and returns
  /// it.
  Chunk Finish() {
    auto outputs = executor_.Finish();
    EXPECT_TRUE(outputs.ok()) << outputs.status().ToString();
    if (!outputs.ok()) return Chunk();
    Chunk out = std::move((*outputs)[0].chunk);
    // Groups in ascending key text; equal texts keep insertion order.
    auto text = [](const Group& g) {
      std::string t;
      for (const auto& value : g.key) t += value + "\x1f";
      return t;
    };
    std::vector<Group> order = groups_;
    std::stable_sort(order.begin(), order.end(),
                     [&](const Group& a, const Group& b) {
                       return text(a) < text(b);
                     });
    EXPECT_EQ(out.rows(), static_cast<int64_t>(order.size()));
    for (size_t g = 0; g < order.size() && g < out.column(0).size(); ++g) {
      for (size_t k = 0; k < keys_.size(); ++k) {
        const data::Column& col = out.column(k);
        EXPECT_EQ(col.type() == DataType::kString
                      ? std::string(col.strings()[g])
                      : std::to_string(col.ints()[g]),
                  order[g].key[k]);
      }
      EXPECT_EQ(out.column(keys_.size()).doubles()[g], order[g].sum);
      EXPECT_EQ(out.column(keys_.size() + 1).ints()[g], order[g].count);
    }
    return out;
  }

  const std::vector<int64_t>& state_bytes() const { return state_bytes_; }
  int64_t peak() const { return memory_.peak(); }
  double cost_ns() const { return cost_.ns(); }

 private:
  struct Group {
    std::vector<std::string> key;
    double sum;
    int64_t count;
  };

  std::vector<std::string> keys_;
  PipelineSpec pipeline_;
  CostAccumulator cost_;
  MemoryTracker memory_;
  data::ChunkPool no_reuse_{0};  // Keeps no pushed chunk alive.
  FragmentPipeline executor_;
  size_t next_ = 0;
  std::map<std::vector<std::string>, size_t> index_;
  std::vector<Group> groups_;
  std::vector<int64_t> state_bytes_;
};

/// Finishes both runs and expects one output chunk, group order, state
/// bytes after every chunk, peak and cost.
void ExpectSameRuns(KeyedAggRun* dense, KeyedAggRun* hashed) {
  const Chunk a = dense->Finish();
  const Chunk b = hashed->Finish();
  ASSERT_EQ(a.schema(), b.schema());
  ASSERT_EQ(a.rows(), b.rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    switch (a.column(c).type()) {
      case DataType::kString:
        EXPECT_EQ(a.column(c).strings(), b.column(c).strings());
        break;
      case DataType::kDouble:
        EXPECT_EQ(a.column(c).doubles(), b.column(c).doubles());
        break;
      default:
        EXPECT_EQ(a.column(c).ints(), b.column(c).ints());
    }
  }
  EXPECT_EQ(dense->state_bytes(), hashed->state_bytes());
  EXPECT_EQ(dense->peak(), hashed->peak());
  EXPECT_EQ(dense->cost_ns(), hashed->cost_ns());
}

constexpr size_t kPastTheCap = 4096;  // Padding that forces hashed lookup.

TEST(DenseGroupingTest, FrozenDictionariesAlternatingBetweenChunks) {
  // Two memo-like frozen dictionaries per key, of one size and in
  // different orders, and values whose key texts collide through a 0x1F:
  // those groups come out in the order they opened.
  const std::vector<std::string> s1 = {"N", "a\x1f" "b", "R", "a"};
  const std::vector<std::string> s2 = {"a", "X", "N", "a\x1f" "b"};
  const std::vector<std::string> t1 = {"c", "b\x1f" "c"};
  const std::vector<std::string> t2 = {"b\x1f" "c", "c"};
  KeyedAggRun dense({"s", "t"}), hashed({"s", "t"});
  struct Pair {
    data::Column s, t;
  };
  auto frozen = [](data::Column column) {
    column.dict()->Freeze();
    return column;
  };
  const Pair dense_dicts[2] = {{frozen(Coded(s1, true, 0, {})),
                                frozen(Coded(t1, true, 0, {}))},
                               {frozen(Coded(s2, true, 0, {})),
                                frozen(Coded(t2, true, 0, {}))}};
  const Pair hashed_dicts[2] = {
      {frozen(Coded(s1, true, kPastTheCap, {})),
       frozen(Coded(t1, true, 0, {}))},
      {frozen(Coded(s2, true, kPastTheCap, {})),
       frozen(Coded(t2, true, 0, {}))}};
  Rng rng(17);
  for (int chunk = 0; chunk < 8; ++chunk) {
    const int d = chunk % 2;
    const size_t rows = static_cast<size_t>(rng.UniformInt(1, 40));
    const std::vector<uint32_t> s = RandomCodes(
        &rng, rows, static_cast<uint32_t>((d == 0 ? s1 : s2).size()));
    const std::vector<uint32_t> t = RandomCodes(
        &rng, rows, static_cast<uint32_t>((d == 0 ? t1 : t2).size()));
    dense.Push(WithCodes(dense_dicts[d].s, s), WithCodes(dense_dicts[d].t, t));
    hashed.Push(WithCodes(hashed_dicts[d].s, s),
                WithCodes(hashed_dicts[d].t, t));
  }
  ExpectSameRuns(&dense, &hashed);
}

TEST(DenseGroupingTest, DictionaryRefilledBetweenChunks) {
  // "s" is refilled in place to as many values as before, at other codes.
  KeyedAggRun dense({"s", "t"}), hashed({"s", "t"});
  const data::Column t_dense = Coded({"F", "O"}, true, 0, {0, 1, 1, 0});
  const data::Column t_hashed =
      Coded({"F", "O"}, true, kPastTheCap, {0, 1, 1, 0});
  const data::Column first = Strings({"N", "R", "A", "N"});
  dense.Push(first, t_dense);
  hashed.Push(first, t_hashed);
  data::Column s = Strings({"R", "A", "N", "A"});
  dense.Push(s, t_dense);
  hashed.Push(s, t_hashed);
  RefillInPlace({"Q", "P", "F", "Q"}, &s);
  ASSERT_EQ(s.dict()->size(), 3u);
  dense.Push(s, t_dense);
  hashed.Push(s, t_hashed);
  RefillInPlace({"A", "N", "R", "A"}, &s);
  dense.Push(s, t_dense);
  hashed.Push(s, t_hashed);
  ExpectSameRuns(&dense, &hashed);
}

TEST(DenseGroupingTest, DictionaryGrownBetweenChunks) {
  // "s" grows from three values to four through a column sharing it; rows
  // after that land on slots that rows before it filled.
  KeyedAggRun dense({"s", "t"}), hashed({"s", "t"});
  const data::Column t_dense = Coded({"F", "O"}, true, 0, {});
  const data::Column t_hashed = Coded({"F", "O"}, true, kPastTheCap, {});
  data::Column s = Strings({"R", "A", "N", "N", "R", "A"});
  const std::vector<uint32_t> before = {0, 0, 0, 1, 1, 1};
  dense.Push(s, WithCodes(t_dense, before));
  hashed.Push(s, WithCodes(t_hashed, before));
  data::Column grown = s;
  grown.AppendString("Z");
  ASSERT_EQ(grown.dict(), s.dict());
  grown = WithCodes(grown, {1, 3, 0, 3});
  const std::vector<uint32_t> after = {1, 0, 1, 1};
  dense.Push(grown, WithCodes(t_dense, after));
  hashed.Push(grown, WithCodes(t_hashed, after));
  ExpectSameRuns(&dense, &hashed);
}

TEST(DenseGroupingTest, ValueListedTwiceIsOneGroup) {
  KeyedAggRun dense({"s", "t"}), hashed({"s", "t"});
  const std::vector<uint32_t> s = {2, 0, 1, 2, 0, 2, 1};
  const std::vector<uint32_t> t = {0, 0, 0, 1, 1, 0, 1};
  const std::vector<std::string> listed = {"MAIL", "AIR", "MAIL"};
  dense.Push(Coded(listed, false, 0, s), Coded({"x", "y"}, true, 0, t));
  hashed.Push(Coded(listed, false, kPastTheCap, s),
              Coded({"x", "y"}, true, 0, t));
  ExpectSameRuns(&dense, &hashed);
}

TEST(DenseGroupingTest, CodeSpaceAboveTheCapFallsBack) {
  // 70 x 60 tuples of codes exceed 4,096.
  std::vector<std::string> s_values, t_values;
  for (int v = 0; v < 70; ++v) s_values.push_back(StrFormat("s%d", v));
  for (int v = 0; v < 60; ++v) t_values.push_back(StrFormat("t%d", v));
  KeyedAggRun run({"s", "t"});
  Rng rng(23);
  for (int chunk = 0; chunk < 3; ++chunk) {
    run.Push(Coded(s_values, true, 0, RandomCodes(&rng, 300, 70)),
             Coded(t_values, true, 0, RandomCodes(&rng, 300, 60)));
  }
  run.Finish();
}

TEST(DenseGroupingTest, MixedStringAndIntKeysFallBack) {
  KeyedAggRun run({"s", "i"});
  Rng rng(29);
  const data::Column s = Coded({"A", "B", "C"}, true, 0, {});
  for (int chunk = 0; chunk < 3; ++chunk) {
    run.Push(WithCodes(s, RandomCodes(&rng, 20, 3)),
             Coded({"x"}, true, 0, std::vector<uint32_t>(20, 0)));
  }
  run.Finish();
}

}  // namespace
}  // namespace skyrise::engine
