#include "engine/column_memo.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/chunk_pool.h"
#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "format/cof.h"
#include "format/encoding.h"
#include "storage/object_store.h"

namespace skyrise::engine {
namespace {

using data::Chunk;
using data::Column;
using data::DataType;
using data::Schema;
using storage::Blob;

Column Ints(const std::vector<int64_t>& values) {
  Column column(DataType::kInt64);
  column.ints() = values;
  return column;
}

/// `column` as one stored COF column chunk.
Blob Encoded(const Column& column) {
  std::string bytes;
  format::EncodeColumn(column, &bytes);
  return Blob::FromString(std::move(bytes));
}

TEST(ColumnChunkMemoTest, DecodesEachStoredChunkOnce) {
  ColumnChunkMemo memo;
  const Column values = Ints({5, 7, 9});
  const Blob stored = Encoded(values);
  auto first = memo.Decode(stored, DataType::kInt64, 3);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ((*first)->ints(), values.ints());
  // Another view of the same bytes, as a second ranged GET returns, hits.
  auto again = memo.Decode(stored.Slice(0, stored.size()), DataType::kInt64, 3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(memo.hits(), 1);
  EXPECT_EQ(memo.misses(), 1);
  // Equal bytes in another buffer are decoded for themselves.
  auto copy = memo.Decode(Blob::FromString(stored.data()), DataType::kInt64, 3);
  ASSERT_TRUE(copy.ok());
  EXPECT_NE(*copy, *first);
  EXPECT_EQ((*copy)->ints(), values.ints());
  EXPECT_EQ(memo.misses(), 2);
}

TEST(ColumnChunkMemoTest, StringColumnsHoldFrozenDictionaries) {
  ColumnChunkMemo memo;
  Column values(DataType::kString);
  for (const char* value : {"MAIL", "SHIP", "MAIL"}) values.AppendString(value);
  auto decoded = memo.Decode(Encoded(values), DataType::kString, 3);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->strings(), values.strings());
  EXPECT_TRUE((*decoded)->dict()->frozen());
}

TEST(ColumnChunkMemoTest, FreedBufferIsDecodedAfreshAndSwept) {
  ColumnChunkMemo memo;
  // Forty rows keep the chunk out of std::string's inline buffer, so the
  // next chunk of its size is likely allocated where it lay.
  Blob stored = Encoded(Ints(std::vector<int64_t>(40, 1)));
  const size_t size = static_cast<size_t>(stored.size());
  ASSERT_TRUE(memo.Decode(stored, DataType::kInt64, 40).ok());
  stored = Blob();
  const Blob next = Encoded(Ints(std::vector<int64_t>(40, 2)));
  ASSERT_EQ(static_cast<size_t>(next.size()), size);
  auto decoded = memo.Decode(next, DataType::kInt64, 40);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->ints(), std::vector<int64_t>(40, 2));
  EXPECT_EQ(memo.misses(), 2);
  // Only the live buffer's entry survives a sweep.
  ASSERT_TRUE(memo.Decode(Encoded(Ints({3})), DataType::kInt64, 1).ok());
  memo.Sweep();
  EXPECT_EQ(memo.size(), 1u);
}

TEST(ColumnChunkMemoTest, DecodeFailuresAreNotRemembered) {
  ColumnChunkMemo memo;
  const Blob garbage = Blob::FromString("\x7f garbage");
  EXPECT_FALSE(memo.Decode(garbage, DataType::kInt64, 3).ok());
  EXPECT_FALSE(memo.Decode(garbage, DataType::kInt64, 3).ok());
  EXPECT_EQ(memo.misses(), 2);
  EXPECT_EQ(memo.size(), 0u);
}

// --- A pushdown over memo columns against decode then FilterKernel::Apply.

/// 40 rows: keys 0..39, amounts 2.5 * key, and regions from a dictionary
/// of three values.
Chunk Sales() {
  Chunk chunk = Chunk::Empty(Schema({{"key", DataType::kInt64},
                                     {"amount", DataType::kDouble},
                                     {"region", DataType::kString}}));
  const char* regions[] = {"eu", "us", "ap"};
  for (int64_t key = 0; key < 40; ++key) {
    chunk.column(0).AppendInt(key);
    chunk.column(1).AppendDouble(2.5 * static_cast<double>(key));
    chunk.column(2).AppendString(regions[key * 7 % 3]);
  }
  return chunk;
}

void ExpectSameRows(const Chunk& expected, const Chunk& actual) {
  ASSERT_EQ(expected.schema(), actual.schema());
  ASSERT_EQ(expected.rows(), actual.rows());
  EXPECT_EQ(expected.column(0).ints(), actual.column(0).ints());
  EXPECT_EQ(expected.column(1).doubles(), actual.column(1).doubles());
  EXPECT_EQ(expected.column(2).strings(), actual.column(2).strings());
}

TEST(ColumnChunkMemoTest, PushdownOverMemoColumnsMatchesDecodeThenFilter) {
  const Chunk sales = Sales();
  const Schema& schema = sales.schema();
  std::vector<Blob> stored;
  for (size_t c = 0; c < schema.size(); ++c) {
    stored.push_back(Encoded(sales.column(c)));
  }
  ColumnChunkMemo memo;
  ExprKernel::ColumnRefs columns;
  for (size_t c = 0; c < schema.size(); ++c) {
    auto column = memo.Decode(stored[c], schema.field(c).type, sales.rows());
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    columns.push_back(*column);
  }
  struct Case {
    const char* name;
    ExprPtr predicate;
    int64_t kept;
  };
  const Case cases[] = {
      {"all", Cmp(">=", Col("key"), Num(0)), 40},
      {"none", Cmp(">", Col("amount"), Num(1000)), 0},
      {"some", Between(Col("key"), Num(10), Num(19)), 10},
      {"strings", And(InList(Col("region"), {"eu", "ap"}),
                      Cmp("!=", Col("region"), Str("ap"))),
       14},
  };
  for (const Case& test : cases) {
    SCOPED_TRACE(test.name);
    CostAccumulator apply_cost;
    data::ChunkPool apply_pool;
    FilterKernel apply(test.predicate, 0.5, &apply_cost, &apply_pool);
    Chunk decoded = Chunk::Empty(schema);
    for (size_t c = 0; c < schema.size(); ++c) {
      const std::string_view bytes = stored[c].bytes();
      ASSERT_TRUE(format::DecodeColumnInto(bytes.data(), bytes.size(),
                                           schema.field(c).type, sales.rows(),
                                           &decoded.column(c))
                      .ok());
    }
    auto expected = apply.Apply(std::move(decoded));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    EXPECT_EQ(expected->rows(), test.kept);

    // Twice: the second pass filters dictionaries the first pass's output
    // shares with the memo.
    CostAccumulator gather_cost;
    data::ChunkPool gather_pool;
    FilterKernel gather(test.predicate, 0.5, &gather_cost, &gather_pool);
    for (int pass = 1; pass <= 2; ++pass) {
      auto actual =
          gather.Gather(schema, columns, static_cast<size_t>(sales.rows()));
      ASSERT_TRUE(actual.ok()) << actual.status().ToString();
      ExpectSameRows(*expected, *actual);
      EXPECT_EQ(gather_cost.ns(), pass * apply_cost.ns());
      if (actual->rows() > 0) {
        EXPECT_EQ(actual->column(2).dict(), columns[2]->dict());
      }
    }
  }
  // The memo's columns are as decoded.
  ExpectSameRows(sales, Chunk(schema, {*columns[0], *columns[1], *columns[2]}));
}

// --- The memo inside an engine. ---

/// One engine on Lambda over TPC-H lineitem and orders (scale 0.002, three
/// files each).
class MemoCluster {
 public:
  static constexpr int kParts = 3;

  MemoCluster()
      : fabric_driver_(&env_, &fabric_),
        store_(&env_, storage::ObjectStore::StandardOptions()),
        queue_(&env_) {
    tpch_.scale_factor = 0.002;
    UploadLineitem(/*price_factor=*/1);
    SKYRISE_CHECK_OK(datagen::UploadDataset(
                         &store_, "orders", datagen::OrdersSchema(), kParts,
                         [&](int p) {
                           return datagen::GenerateOrdersPartition(tpch_, p,
                                                                   kParts);
                         })
                         .status());
    EngineContext context;
    context.env = &env_;
    context.table_store = &store_;
    context.shuffle_store = &store_;
    context.catalog = &catalog_;
    context.queue = &queue_;
    context.meter = &meter_;
    engine_ = std::make_unique<QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine_->Deploy(&registry_));
    lambda_ = std::make_unique<faas::LambdaPlatform>(
        &env_, &fabric_driver_, &registry_, faas::LambdaPlatform::Options());
  }

  /// Stores lineitem under its usual keys, every l_extendedprice times
  /// `price_factor`.
  void UploadLineitem(double price_factor) {
    const data::Schema schema = datagen::LineitemSchema();
    const size_t price = static_cast<size_t>(
        schema.FieldIndex("l_extendedprice"));
    lineitem_ = *datagen::UploadDataset(
        &store_, "lineitem", schema, kParts, [&](int p) {
          Chunk chunk = datagen::GenerateLineitemPartition(tpch_, p, kParts);
          for (double& value : chunk.column(price).doubles()) {
            value *= price_factor;
          }
          return chunk;
        });
  }

  void Run(const QueryPlan& plan, const std::string& id) {
    Status status = Status::Internal("did not complete");
    engine_->Run(lambda_.get(), plan, id,
                 [&](Result<QueryResponse> r) { status = r.status(); });
    env_.RunUntil(env_.now() + Minutes(30));
    SKYRISE_CHECK_OK(status);
  }

  std::string ResultBytes(const std::string& id) const {
    return store_.Peek(ResultKey(id)).ValueOrDie().data();
  }

  /// The file offsets and sizes of every lineitem column chunk.
  std::vector<std::pair<int64_t, int64_t>> LineitemChunks() const {
    std::vector<std::pair<int64_t, int64_t>> chunks;
    for (const auto& part : lineitem_.partitions) {
      const Blob file = store_.Peek(part.key).ValueOrDie();
      auto meta = format::ParseFooter(file.bytes(), 0, file.size());
      SKYRISE_CHECK_OK(meta.status());
      for (const auto& rg : meta->row_groups) {
        for (const auto& cm : rg.columns) {
          chunks.emplace_back(cm.offset, cm.size);
        }
      }
    }
    return chunks;
  }

  ColumnChunkMemo& memo() { return engine_->context()->table_columns; }
  QueryEngine& engine() { return *engine_; }
  storage::ObjectStore& store() { return store_; }
  const datagen::DatasetInfo& lineitem() const { return lineitem_; }

 private:
  sim::SimEnvironment env_{2024};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  storage::ObjectStore store_;
  storage::QueueService queue_;
  format::SyntheticFileCatalog catalog_;
  pricing::CostMeter meter_;
  faas::FunctionRegistry registry_;
  datagen::TpchConfig tpch_;
  datagen::DatasetInfo lineitem_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<faas::LambdaPlatform> lambda_;
};

std::vector<std::pair<std::string, QueryPlan>> Q1AndQ12() {
  QuerySuiteOptions options;
  options.join_partitions = MemoCluster::kParts;
  return {{"q1", BuildTpchQ1()}, {"q12", BuildTpchQ12(options)}};
}

TEST(ColumnMemoEngineTest, RepeatedQueriesDecodeEachTableChunkOnce) {
  MemoCluster warm;
  for (const auto& [name, plan] : Q1AndQ12()) warm.Run(plan, name + "-1");
  const int64_t decodes = warm.memo().misses();
  const int64_t hits = warm.memo().hits();
  EXPECT_GT(decodes, 0);
  for (const auto& [name, plan] : Q1AndQ12()) warm.Run(plan, name + "-2");
  EXPECT_EQ(warm.memo().misses(), decodes);
  EXPECT_GT(warm.memo().hits(), hits + decodes);
  // Results from memo columns equal a fresh engine's, byte for byte.
  MemoCluster fresh;
  for (const auto& [name, plan] : Q1AndQ12()) {
    fresh.Run(plan, name + "-1");
    EXPECT_EQ(warm.ResultBytes(name + "-2"), fresh.ResultBytes(name + "-1"))
        << name;
  }
}

TEST(ColumnMemoEngineTest, TableReinsertedUnderTheSameKeysIsDecodedAfresh) {
  // Doubling every l_extendedprice changes no column chunk's offset or
  // size: a memo keyed on object names and ranges would serve the old
  // prices.
  MemoCluster cluster;
  cluster.Run(BuildTpchQ6(), "q6-old");
  const auto chunks = cluster.LineitemChunks();
  const int64_t decodes = cluster.memo().misses();
  cluster.UploadLineitem(/*price_factor=*/2);
  ASSERT_EQ(cluster.LineitemChunks(), chunks);
  cluster.Run(BuildTpchQ6(), "q6-new");
  EXPECT_GT(cluster.memo().misses(), decodes);
  auto old_result = cluster.engine().FetchResult("q6-old");
  auto new_result = cluster.engine().FetchResult("q6-new");
  ASSERT_TRUE(old_result.ok() && new_result.ok());
  const double old_revenue = old_result->column("revenue").doubles()[0];
  EXPECT_GT(old_revenue, 0);
  EXPECT_DOUBLE_EQ(new_result->column("revenue").doubles()[0],
                   2 * old_revenue);
}

TEST(ColumnMemoEngineTest, DeletedTablesAreReleasedByTheNextSweep) {
  MemoCluster cluster;
  cluster.Run(BuildTpchQ1(), "q1");
  cluster.memo().Sweep();
  EXPECT_GT(cluster.memo().size(), 0u);
  for (const auto& part : cluster.lineitem().partitions) {
    ASSERT_TRUE(cluster.store().Delete(part.key).ok());
  }
  cluster.memo().Sweep();
  EXPECT_EQ(cluster.memo().size(), 0u);
}

}  // namespace
}  // namespace skyrise::engine
