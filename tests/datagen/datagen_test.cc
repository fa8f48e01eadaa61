#include <gtest/gtest.h>

#include <set>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "storage/object_store.h"

namespace skyrise::datagen {
namespace {

TpchConfig SmallTpch() {
  TpchConfig config;
  config.scale_factor = 0.001;  // 1,500 orders.
  return config;
}

TEST(TpchGenTest, Deterministic) {
  auto a = GenerateLineitemPartition(SmallTpch(), 0, 4);
  auto b = GenerateLineitemPartition(SmallTpch(), 0, 4);
  ASSERT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.column(0).ints(), b.column(0).ints());
  EXPECT_EQ(a.column(4).doubles(), b.column(4).doubles());
  EXPECT_EQ(a.column(14).strings(), b.column(14).strings());
}

TEST(TpchGenTest, PartitioningIsExhaustiveAndDisjoint) {
  // The union of partitioned generation equals single-shot generation.
  auto whole = GenerateLineitemPartition(SmallTpch(), 0, 1);
  int64_t rows = 0;
  std::set<int64_t> orderkeys;
  for (int p = 0; p < 4; ++p) {
    auto part = GenerateLineitemPartition(SmallTpch(), p, 4);
    rows += part.rows();
    for (int64_t k : part.column(0).ints()) orderkeys.insert(k);
  }
  EXPECT_EQ(rows, whole.rows());
  EXPECT_EQ(static_cast<int64_t>(orderkeys.size()), 1500);
}

TEST(TpchGenTest, ValueDomains) {
  auto chunk = GenerateLineitemPartition(SmallTpch(), 0, 1);
  const auto& quantity = chunk.column(4).doubles();
  const auto& discount = chunk.column(6).doubles();
  const auto& returnflag = chunk.column(8).strings();
  const auto& shipdate = chunk.column(10).ints();
  const auto& shipmode = chunk.column(14).strings();
  const std::set<std::string> flags{"R", "A", "N"};
  const std::set<std::string> modes{"REG AIR", "AIR",  "RAIL", "SHIP",
                                    "TRUCK",   "MAIL", "FOB"};
  for (size_t i = 0; i < quantity.size(); ++i) {
    EXPECT_GE(quantity[i], 1);
    EXPECT_LE(quantity[i], 50);
    EXPECT_GE(discount[i], 0.0);
    EXPECT_LE(discount[i], 0.10);
    EXPECT_TRUE(flags.count(std::string(returnflag[i])) > 0);
    EXPECT_TRUE(modes.count(std::string(shipmode[i])) > 0);
    EXPECT_GE(shipdate[i], 0);
  }
}

TEST(TpchGenTest, Q6SelectivityNearSpec) {
  auto chunk = GenerateLineitemPartition(SmallTpch(), 0, 1);
  const auto& quantity = chunk.column(4).doubles();
  const auto& discount = chunk.column(6).doubles();
  const auto& shipdate = chunk.column(10).ints();
  const int32_t lo = data::DaysSinceEpoch(1994, 1, 1);
  const int32_t hi = data::DaysSinceEpoch(1995, 1, 1);
  int64_t matches = 0;
  for (size_t i = 0; i < quantity.size(); ++i) {
    if (shipdate[i] >= lo && shipdate[i] < hi && discount[i] >= 0.05 &&
        discount[i] <= 0.07 && quantity[i] < 24) {
      ++matches;
    }
  }
  const double selectivity =
      static_cast<double>(matches) / static_cast<double>(chunk.rows());
  // ~ (1/7 years) x (3/11 discounts) x (23/50 quantities) ~= 1.8%.
  EXPECT_GT(selectivity, 0.010);
  EXPECT_LT(selectivity, 0.028);
}

TEST(TpchGenTest, OrdersConsistentWithLineitem) {
  auto orders = GenerateOrdersPartition(SmallTpch(), 0, 1);
  auto lineitem = GenerateLineitemPartition(SmallTpch(), 0, 1);
  // Every lineitem order key exists in orders.
  std::set<int64_t> orderkeys(orders.column(0).ints().begin(),
                              orders.column(0).ints().end());
  EXPECT_EQ(orderkeys.size(), 1500u);
  for (int64_t k : lineitem.column(0).ints()) {
    EXPECT_TRUE(orderkeys.count(k) > 0);
  }
  // Order dates agree between the two generators.
  auto& li_orderkey = lineitem.column(0).ints();
  (void)li_orderkey;
}

TEST(TpcxBbGenTest, DeterministicAndPartitioned) {
  TpcxBbConfig config;
  config.scale_factor = 0.01;
  auto a = GenerateClickstreamsPartition(config, 1, 4);
  auto b = GenerateClickstreamsPartition(config, 1, 4);
  EXPECT_EQ(a.column(1).ints(), b.column(1).ints());
  // Partitions cover disjoint user ranges.
  auto p0 = GenerateClickstreamsPartition(config, 0, 4);
  std::set<int64_t> u0(p0.column(1).ints().begin(), p0.column(1).ints().end());
  for (int64_t u : a.column(1).ints()) EXPECT_EQ(u0.count(u), 0u);
}

TEST(TpcxBbGenTest, ItemsHaveValidCategories) {
  TpcxBbConfig config;
  config.scale_factor = 0.01;
  auto item = GenerateItemTable(config);
  EXPECT_EQ(item.rows(), TotalItems(config));
  for (int64_t c : item.column(1).ints()) {
    EXPECT_GE(c, 1);
    EXPECT_LE(c, config.num_categories);
  }
}

TEST(TpcxBbGenTest, ClickItemsReferenceItemTable) {
  TpcxBbConfig config;
  config.scale_factor = 0.01;
  const int64_t items = TotalItems(config);
  auto clicks = GenerateClickstreamsPartition(config, 0, 1);
  int64_t purchases = 0;
  for (size_t i = 0; i < static_cast<size_t>(clicks.rows()); ++i) {
    const int64_t item = clicks.column(2).ints()[i];
    EXPECT_GE(item, 1);
    EXPECT_LE(item, items);
    purchases += clicks.column(3).ints()[i] > 0 ? 1 : 0;
  }
  // ~8% of clicks are purchases.
  const double rate =
      static_cast<double>(purchases) / static_cast<double>(clicks.rows());
  EXPECT_NEAR(rate, 0.08, 0.02);
}

TEST(DatasetTest, UploadAndManifestRoundTrip) {
  sim::SimEnvironment env(3);
  storage::ObjectStore store(&env, storage::ObjectStore::StandardOptions());
  TpchConfig config = SmallTpch();
  auto info = UploadDataset(
      &store, "lineitem", LineitemSchema(), 4,
      [&](int p) { return GenerateLineitemPartition(config, p, 4); });
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->partitions.size(), 4u);
  EXPECT_GT(info->total_bytes, 0);
  EXPECT_TRUE(store.Contains("tables/lineitem/part-00002.cof"));
  EXPECT_TRUE(store.Contains(DatasetManifestKey("lineitem")));
  auto read_back = ReadManifest(store, "lineitem");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(read_back->total_rows, info->total_rows);
  EXPECT_EQ(read_back->partitions[1].key, info->partitions[1].key);
  EXPECT_TRUE(read_back->schema == LineitemSchema());
}

TEST(DatasetTest, SyntheticUploadRegistersCatalog) {
  sim::SimEnvironment env(3);
  storage::ObjectStore store(&env, storage::ObjectStore::StandardOptions());
  format::SyntheticFileCatalog catalog;
  auto info = UploadSyntheticDataset(
      &store, &catalog, "lineitem", LineitemSchema(), 10, 6000000,
      182 * kMiB, {{"l_shipdate", 0, 2526}});
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->partitions.size(), 10u);
  for (const auto& p : info->partitions) {
    EXPECT_TRUE(catalog.Contains(p.key));
    auto blob = store.Peek(p.key);
    ASSERT_TRUE(blob.ok());
    EXPECT_TRUE(blob->is_synthetic());
    EXPECT_NEAR(static_cast<double>(blob->size()), 182.0 * kMiB,
                0.02 * kMiB);
  }
  EXPECT_EQ(info->total_rows, 60000000);
}

TEST(DatasetTest, RegressionEmptyManifestIsIoError) {
  // A manifest without its schema or partition list once aborted.
  auto info = DatasetInfo::FromJson(Json::Object());
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kIoError);
  Json manifest = Json::Object();
  manifest["schema"] = Json::Array();
  manifest["partitions"] = 3;
  EXPECT_EQ(DatasetInfo::FromJson(manifest).status().code(),
            StatusCode::kIoError);
  manifest["partitions"] = Json::Array();
  EXPECT_TRUE(DatasetInfo::FromJson(manifest).ok());
}

TEST(DatasetTest, ManifestMemoParsesEachManifestOnce) {
  sim::SimEnvironment env(3);
  storage::ObjectStore store(&env, storage::ObjectStore::StandardOptions());
  TpchConfig config = SmallTpch();
  for (const char* name : {"lineitem", "lineitem_copy"}) {
    ASSERT_TRUE(UploadDataset(&store, name, LineitemSchema(), 2, [&](int p) {
                  return GenerateLineitemPartition(config, p, 2);
                }).ok());
  }
  ParseMemo<DatasetInfo, ParseManifest> memo;
  const std::string bytes =
      store.Peek(DatasetManifestKey("lineitem")).ValueOrDie().data();
  auto first = memo.Parse(bytes);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->partitions.size(), 2u);
  EXPECT_EQ((*first)->name, "lineitem");
  // Equal bytes, another buffer: the same parse.
  const std::string copy = bytes;
  auto again = memo.Parse(copy);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(first->get(), again->get());
  auto other = memo.Parse(
      store.Peek(DatasetManifestKey("lineitem_copy")).ValueOrDie().data());
  ASSERT_TRUE(other.ok());
  EXPECT_NE(other->get(), first->get());
  EXPECT_EQ((*other)->name, "lineitem_copy");
  // Failures are reported every time and not remembered.
  EXPECT_EQ(memo.Parse("{}").status().code(), StatusCode::kIoError);
  EXPECT_EQ(memo.Parse("{}").status().code(), StatusCode::kIoError);
  EXPECT_EQ(memo.Parse("{").status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace skyrise::datagen
