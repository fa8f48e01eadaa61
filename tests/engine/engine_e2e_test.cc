#include "engine/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "datagen/tpcxbb.h"
#include "engine/queries.h"
#include "engine/reference.h"
#include "format/cof.h"
#include "storage/object_store.h"

namespace skyrise::engine {
namespace {

/// End-to-end: generated TPC data uploaded to simulated S3, queries executed
/// by the distributed engine on the simulated FaaS platform (and the EC2
/// shim), results compared against independent reference implementations.
class EngineE2ETest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 6;

  EngineE2ETest()
      : fabric_driver_(&env_, &fabric_),
        store_(&env_, storage::ObjectStore::StandardOptions()),
        queue_(&env_) {
    tpch_.scale_factor = 0.002;  // 3,000 orders, ~12K lineitems.
    bb_.scale_factor = 0.01;

    lineitem_ = *datagen::UploadDataset(
        &store_, "lineitem", datagen::LineitemSchema(), kPartitions,
        [&](int p) {
          return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
        });
    orders_ = *datagen::UploadDataset(
        &store_, "orders", datagen::OrdersSchema(), kPartitions, [&](int p) {
          return datagen::GenerateOrdersPartition(tpch_, p, kPartitions);
        });
    clicks_ = *datagen::UploadDataset(
        &store_, "clickstreams", datagen::ClickstreamsSchema(), kPartitions,
        [&](int p) {
          return datagen::GenerateClickstreamsPartition(bb_, p, kPartitions);
        });
    item_ = *datagen::UploadDataset(
        &store_, "item", datagen::ItemSchema(), 1,
        [&](int) { return datagen::GenerateItemTable(bb_); });

    EngineContext context;
    context.env = &env_;
    context.table_store = &store_;
    context.shuffle_store = &store_;
    context.catalog = &catalog_;
    context.queue = &queue_;
    context.meter = &meter_;
    context.partitions_per_worker = 2;
    engine_ = std::make_unique<QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine_->Deploy(&registry_));

    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;
    lambda_ = std::make_unique<faas::LambdaPlatform>(
        &env_, &fabric_driver_, &registry_, lambda_options);
  }

  QueryResponse RunOnLambda(const QueryPlan& plan, const std::string& id) {
    Result<QueryResponse> outcome = Status::Internal("did not complete");
    engine_->Run(lambda_.get(), plan, id,
                 [&](Result<QueryResponse> r) { outcome = std::move(r); });
    env_.RunUntil(env_.now() + Minutes(30));
    SKYRISE_CHECK_OK(outcome.status());
    return std::move(outcome).ValueUnsafe();
  }

  /// Concatenates all partitions of a table for the reference runs.
  data::Chunk WholeTable(const datagen::DatasetInfo& info,
                         const std::function<data::Chunk(int)>& gen,
                         int partitions) {
    data::Chunk all = gen(0);
    for (int p = 1; p < partitions; ++p) all.Append(gen(p));
    (void)info;
    return all;
  }

  sim::SimEnvironment env_{2024};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  storage::ObjectStore store_;
  storage::QueueService queue_;
  format::SyntheticFileCatalog catalog_;
  pricing::CostMeter meter_;
  faas::FunctionRegistry registry_;
  datagen::TpchConfig tpch_;
  datagen::TpcxBbConfig bb_;
  datagen::DatasetInfo lineitem_, orders_, clicks_, item_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<faas::LambdaPlatform> lambda_;
};

TEST_F(EngineE2ETest, Q6MatchesReference) {
  auto response = RunOnLambda(BuildTpchQ6(), "q6");
  EXPECT_GT(response.runtime_ms, 0);
  EXPECT_GE(response.total_workers, kPartitions / 2 + 1);

  auto result = engine_->FetchResult("q6");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows(), 1);
  const double revenue = result->column("revenue").doubles()[0];

  auto whole = WholeTable(lineitem_, [&](int p) {
    return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
  }, kPartitions);
  const auto reference = ReferenceQ6(whole);
  EXPECT_GT(reference.revenue, 0);
  EXPECT_NEAR(revenue, reference.revenue, 1e-6 * reference.revenue);
}

TEST_F(EngineE2ETest, Q1MatchesReference) {
  auto response = RunOnLambda(BuildTpchQ1(), "q1");
  auto result = engine_->FetchResult("q1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto whole = WholeTable(lineitem_, [&](int p) {
    return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
  }, kPartitions);
  const auto reference = ReferenceQ1(whole);
  ASSERT_EQ(result->rows(), static_cast<int64_t>(reference.size()));
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(result->column("l_returnflag").strings()[g],
              reference[g].returnflag);
    EXPECT_EQ(result->column("l_linestatus").strings()[g],
              reference[g].linestatus);
    EXPECT_NEAR(result->column("sum_qty").doubles()[g], reference[g].sum_qty,
                1e-6 * reference[g].sum_qty);
    EXPECT_NEAR(result->column("sum_disc_price").doubles()[g],
                reference[g].sum_disc_price,
                1e-6 * reference[g].sum_disc_price);
    EXPECT_NEAR(result->column("sum_charge").doubles()[g],
                reference[g].sum_charge, 1e-6 * reference[g].sum_charge);
    EXPECT_NEAR(result->column("avg_qty").doubles()[g], reference[g].avg_qty,
                1e-6 * reference[g].avg_qty);
    EXPECT_NEAR(result->column("avg_disc").doubles()[g],
                reference[g].avg_disc, 1e-6);
    EXPECT_NEAR(result->column("count_order").doubles()[g],
                static_cast<double>(reference[g].count_order), 0.1);
  }
}

TEST_F(EngineE2ETest, Q12MatchesReference) {
  QuerySuiteOptions options;
  options.join_partitions = 4;
  auto response = RunOnLambda(BuildTpchQ12(options), "q12");
  // Four stages: lineitem scan, orders scan, join, final.
  EXPECT_EQ(response.raw.Get("stages").size(), 4u);

  auto result = engine_->FetchResult("q12");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto lineitem = WholeTable(lineitem_, [&](int p) {
    return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
  }, kPartitions);
  auto orders = WholeTable(orders_, [&](int p) {
    return datagen::GenerateOrdersPartition(tpch_, p, kPartitions);
  }, kPartitions);
  const auto reference = ReferenceQ12(lineitem, orders);
  ASSERT_EQ(result->rows(), static_cast<int64_t>(reference.size()));
  for (size_t g = 0; g < reference.size(); ++g) {
    EXPECT_EQ(result->column("l_shipmode").strings()[g],
              reference[g].shipmode);
    EXPECT_NEAR(result->column("high_line_count").doubles()[g],
                static_cast<double>(reference[g].high_line_count), 0.1);
    EXPECT_NEAR(result->column("low_line_count").doubles()[g],
                static_cast<double>(reference[g].low_line_count), 0.1);
  }
}

TEST_F(EngineE2ETest, BbQ3MatchesReference) {
  QuerySuiteOptions options;
  options.join_partitions = 4;
  auto response = RunOnLambda(BuildTpcxBbQ3(options), "bbq3");
  (void)response;
  auto result = engine_->FetchResult("bbq3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  auto clicks = WholeTable(clicks_, [&](int p) {
    return datagen::GenerateClickstreamsPartition(bb_, p, kPartitions);
  }, kPartitions);
  auto item = datagen::GenerateItemTable(bb_);
  const auto reference = ReferenceBbQ3(clicks, item, options);
  ASSERT_GT(reference.size(), 0u);
  ASSERT_EQ(result->rows(), static_cast<int64_t>(reference.size()));
  for (size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(result->column("item_sk").ints()[i], reference[i].item_sk);
    EXPECT_NEAR(result->column("views").doubles()[i],
                static_cast<double>(reference[i].views), 0.1);
  }
}

TEST_F(EngineE2ETest, FaasAndIaasProduceIdenticalResults) {
  auto faas_response = RunOnLambda(BuildTpchQ6(), "q6-faas");
  auto faas_result = engine_->FetchResult("q6-faas");
  ASSERT_TRUE(faas_result.ok());

  faas::Ec2Fleet::Options fleet_options;
  fleet_options.instance_count = 8;
  fleet_options.slots_per_instance = 1;
  faas::Ec2Fleet fleet(&env_, &fabric_driver_, &registry_, fleet_options);
  fleet.Start(nullptr);
  Result<QueryResponse> outcome = Status::Internal("did not complete");
  engine_->Run(&fleet, BuildTpchQ6(), "q6-iaas",
               [&](Result<QueryResponse> r) { outcome = std::move(r); });
  env_.RunUntil(env_.now() + Minutes(30));
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto iaas_result = engine_->FetchResult("q6-iaas");
  ASSERT_TRUE(iaas_result.ok());
  EXPECT_DOUBLE_EQ(faas_result->column("revenue").doubles()[0],
                   iaas_result->column("revenue").doubles()[0]);
  // Pre-provisioned IaaS has no coldstarts; FaaS does.
  EXPECT_GT(faas_response.runtime_ms, 0);
  EXPECT_GT(lambda_->stats().cold_starts, 0);
}

TEST_F(EngineE2ETest, WorkerStatsReported) {
  auto response = RunOnLambda(BuildTpchQ6(), "q6-stats");
  EXPECT_GT(response.cumulated_worker_ms, 0);
  EXPECT_GT(response.requests, 0);
  EXPECT_GT(response.peak_workers, 0);
  // The experiment meter saw the storage traffic.
  EXPECT_GT(meter_.RequestCount("s3"), 0);
  EXPECT_GT(meter_.StorageUsd(), 0);
}

TEST_F(EngineE2ETest, SyntheticModeRunsSameQueryAtScale) {
  // Upload a synthetic lineitem with SF1000-like geometry (scaled down to 40
  // partitions) and run the identical Q6 plan over it.
  const double max_shipdate =
      static_cast<double>(data::DaysSinceEpoch(1998, 12, 1));
  auto info = datagen::UploadSyntheticDataset(
      &store_, &catalog_, "lineitem_synth", datagen::LineitemSchema(), 40,
      6000000, 182 * kMiB, {{"l_shipdate", 0, max_shipdate}});
  ASSERT_TRUE(info.ok());
  QueryPlan plan = BuildTpchQ6();
  for (auto& pipeline : plan.pipelines) {
    for (auto& input : pipeline.inputs) {
      if (input.table == "lineitem") input.table = "lineitem_synth";
    }
  }
  auto response = RunOnLambda(plan, "q6-synth");
  EXPECT_GT(response.runtime_ms, 0);
  auto result = engine_->FetchResult("q6-synth");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->is_synthetic());
  // Shipdate pruning must have cut the read volume well below 40 x 182 MiB.
  const int64_t bytes_read = response.raw.Get("stages")
                                 .AsArray()[0]
                                 .GetInt("bytes_read");
  EXPECT_LT(bytes_read, 40LL * 182 * kMiB / 2);
  EXPECT_GT(bytes_read, 0);
}

/// Column-for-column equality of two result chunks.
void ExpectSameChunk(const data::Chunk& a, const data::Chunk& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.rows(), b.rows());
  for (size_t c = 0; c < a.num_columns(); ++c) {
    EXPECT_EQ(a.column(c).ints(), b.column(c).ints()) << c;
    EXPECT_EQ(a.column(c).doubles(), b.column(c).doubles()) << c;
    EXPECT_EQ(a.column(c).strings(), b.column(c).strings()) << c;
  }
}

TEST_F(EngineE2ETest, SplitColumnReadsDecodeLikeWholeOnes) {
  // At 1 KiB every column range of these tables arrives in pieces and is
  // assembled; at the default each arrives whole and is decoded through
  // the column memo. Results, bytes moved and morsels agree; only the
  // request count grows. Q1 streams lineitem; BbQ3 reads an item table,
  // made large enough to split, as a build input.
  datagen::TpcxBbConfig wide = bb_;
  wide.scale_factor = 1.0;
  ASSERT_TRUE(datagen::UploadDataset(&store_, "item_wide",
                                     datagen::ItemSchema(), 1, [&](int) {
                                       return datagen::GenerateItemTable(wide);
                                     })
                  .ok());
  QuerySuiteOptions options;
  options.join_partitions = 4;
  QueryPlan bbq3 = BuildTpcxBbQ3(options);
  for (auto& pipeline : bbq3.pipelines) {
    for (auto& input : pipeline.inputs) {
      if (input.table == "item") input.table = "item_wide";
    }
  }
  const std::vector<std::pair<std::string, QueryPlan>> plans = {
      {"q1", BuildTpchQ1()}, {"bbq3", bbq3}};
  for (const auto& [name, plan] : plans) {
    engine_->context()->range_chunk_bytes = 8 * kMiB;
    const QueryResponse whole = RunOnLambda(plan, name + "-whole");
    engine_->context()->range_chunk_bytes = kKiB;
    const ColumnChunkMemo& memo = engine_->context()->table_columns;
    const int64_t lookups = memo.hits() + memo.misses();
    const QueryResponse split = RunOnLambda(plan, name + "-split");
    EXPECT_EQ(memo.hits() + memo.misses(), lookups) << name;
    auto whole_result = engine_->FetchResult(name + "-whole");
    auto split_result = engine_->FetchResult(name + "-split");
    ASSERT_TRUE(whole_result.ok() && split_result.ok()) << name;
    ExpectSameChunk(*whole_result, *split_result);
    const JsonArray& whole_stages = whole.raw.Get("stages").AsArray();
    const JsonArray& split_stages = split.raw.Get("stages").AsArray();
    ASSERT_EQ(whole_stages.size(), split_stages.size());
    for (size_t s = 0; s < whole_stages.size(); ++s) {
      for (const char* key : {"bytes_read", "bytes_written", "batches"}) {
        EXPECT_EQ(whole_stages[s].GetInt(key), split_stages[s].GetInt(key))
            << name << " stage " << s << " " << key;
      }
    }
    // The stages that read tables issued more, smaller requests: Q1's scan,
    // and BbQ3's scan and its item build input.
    for (size_t s = 0; s < (name == "q1" ? 1u : 2u); ++s) {
      EXPECT_GT(split_stages[s].GetInt("requests"),
                whole_stages[s].GetInt("requests"))
          << name << " stage " << s;
    }
  }
}

/// Uploads `dim` (keys 1..1,000 in row groups of 100, d_val = key / 4) and
/// `fact` (2,000 rows whose keys spread over 1..1,100), one file each.
void UploadJoinTables(storage::StorageService* store) {
  const data::Schema dim_schema({{"d_key", data::DataType::kInt64},
                                 {"d_val", data::DataType::kDouble}});
  ASSERT_TRUE(datagen::UploadDataset(
                  store, "dim", dim_schema, 1,
                  [&](int) {
                    data::Chunk dim = data::Chunk::Empty(dim_schema);
                    for (int64_t key = 1; key <= 1000; ++key) {
                      dim.column(0).ints().push_back(key);
                      dim.column(1).doubles().push_back(
                          static_cast<double>(key) * 0.25);
                    }
                    return dim;
                  },
                  /*row_group_rows=*/100)
                  .ok());
  const data::Schema fact_schema({{"f_key", data::DataType::kInt64},
                                  {"f_amount", data::DataType::kDouble}});
  ASSERT_TRUE(datagen::UploadDataset(
                  store, "fact", fact_schema, 1,
                  [&](int) {
                    data::Chunk fact = data::Chunk::Empty(fact_schema);
                    for (int64_t i = 0; i < 2000; ++i) {
                      fact.column(0).ints().push_back(i * 37 % 1100 + 1);
                      fact.column(1).doubles().push_back(
                          static_cast<double>(i) * 1.5);
                    }
                    return fact;
                  })
                  .ok());
}

/// One stage: `fact` streams and probes a hash join whose build side is the
/// table input `dim` filtered by `pushdown`; the join's output is the
/// query result.
QueryPlan BuildSideJoin(ExprPtr pushdown) {
  PipelineSpec stage;
  stage.id = 1;
  InputSpec fact;
  fact.table = "fact";
  fact.columns = {"f_key", "f_amount"};
  InputSpec dim;
  dim.table = "dim";
  dim.columns = {"d_key", "d_val"};
  dim.pushdown = std::move(pushdown);
  stage.inputs = {fact, dim};
  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"f_key"};
  join.build_keys = {"d_key"};
  join.build_columns = {"d_val"};
  join.build_input = 1;
  OperatorSpec collect;
  collect.op = "collect";
  stage.ops = {join, collect};
  QueryPlan plan;
  plan.query_name = "build-side-join";
  plan.pipelines.push_back(std::move(stage));
  return plan;
}

TEST_F(EngineE2ETest, BuildSideTablePushdownPrunesAndFilters) {
  // Keys 250..719: row groups 1-200, 801-1000 are pruned on their min/max
  // statistics; 201-300 and 701-800 are read and filtered row by row.
  UploadJoinTables(&store_);
  const auto in_range = [](int64_t key) { return key >= 250 && key < 720; };
  const QueryResponse all =
      RunOnLambda(BuildSideJoin(nullptr), "build-unfiltered");
  const QueryResponse pushed = RunOnLambda(
      BuildSideJoin(And(Cmp(">=", Col("d_key"), Num(250)),
                        Cmp("<", Col("d_key"), Num(720)))),
      "build-pushdown");
  EXPECT_LT(pushed.raw.Get("stages").AsArray()[0].GetInt("bytes_read"),
            all.raw.Get("stages").AsArray()[0].GetInt("bytes_read"));

  auto result = engine_->FetchResult("build-pushdown");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  using Row = std::tuple<int64_t, double, double>;
  std::vector<Row> rows;
  for (int64_t r = 0; r < result->rows(); ++r) {
    const size_t i = static_cast<size_t>(r);
    rows.emplace_back(result->column("f_key").ints()[i],
                      result->column("f_amount").doubles()[i],
                      result->column("d_val").doubles()[i]);
  }
  // The same join over the filtered build rows.
  std::vector<Row> expected;
  for (int64_t i = 0; i < 2000; ++i) {
    const int64_t key = i * 37 % 1100 + 1;
    if (key <= 1000 && in_range(key)) {
      expected.emplace_back(key, static_cast<double>(i) * 1.5,
                            static_cast<double>(key) * 0.25);
    }
  }
  ASSERT_FALSE(expected.empty());
  std::sort(rows.begin(), rows.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(rows, expected);
}

TEST_F(EngineE2ETest, BuildSideTablePushdownPruningEverything) {
  // Every build row group is pruned: the join still sees the build's
  // projected schema, and no probe row matches.
  UploadJoinTables(&store_);
  RunOnLambda(BuildSideJoin(Cmp(">", Col("d_key"), Num(5000))),
              "build-pruned");
  auto result = engine_->FetchResult("build-pruned");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows(), 0);
  const data::Schema expected({{"f_key", data::DataType::kInt64},
                               {"f_amount", data::DataType::kDouble},
                               {"d_val", data::DataType::kDouble}});
  EXPECT_TRUE(result->schema() == expected);
}

TEST_F(EngineE2ETest, RegressionMistypedWorkerPayloadFailsTyped) {
  // A worker of a query without a live coordinator decodes its whole
  // payload; a missing or mistyped input list once aborted the process.
  const Json pipeline = BuildTpchQ6().pipelines[0].ToJson();
  Json no_files = Json::Array();
  no_files.Append(Json::Object());
  Json no_inputs_pipeline = Json::Parse(pipeline.Dump()).ValueOrDie();
  no_inputs_pipeline.AsObject().erase("inputs");
  const std::vector<std::pair<Json, Json>> cases = {
      {pipeline, Json()},              // no "inputs"
      {pipeline, Json("files")},       // "inputs" not an array
      {pipeline, no_files},            // an input without "files"
      {no_inputs_pipeline, Json::Array()}};  // a pipeline without inputs
  for (const auto& [spec, inputs] : cases) {
    Json payload = Json::Object();
    payload["query_id"] = "no-coordinator";
    payload["pipeline"] = spec;
    payload["fragment"] = 0;
    if (!inputs.is_null()) payload["inputs"] = inputs;
    Result<Json> outcome = Status::Internal("did not complete");
    lambda_->Invoke(kWorkerFunction, std::move(payload),
                    [&outcome](Result<Json> r) { outcome = std::move(r); });
    env_.RunUntil(env_.now() + Minutes(1));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
        << outcome.status().ToString();
  }
}

TEST_F(EngineE2ETest, RegressionMistypedInvokerPayloadFailsTyped) {
  // An invoker payload without a "payloads" list once aborted the process.
  Json not_a_list = Json::Object();
  not_a_list["payloads"] = 3;
  for (const Json& payload : {Json::Object(), not_a_list}) {
    Result<Json> outcome = Status::Internal("did not complete");
    lambda_->Invoke(kInvokerFunction, payload,
                    [&outcome](Result<Json> r) { outcome = std::move(r); });
    env_.RunUntil(env_.now() + Minutes(1));
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
        << outcome.status().ToString();
  }
}

TEST_F(EngineE2ETest, RegressionResultFooterPastObjectFailsTyped) {
  // A 146-byte result object whose footer claims 1,000 data bytes and a
  // column chunk at offset 900: fetching it once cut the chunk out of the
  // object past its end and aborted with std::out_of_range.
  format::FileMeta forged;
  forged.schema = data::Schema({{"id", data::DataType::kInt64}});
  forged.data_size = 1000;
  format::ColumnChunkMeta chunk;
  chunk.offset = 900;
  chunk.size = 2;
  forged.row_groups.push_back(format::RowGroupMeta{1, {chunk}});
  std::string object;
  format::AppendFooter(forged, &object);
  const uint32_t footer_size = static_cast<uint32_t>(object.size());
  ASSERT_LE(object.size() + format::kCofTrailerSize, 146u);
  object.insert(0, 146 - format::kCofTrailerSize - object.size(), '\0');
  for (int i = 0; i < 4; ++i) {
    object.push_back(static_cast<char>(footer_size >> (8 * i)));
  }
  object += "COF1";
  ASSERT_EQ(object.size(), 146u);
  ASSERT_TRUE(
      store_.Insert(ResultKey("forged"), storage::Blob::FromString(object)).ok());
  auto result = engine_->FetchResult("forged");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError)
      << result.status().ToString();
}

}  // namespace
}  // namespace skyrise::engine
