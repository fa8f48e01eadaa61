#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/memory_tracker.h"
#include "engine/queries.h"
#include "format/cof.h"
#include "sim/fault_injector.h"
#include "storage/object_store.h"

/// Streaming-equivalence suite: morsel-driven execution must be a pure
/// performance/memory transformation. For every operator family and for full
/// engine runs (fault-free and under chaos), results are bit-identical across
/// batch sizes {1, 7, 1024, whole-fragment}, CPU cost accounting is exact,
/// and the tracked peak memory under small batches is strictly lower than
/// under whole-fragment materialization.

namespace skyrise::engine {
namespace {

using data::Chunk;
using data::DataType;
using data::Schema;

constexpr int64_t kBatchSizes[] = {1, 7, 1024};
constexpr int64_t kWholeFragment = -1;

/// 200 deterministic rows with repeating keys, varied doubles, and a
/// low-cardinality string column — enough rows that every batch size in the
/// matrix actually splits the input differently.
Chunk SalesChunk() {
  Schema schema({{"key", DataType::kInt64},
                 {"amount", DataType::kDouble},
                 {"region", DataType::kString}});
  Chunk chunk = Chunk::Empty(schema);
  const char* regions[] = {"eu", "us", "ap", "sa"};
  for (int i = 0; i < 200; ++i) {
    chunk.column(0).AppendInt(i % 17);
    chunk.column(1).AppendDouble(static_cast<double>((i * 37) % 101) + 0.25);
    chunk.column(2).AppendString(regions[i % 4]);
  }
  return chunk;
}

Chunk ClicksChunk() {
  Schema schema({{"wcs_click_date", DataType::kDate},
                 {"wcs_user_sk", DataType::kInt64},
                 {"wcs_item_sk", DataType::kInt64},
                 {"wcs_sales_sk", DataType::kInt64},
                 {"i_category_id", DataType::kInt64}});
  Chunk chunk = Chunk::Empty(schema);
  for (int i = 0; i < 180; ++i) {
    chunk.column(0).AppendInt(i % 30);
    chunk.column(1).AppendInt(i % 11);
    chunk.column(2).AppendInt(i % 23);
    chunk.column(3).AppendInt(i % 5 == 0 ? i : 0);
    chunk.column(4).AppendInt(i % 3);
  }
  return chunk;
}

PipelineSpec PipelineWith(std::vector<OperatorSpec> ops) {
  PipelineSpec p;
  p.id = 1;
  p.ops = std::move(ops);
  return p;
}

struct RunOutcome {
  std::vector<FragmentOutput> outputs;
  double cost_ns = 0;
  int64_t batches = 0;
  int64_t peak_memory = 0;
};

RunOutcome RunPipeline(const PipelineSpec& pipeline, const Chunk& input,
               const std::vector<Chunk>& builds, int64_t morsel_rows) {
  CostAccumulator cost;
  MemoryTracker memory;
  std::vector<Chunk> copies;
  for (const Chunk& build : builds) {
    copies.push_back(build.Slice(0, build.rows()));
  }
  FragmentPipeline executor(pipeline, std::move(copies), &cost, &memory,
                            morsel_rows);
  SKYRISE_CHECK_OK(executor.Push(input.Slice(0, input.rows())));
  auto outputs = executor.Finish();
  SKYRISE_CHECK_OK(outputs.status());
  return RunOutcome{std::move(outputs).ValueUnsafe(), cost.ns(),
                    executor.batches(), memory.peak()};
}

/// Serializes every output through the COF writer: equality here is
/// bit-identity of the bytes a worker would upload.
std::string Fingerprint(const std::vector<FragmentOutput>& outputs) {
  std::string fp;
  for (const auto& o : outputs) {
    fp += std::to_string(o.partition) + ":";
    if (o.chunk.is_synthetic()) {
      fp += "synthetic/" + std::to_string(o.chunk.rows()) + "/" +
            std::to_string(o.chunk.ByteSize());
    } else {
      fp += format::WriteCofFile(o.chunk.schema(), {o.chunk});
    }
    fp += ";";
  }
  return fp;
}

void ExpectEquivalentAcrossBatchSizes(const PipelineSpec& pipeline,
                                      const Chunk& input,
                                      const std::vector<Chunk>& builds,
                                      const std::string& label) {
  const RunOutcome reference = RunPipeline(pipeline, input, builds, kWholeFragment);
  const std::string want = Fingerprint(reference.outputs);
  for (int64_t batch : kBatchSizes) {
    const RunOutcome streamed = RunPipeline(pipeline, input, builds, batch);
    EXPECT_EQ(Fingerprint(streamed.outputs), want)
        << label << " diverges at morsel_rows=" << batch;
    EXPECT_DOUBLE_EQ(streamed.cost_ns, reference.cost_ns)
        << label << " CPU cost diverges at morsel_rows=" << batch;
    if (batch < input.rows()) {
      EXPECT_GT(streamed.batches, 1) << label << " did not actually batch";
    }
  }
}

TEST(StreamingEquivalence, Filter) {
  OperatorSpec filter;
  filter.op = "filter";
  filter.predicate = Cmp(">", Col("amount"), Num(40));
  ExpectEquivalentAcrossBatchSizes(PipelineWith({filter}), SalesChunk(), {},
                                   "filter");
}

TEST(StreamingEquivalence, Project) {
  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back("region", Col("region"));
  project.projections.emplace_back("scaled",
                                   Arith("*", Col("amount"), Num(3)));
  ExpectEquivalentAcrossBatchSizes(PipelineWith({project}), SalesChunk(), {},
                                   "project");
}

TEST(StreamingEquivalence, HashAggregate) {
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"region", "key"};
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  agg.aggregates.push_back({"count", nullptr, "n"});
  agg.aggregates.push_back({"min", Col("amount"), "lo"});
  agg.aggregates.push_back({"max", Col("amount"), "hi"});
  ExpectEquivalentAcrossBatchSizes(PipelineWith({agg}), SalesChunk(), {},
                                   "hash_agg");
}

TEST(StreamingEquivalence, HashJoin) {
  Schema dim_schema({{"id", DataType::kInt64}, {"name", DataType::kString}});
  Chunk dim = Chunk::Empty(dim_schema);
  for (int i = 0; i < 17; i += 2) {  // Only even keys match.
    dim.column(0).AppendInt(i);
    dim.column(1).AppendString("dim" + std::to_string(i));
  }
  OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"key"};
  join.build_keys = {"id"};
  join.build_columns = {"name"};
  std::vector<Chunk> builds;
  builds.push_back(std::move(dim));
  ExpectEquivalentAcrossBatchSizes(PipelineWith({join}), SalesChunk(), builds,
                                   "hash_join");
}

TEST(StreamingEquivalence, SortAndLimit) {
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"region", "amount"};
  sort.sort_ascending = {true, false};
  OperatorSpec limit;
  limit.op = "limit";
  limit.limit = 13;
  ExpectEquivalentAcrossBatchSizes(PipelineWith({sort, limit}), SalesChunk(),
                                   {}, "sort+limit");
}

TEST(StreamingEquivalence, PartitionWrite) {
  OperatorSpec write;
  write.op = "partition_write";
  write.partition_keys = {"key"};
  write.partition_count = 5;
  ExpectEquivalentAcrossBatchSizes(PipelineWith({write}), SalesChunk(), {},
                                   "partition_write");
}

TEST(StreamingEquivalence, SessionizeUdf) {
  OperatorSpec udf;
  udf.op = "bb_sessionize";
  udf.session_window_days = 10;
  udf.target_category = 1;
  ExpectEquivalentAcrossBatchSizes(PipelineWith({udf}), ClicksChunk(), {},
                                   "bb_sessionize");
}

TEST(StreamingEquivalence, MultiOperatorChain) {
  OperatorSpec filter;
  filter.op = "filter";
  filter.predicate = Cmp("<", Col("amount"), Num(90));
  OperatorSpec project;
  project.op = "project";
  project.projections.emplace_back("region", Col("region"));
  project.projections.emplace_back("v", Arith("+", Col("amount"), Num(1)));
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"region"};
  agg.aggregates.push_back({"sum", Col("v"), "sv"});
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"sv"};
  sort.sort_ascending = {false};
  ExpectEquivalentAcrossBatchSizes(
      PipelineWith({filter, project, agg, sort}), SalesChunk(), {},
      "filter|project|agg|sort");
}

TEST(StreamingEquivalence, NaturalMorselsMatchWholeFragment) {
  // morsel_rows == 0: chunks pass through at push granularity. Three uneven
  // pushes (as if three decoded row groups) must equal one whole-fragment
  // batch.
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"key"};
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  const PipelineSpec pipeline = PipelineWith({agg});
  const Chunk input = SalesChunk();

  const RunOutcome reference = RunPipeline(pipeline, input, {}, kWholeFragment);
  CostAccumulator cost;
  FragmentPipeline executor(pipeline, {}, &cost, nullptr, /*morsel_rows=*/0);
  ASSERT_TRUE(executor.Push(input.Slice(0, 50)).ok());
  ASSERT_TRUE(executor.Push(input.Slice(50, 120)).ok());
  ASSERT_TRUE(executor.Push(input.Slice(170, 30)).ok());
  auto outputs = executor.Finish();
  ASSERT_TRUE(outputs.ok());
  EXPECT_EQ(Fingerprint(*outputs), Fingerprint(reference.outputs));
  EXPECT_DOUBLE_EQ(cost.ns(), reference.cost_ns);
  EXPECT_EQ(executor.batches(), 3);
}

TEST(StreamingEquivalence, SyntheticInputMatchesAcrossBatchSizes) {
  // Synthetic cardinality hints are nonlinear, so the pipeline falls back to
  // one whole-input execution; rows, schema, and cost must still match the
  // reference exactly.
  OperatorSpec filter;
  filter.op = "filter";
  filter.selectivity = 0.33;
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"region"};
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  agg.groups_hint = 4;
  const PipelineSpec pipeline = PipelineWith({filter, agg});
  const Chunk input = Chunk::Synthetic(SalesChunk().schema(), 100000);

  const RunOutcome reference = RunPipeline(pipeline, input, {}, kWholeFragment);
  for (int64_t batch : kBatchSizes) {
    const RunOutcome streamed = RunPipeline(pipeline, input, {}, batch);
    EXPECT_EQ(Fingerprint(streamed.outputs), Fingerprint(reference.outputs));
    EXPECT_DOUBLE_EQ(streamed.cost_ns, reference.cost_ns);
  }
}

TEST(StreamingEquivalence, StreamingPeakMemoryStrictlyLower) {
  // The acceptance pin at operator level: a memory-heavy fragment (wide real
  // input into a small aggregate) peaks strictly lower under small morsels
  // than under whole-fragment materialization, while producing identical
  // bytes.
  Schema schema({{"key", DataType::kInt64},
                 {"amount", DataType::kDouble},
                 {"payload", DataType::kString}});
  Chunk input = Chunk::Empty(schema);
  for (int i = 0; i < 50000; ++i) {
    input.column(0).AppendInt(i % 31);
    input.column(1).AppendDouble(static_cast<double>(i % 997));
    input.column(2).AppendString("payload-" + std::to_string(i % 100));
  }
  OperatorSpec filter;
  filter.op = "filter";
  filter.predicate = Cmp(">", Col("amount"), Num(100));
  OperatorSpec agg;
  agg.op = "hash_agg";
  agg.group_by = {"key"};
  agg.aggregates.push_back({"sum", Col("amount"), "total"});
  const PipelineSpec pipeline = PipelineWith({filter, agg});

  const RunOutcome whole = RunPipeline(pipeline, input, {}, kWholeFragment);
  const RunOutcome streamed = RunPipeline(pipeline, input, {}, /*morsel_rows=*/256);
  EXPECT_EQ(Fingerprint(streamed.outputs), Fingerprint(whole.outputs));
  EXPECT_GT(whole.peak_memory, 0);
  EXPECT_LT(streamed.peak_memory, whole.peak_memory);
  // The gap is structural, not marginal: whole-fragment holds the entire
  // input resident, streaming holds one morsel plus aggregate state.
  EXPECT_LT(streamed.peak_memory, whole.peak_memory / 4);
}

/// One full engine deployment on the simulated platform (same scaffold as
/// the chaos suite), parameterized by morsel size and fault profile.
struct Stack {
  static constexpr int kPartitions = 6;
  static constexpr uint64_t kSeed = 2024;

  Stack(int64_t morsel_rows, const sim::FaultInjector::Profile& profile)
      : env(kSeed),
        fabric_driver(&env, &fabric),
        store(&env, storage::ObjectStore::StandardOptions()),
        queue(&env),
        injector(&env, profile) {
    datagen::TpchConfig tpch;
    tpch.scale_factor = 0.002;
    lineitem = *datagen::UploadDataset(
        &store, "lineitem", datagen::LineitemSchema(), kPartitions, [&](int p) {
          return datagen::GenerateLineitemPartition(tpch, p, kPartitions);
        });
    orders = *datagen::UploadDataset(
        &store, "orders", datagen::OrdersSchema(), kPartitions, [&](int p) {
          return datagen::GenerateOrdersPartition(tpch, p, kPartitions);
        });

    EngineContext context;
    context.env = &env;
    context.table_store = &store;
    context.shuffle_store = &store;
    context.catalog = &catalog;
    context.queue = &queue;
    context.meter = &meter;
    context.partitions_per_worker = 2;
    context.morsel_rows = morsel_rows;
    context.worker_max_attempts = 8;
    engine = std::make_unique<QueryEngine>(std::move(context));
    SKYRISE_CHECK_OK(engine->Deploy(&registry));

    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;
    lambda = std::make_unique<faas::LambdaPlatform>(&env, &fabric_driver,
                                                    &registry, lambda_options);
    store.set_fault_injector(&injector);
    lambda->set_fault_injector(&injector);
  }

  QueryResponse Run(const QueryPlan& plan, const std::string& id) {
    Result<QueryResponse> outcome = Status::Internal("did not complete");
    engine->Run(lambda.get(), plan, id,
                [&](Result<QueryResponse> r) { outcome = std::move(r); });
    env.RunUntil(env.now() + Minutes(60));
    SKYRISE_CHECK_OK(outcome.status());
    return std::move(outcome).ValueUnsafe();
  }

  std::string ResultBytes(const std::string& id) {
    auto blob = store.Peek(ResultKey(id));
    SKYRISE_CHECK_OK(blob.status());
    SKYRISE_CHECK(!blob->is_synthetic());
    return blob->data();
  }

  sim::SimEnvironment env;
  net::Fabric fabric;
  net::FabricDriver fabric_driver;
  storage::ObjectStore store;
  storage::QueueService queue;
  format::SyntheticFileCatalog catalog;
  pricing::CostMeter meter;
  faas::FunctionRegistry registry;
  sim::FaultInjector injector;
  datagen::DatasetInfo lineitem, orders;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<faas::LambdaPlatform> lambda;
};

sim::FaultInjector::Profile ChaosProfile() {
  sim::FaultInjector::Profile p;
  p.storage_read_error_probability = 0.03;
  p.storage_write_error_probability = 0.03;
  p.network_blip_probability = 0.05;
  p.network_blip_max = Millis(100);
  p.function_crash_probability = 0.20;
  p.sandbox_kill_probability = 0.05;
  p.crash_delay_max = Millis(400);
  p.crash_exempt_functions = {kCoordinatorFunction};
  p.invoke_delay_probability = 0.1;
  p.invoke_delay_max = Millis(300);
  return p;
}

TEST(StreamingEquivalenceE2E, QueryResultsBitIdenticalAcrossMorselSizes) {
  QuerySuiteOptions options;
  options.join_partitions = 4;
  const QueryPlan q12 = BuildTpchQ12(options);
  const QueryPlan q6 = BuildTpchQ6();

  Stack reference(kWholeFragment, sim::FaultInjector::Disabled());
  reference.Run(q12, "q12");
  reference.Run(q6, "q6");
  const std::string q12_bytes = reference.ResultBytes("q12");
  const std::string q6_bytes = reference.ResultBytes("q6");

  for (int64_t morsel_rows : {int64_t{1}, int64_t{7}, int64_t{1024}}) {
    Stack streamed(morsel_rows, sim::FaultInjector::Disabled());
    streamed.Run(q12, "q12");
    streamed.Run(q6, "q6");
    EXPECT_EQ(streamed.ResultBytes("q12"), q12_bytes)
        << "q12 diverges at morsel_rows=" << morsel_rows;
    EXPECT_EQ(streamed.ResultBytes("q6"), q6_bytes)
        << "q6 diverges at morsel_rows=" << morsel_rows;
  }
}

TEST(StreamingEquivalenceE2E, ChaosRunsBitIdenticalAcrossMorselSizes) {
  // Retries and speculation re-execute fragments mid-stream; the in-order
  // morsel cursors keep result bytes independent of which attempts straggled
  // — across batch sizes AND against the fault-free reference.
  QuerySuiteOptions options;
  options.join_partitions = 4;
  const QueryPlan q12 = BuildTpchQ12(options);

  Stack calm(kWholeFragment, sim::FaultInjector::Disabled());
  calm.Run(q12, "q12");
  const std::string want = calm.ResultBytes("q12");

  int total_retries = 0;
  for (int64_t morsel_rows : {int64_t{7}, kWholeFragment}) {
    Stack chaos(morsel_rows, ChaosProfile());
    auto response = chaos.Run(q12, "q12");
    EXPECT_GT(chaos.injector.stats().function_crashes, 0);
    total_retries += response.worker_retries;
    EXPECT_EQ(chaos.ResultBytes("q12"), want)
        << "chaos q12 diverges at morsel_rows=" << morsel_rows;
  }
  EXPECT_GT(total_retries, 0);
}

TEST(StreamingEquivalenceE2E, StreamingLowersReportedPeakMemory) {
  // The end-to-end acceptance pin: the scan-heavy aggregation peaks strictly
  // lower under morsel streaming than under whole-fragment materialization,
  // the response carries the peak, and the break-even memory recommendation
  // follows it downward.
  const QueryPlan q6 = BuildTpchQ6();

  Stack whole(kWholeFragment, sim::FaultInjector::Disabled());
  auto whole_response = whole.Run(q6, "q6");
  Stack streamed(256, sim::FaultInjector::Disabled());
  auto streamed_response = streamed.Run(q6, "q6");

  EXPECT_EQ(streamed.ResultBytes("q6"), whole.ResultBytes("q6"));
  EXPECT_GT(whole_response.peak_worker_memory_bytes, 0);
  EXPECT_LT(streamed_response.peak_worker_memory_bytes,
            whole_response.peak_worker_memory_bytes);
  // More, smaller batches flowed through the operator chains.
  EXPECT_GT(streamed_response.total_batches, whole_response.total_batches);
  // The memory-config recommendation tracks the observed peak.
  EXPECT_GE(streamed_response.recommended_memory_mib, 128);
  EXPECT_LE(streamed_response.recommended_memory_mib,
            whole_response.recommended_memory_mib);
  // Both runs report it through the per-stage summaries too.
  int64_t stage_peak = 0;
  for (const auto& stage : streamed_response.raw.Get("stages").AsArray()) {
    stage_peak = std::max(stage_peak, stage.GetInt("peak_memory_bytes"));
  }
  EXPECT_EQ(stage_peak, streamed_response.peak_worker_memory_bytes);
}

}  // namespace
}  // namespace skyrise::engine
