#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/queries.h"

#include "platform/report.h"
#include "platform/storage_io.h"
#include "platform/testbed.h"

namespace skyrise::platform {
namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter table({"a", "long header"});
  table.AddRow({"xxxxxxxx", "1"});
  table.AddRow({"y"});  // Short rows are padded.
  const std::string out = table.Render();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  // All lines equally wide.
  const size_t first_nl = out.find('\n');
  for (size_t pos = 0; pos < out.size();) {
    const size_t nl = out.find('\n', pos);
    EXPECT_EQ(nl - pos, first_nl);
    pos = nl + 1;
  }
}

TEST(AsciiSeriesTest, RendersPeaksAndHandlesEdgeCases) {
  const std::string chart = RenderAsciiSeries({0, 1, 2, 4, 2, 1, 0}, 4, 20);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_EQ(RenderAsciiSeries({}, 4, 10), "(empty series)\n");
  // Constant series renders without dividing by zero.
  EXPECT_NE(RenderAsciiSeries({5, 5, 5}, 3, 10).find('#'),
            std::string::npos);
}

TEST(ReportTest, WritesResultFile) {
  Json result = Json::Object();
  result["experiment"] = "fig05";
  result["value"] = 1.2;
  const std::string path = "/tmp/skyrise_result_test.json";
  ASSERT_TRUE(WriteResultFile(path, result).ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->GetString("experiment"), "fig05");
}

TEST(StorageIoTest, ClosedLoopReadsReportThroughputAndLatency) {
  Testbed bed(21);
  storage::ObjectStore s3(&bed.env, storage::ObjectStore::StandardOptions());
  StorageIoConfig config;
  config.clients = 2;
  config.threads_per_client = 4;
  config.request_bytes = kKiB;
  config.duration = Seconds(10);
  config.object_count = 64;
  config.use_fabric = false;
  auto result = RunStorageIo(&bed.env, &bed.fabric_driver, &s3, config);
  EXPECT_GT(result.requests, 100);
  EXPECT_EQ(result.failures, 0);  // Offered load far below capacity.
  // Closed loop of 8 slots at ~30 ms median: ~250 IOPS.
  EXPECT_NEAR(result.SuccessIops(), 8 / 0.0315, 80);
  EXPECT_NEAR(result.latency_ms.Percentile(50), 27, 5);
  EXPECT_FALSE(result.success_iops_series.empty());
}

TEST(StorageIoTest, WritesCreateObjects) {
  Testbed bed(22);
  storage::ObjectStore s3(&bed.env, storage::ObjectStore::StandardOptions());
  StorageIoConfig config;
  config.clients = 1;
  config.threads_per_client = 2;
  config.write = true;
  config.request_bytes = kKiB;
  config.duration = Seconds(5);
  config.use_fabric = false;
  auto result = RunStorageIo(&bed.env, &bed.fabric_driver, &s3, config);
  EXPECT_GT(result.successes, 10);
  EXPECT_FALSE(s3.List("bench/w-").empty());
}

TEST(StorageIoTest, ThrottlingShowsUpAsFailures) {
  Testbed bed(23);
  auto options = storage::ObjectStore::StandardOptions();
  options.read_burst_tokens = 100;
  options.partition_read_iops = 100;
  storage::ObjectStore s3(&bed.env, options);
  StorageIoConfig config;
  config.clients = 8;
  config.threads_per_client = 32;  // Far above the 100 IOPS capacity.
  config.request_bytes = kKiB;
  config.duration = Seconds(5);
  config.use_fabric = false;
  auto result = RunStorageIo(&bed.env, &bed.fabric_driver, &s3, config);
  EXPECT_GT(result.ErrorRate(), 0.5);
}

TEST(TestbedTest, EngineTestbedRunsAQuery) {
  EngineTestbed bed(26);
  datagen::TpchConfig tpch;
  tpch.scale_factor = 0.001;
  SKYRISE_CHECK_OK(datagen::UploadDataset(
                       &bed.base.s3, "lineitem", datagen::LineitemSchema(), 2,
                       [&](int p) {
                         return datagen::GenerateLineitemPartition(tpch, p, 2);
                       })
                       .status());
  auto response = bed.RunOnLambda(engine::BuildTpchQ6(), "tb-q6", 1);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->runtime_ms, 0);
  // Warm state survives: a second run reuses sandboxes (no new coldstarts
  // beyond the first run's).
  const int64_t colds = bed.lambda->stats().cold_starts;
  auto second = bed.RunOnLambda(engine::BuildTpchQ6(), "tb-q6-2", 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(bed.lambda->stats().cold_starts, colds);
}

TEST(ReportTest, RenderFaultSummaryTabulatesStagesAndTotals) {
  Json response = Json::Object();
  response["worker_retries"] = 3;
  response["speculative_launches"] = 1;
  response["worker_errors"] = 4;
  Json stages = Json::Array();
  Json s0 = Json::Object();
  s0["pipeline"] = 0;
  s0["fragments"] = 8;
  s0["retries"] = 2;
  s0["speculative"] = 1;
  s0["worker_errors"] = 3;
  stages.Append(std::move(s0));
  Json s1 = Json::Object();
  s1["pipeline"] = 1;
  s1["fragments"] = 4;
  s1["retries"] = 1;
  s1["speculative"] = 0;
  s1["worker_errors"] = 1;
  stages.Append(std::move(s1));
  response["stages"] = std::move(stages);

  const std::string out = RenderFaultSummary(response);
  EXPECT_NE(out.find("pipeline"), std::string::npos);
  EXPECT_NE(out.find("retries"), std::string::npos);
  EXPECT_NE(out.find("total"), std::string::npos);
  // Header + rule + two stage rows + total row.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);

  // No stages => nothing to report.
  EXPECT_EQ(RenderFaultSummary(Json::Object()), "");
}

TEST(ReportTest, RenderMetricsTabulatesCountersAndHistograms) {
  obs::MetricsRegistry metrics;
  EXPECT_EQ(RenderMetrics(metrics), "");  // Empty registry, empty render.
  metrics.Add("lambda.invocations", 12);
  metrics.Record("worker.input_ms", 10.0);
  metrics.Record("worker.input_ms", 30.0);
  const std::string out = RenderMetrics(metrics);
  EXPECT_NE(out.find("lambda.invocations"), std::string::npos);
  EXPECT_NE(out.find("12"), std::string::npos);
  EXPECT_NE(out.find("worker.input_ms"), std::string::npos);
  EXPECT_NE(out.find("p95"), std::string::npos);
}

TEST(ReportTest, RenderQueryProfileShowsCriticalPathAndSlowestSpans) {
  sim::SimEnvironment env(5);
  obs::Tracer tracer(&env);
  EXPECT_EQ(RenderQueryProfile(tracer), "");  // No spans, empty render.
  const auto invoke = tracer.Begin("lambda", "invoke fn", "faas");
  const auto exec = tracer.Begin("lambda", "exec fn", "faas", invoke);
  env.RunUntil(Micros(1000));
  const auto get = tracer.Begin("storage/s3", "get key", "storage", exec);
  tracer.AddCost(get, 0.25);
  env.RunUntil(Micros(4000));
  tracer.End(get);
  env.RunUntil(Micros(5000));
  tracer.End(exec);
  tracer.End(invoke);

  const std::string out = RenderQueryProfile(tracer);
  EXPECT_NE(out.find("critical path"), std::string::npos);
  EXPECT_NE(out.find("invoke fn"), std::string::npos);
  // The storage request is on the critical path (latest-ending child chain).
  EXPECT_NE(out.find("get key"), std::string::npos);
  EXPECT_NE(out.find("time in state"), std::string::npos);
  EXPECT_NE(out.find("faas"), std::string::npos);
  EXPECT_NE(out.find("slowest spans"), std::string::npos);
  EXPECT_NE(out.find("0.250000"), std::string::npos);  // Attributed cost.
}

TEST(TestbedTest, EngineTestbedCollectsTraceAndMetrics) {
  EngineTestbed bed(27);
  datagen::TpchConfig tpch;
  tpch.scale_factor = 0.001;
  SKYRISE_CHECK_OK(datagen::UploadDataset(
                       &bed.base.s3, "lineitem", datagen::LineitemSchema(), 2,
                       [&](int p) {
                         return datagen::GenerateLineitemPartition(tpch, p, 2);
                       })
                       .status());
  auto response = bed.RunOnLambda(engine::BuildTpchQ6(), "tb-q6", 1);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(bed.tracer.Validate().ok());
  EXPECT_GT(bed.tracer.spans().size(), 0u);
  EXPECT_GT(bed.metrics.Counter("lambda.invocations"), 0);
  EXPECT_EQ(bed.tracer.attributed_usd("faas"),
            bed.lambda->meter()->ComputeUsd());
  EXPECT_EQ(bed.tracer.attributed_usd("storage"), bed.meter.StorageUsd());
}

}  // namespace
}  // namespace skyrise::platform
