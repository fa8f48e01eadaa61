#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace skyrise::obs {
namespace {

TEST(TracerTest, SpansNestAndClose) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId root = tracer.Begin("worker", "input", "engine");
  EXPECT_EQ(root, 1);
  env.RunUntil(Micros(100));
  const SpanId child = tracer.Begin("worker", "decode", "engine", root);
  EXPECT_EQ(child, 2);
  EXPECT_EQ(tracer.open_spans(), 2);
  env.RunUntil(Micros(250));
  tracer.End(child);
  tracer.End(root);
  EXPECT_EQ(tracer.open_spans(), 0);
  EXPECT_TRUE(tracer.Validate().ok());

  const Span* span = tracer.Find(child);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->parent, root);
  EXPECT_EQ(span->start, Micros(100));
  EXPECT_EQ(span->end, Micros(250));
  EXPECT_EQ(tracer.str(span->outcome), "ok");
  EXPECT_EQ(span->duration(), Micros(150));
  EXPECT_EQ(tracer.Find(kNoSpan), nullptr);
  EXPECT_EQ(tracer.Find(99), nullptr);
}

TEST(TracerTest, EndIsIdempotentAndKeepsFirstOutcome) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId span = tracer.Begin("lambda", "exec", "faas");
  env.RunUntil(Micros(10));
  tracer.EndWith(span, "timeout");
  env.RunUntil(Micros(20));
  tracer.EndWith(span, "ok");  // Late duplicate settle: must not re-close.
  EXPECT_EQ(tracer.Find(span)->end, Micros(10));
  EXPECT_EQ(tracer.str(tracer.Find(span)->outcome), "timeout");
}

TEST(TracerTest, InstantSpansHaveZeroDuration) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  env.RunUntil(Micros(5));
  tracer.Instant("storage/s3", "throttle", "storage");
  const Span* span = tracer.Find(1);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->instant);
  EXPECT_EQ(span->start, span->end);
  EXPECT_EQ(tracer.open_spans(), 0);
  EXPECT_TRUE(tracer.Validate().ok());
}

TEST(TracerTest, CostAttributionBuckets) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId storage = tracer.Begin("storage/s3", "get k", "storage");
  const SpanId exec = tracer.Begin("lambda", "exec", "faas");
  tracer.AddCost(storage, 0.25);
  tracer.AddCost(storage, 0.50);
  tracer.AddCost(exec, 1.0);
  tracer.AddCost(kNoSpan, 0.125);
  tracer.End(storage);
  tracer.End(exec);
  EXPECT_DOUBLE_EQ(tracer.Find(storage)->cost_usd, 0.75);
  EXPECT_DOUBLE_EQ(tracer.attributed_usd("storage"), 0.75);
  EXPECT_DOUBLE_EQ(tracer.attributed_usd("faas"), 1.0);
  EXPECT_DOUBLE_EQ(tracer.attributed_usd("unattributed"), 0.125);
  EXPECT_DOUBLE_EQ(tracer.attributed_usd_total(), 1.875);
  EXPECT_DOUBLE_EQ(tracer.attributed_usd("nope"), 0.0);
}

TEST(TracerTest, ValidateRejectsUnclosedSpan) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  tracer.Begin("worker", "input", "engine");
  EXPECT_FALSE(tracer.Validate().ok());
}

TEST(TracerTest, ValidateRejectsForwardParent) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  // Parent id 5 does not exist (and never will before this span).
  const SpanId span = tracer.Begin("worker", "input", "engine", 5);
  tracer.End(span);
  EXPECT_FALSE(tracer.Validate().ok());
}

TEST(TracerTest, ValidateRejectsSameTrackEscape) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId parent = tracer.Begin("worker", "input", "engine");
  const SpanId child = tracer.Begin("worker", "decode", "engine", parent);
  env.RunUntil(Micros(10));
  tracer.End(parent);
  env.RunUntil(Micros(20));
  tracer.End(child);  // Outlives its same-track parent.
  EXPECT_FALSE(tracer.Validate().ok());
}

TEST(TracerTest, CrossTrackChildMayOutliveParent) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId exec = tracer.Begin("lambda", "exec", "faas");
  const SpanId request = tracer.Begin("storage/s3", "get k", "storage", exec);
  env.RunUntil(Micros(10));
  tracer.EndWith(exec, "crash");  // Zombie execution: handler keeps going.
  env.RunUntil(Micros(30));
  tracer.End(request);
  EXPECT_TRUE(tracer.Validate().ok());
}

TEST(TracerTest, ChromeExportStructure) {
  sim::SimEnvironment env(42);
  Tracer tracer(&env);
  const SpanId query = tracer.Begin("coordinator", "query q1", "engine");
  tracer.SetArg(query, "query_id", Json("q1"));
  env.RunUntil(Micros(10));
  const SpanId request = tracer.Begin("storage/s3", "get k", "storage", query);
  tracer.AddCost(request, 0.5);
  tracer.Instant("storage/s3", "throttle", "storage", request);
  env.RunUntil(Micros(40));
  tracer.End(request);
  env.RunUntil(Micros(50));
  tracer.End(query);

  const Json doc = tracer.ExportChromeTrace();
  EXPECT_EQ(doc.GetString("displayTimeUnit"), "ms");
  const Json& metadata = doc.Get("metadata");
  EXPECT_EQ(metadata.GetString("clock"), "sim_us");
  EXPECT_EQ(metadata.GetInt("seed"), 42);
  EXPECT_EQ(metadata.GetInt("span_count"), 3);
  EXPECT_DOUBLE_EQ(
      metadata.Get("attributed_usd").GetDouble("storage"), 0.5);

  // Track "coordinator" appeared first -> pid 1; "storage/s3" -> pid 2.
  // Events: 2 process_name + 2 thread_name metadata + 3 span events.
  const auto& events = doc.Get("traceEvents").AsArray();
  ASSERT_EQ(events.size(), 7u);
  EXPECT_EQ(events[0].GetString("ph"), "M");
  EXPECT_EQ(events[0].GetString("name"), "process_name");
  EXPECT_EQ(events[0].Get("args").GetString("name"), "coordinator");
  EXPECT_EQ(events[0].GetInt("pid"), 1);

  const Json& slice = events[4];  // query span.
  EXPECT_EQ(slice.GetString("ph"), "X");
  EXPECT_EQ(slice.GetString("name"), "query q1");
  EXPECT_EQ(slice.GetString("cat"), "engine");
  EXPECT_EQ(slice.GetInt("ts"), 0);
  EXPECT_EQ(slice.GetInt("dur"), 50);
  EXPECT_EQ(slice.Get("args").GetInt("span"), 1);
  EXPECT_EQ(slice.Get("args").GetInt("parent"), 0);
  EXPECT_EQ(slice.Get("args").GetString("outcome"), "ok");
  EXPECT_EQ(slice.Get("args").GetString("query_id"), "q1");

  const Json& get = events[5];
  EXPECT_EQ(get.GetInt("pid"), 2);
  EXPECT_DOUBLE_EQ(get.Get("args").GetDouble("cost_usd"), 0.5);

  const Json& instant = events[6];
  EXPECT_EQ(instant.GetString("ph"), "i");
  EXPECT_EQ(instant.GetString("s"), "t");
  EXPECT_EQ(instant.Get("args").GetInt("parent"), 2);
}

TEST(TracerTest, ArgsExportLastValueTypedAndSorted) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId span = tracer.Begin("storage/s3", "get k", "storage");
  const SpanId other = tracer.Begin("storage/s3", "get j", "storage");
  tracer.SetArg(span, "zeta", Json(static_cast<int64_t>(1)));
  tracer.SetArg(span, "attempts", Json(static_cast<int64_t>(1)));
  tracer.SetArg(other, "attempts", Json(static_cast<int64_t>(7)));
  tracer.SetArg(span, "ratio", Json(0.25));
  tracer.SetArg(span, "key", Json("tables/lineitem/part-0"));
  tracer.SetArg(span, "cold", Json(false));
  // Overwrites: the last value wins, even when its type differs.
  tracer.SetArg(span, "attempts", Json(static_cast<int64_t>(3)));
  tracer.SetArg(span, "zeta", Json("last"));
  tracer.SetArg(span, "cold", Json(true));
  tracer.End(other);
  tracer.End(span);

  const Json args = tracer.Args(span);
  EXPECT_EQ(args.size(), 5u);
  ASSERT_TRUE(args.Get("attempts").is_number());
  EXPECT_EQ(args.GetInt("attempts"), 3);
  ASSERT_TRUE(args.Get("ratio").is_number());
  EXPECT_DOUBLE_EQ(args.GetDouble("ratio"), 0.25);
  ASSERT_TRUE(args.Get("key").is_string());
  EXPECT_EQ(args.GetString("key"), "tables/lineitem/part-0");
  ASSERT_TRUE(args.Get("cold").is_bool());
  EXPECT_TRUE(args.GetBool("cold"));
  ASSERT_TRUE(args.Get("zeta").is_string());
  EXPECT_EQ(args.GetString("zeta"), "last");
  EXPECT_EQ(tracer.Args(other).GetInt("attempts"), 7);

  // The export merges the span's own fields in and writes keys sorted.
  const Json doc = tracer.ExportChromeTrace();
  std::string exported;
  for (const Json& event : doc.Get("traceEvents").AsArray()) {
    if (event.GetString("ph") == "X" && event.Get("args").GetInt("span") == 1) {
      exported = event.Get("args").Dump();
    }
  }
  EXPECT_EQ(exported,
            "{\"attempts\":3,\"cold\":true,\"cost_usd\":0,"
            "\"key\":\"tables/lineitem/part-0\",\"outcome\":\"ok\","
            "\"parent\":0,\"ratio\":0.25,\"span\":1,\"zeta\":\"last\"}");
}

TEST(TracerTest, OverwrittenArgExportsOnlyItsLastValue) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  const SpanId span = tracer.Begin("worker", "compute", "engine");
  tracer.SetArg(span, "v", Json(2.5));
  EXPECT_DOUBLE_EQ(tracer.Args(span).GetDouble("v"), 2.5);
  tracer.SetArg(span, "v", Json("text"));
  EXPECT_EQ(tracer.Args(span).GetString("v"), "text");
  tracer.SetArg(span, "v", Json(true));
  EXPECT_TRUE(tracer.Args(span).GetBool("v"));
  tracer.SetArg(span, "v", Json());
  EXPECT_TRUE(tracer.Args(span).Get("v").is_null());
  Json object = Json::Object();
  object["rows"] = 3;
  tracer.SetArg(span, "v", std::move(object));
  tracer.End(span);

  const Json args = tracer.Args(span);
  EXPECT_EQ(args.size(), 1u);
  ASSERT_TRUE(args.Get("v").is_object());
  EXPECT_EQ(args.Get("v").GetInt("rows"), 3);
  const Json doc = tracer.ExportChromeTrace();
  std::string exported;
  for (const Json& event : doc.Get("traceEvents").AsArray()) {
    if (event.GetString("ph") == "X") exported = event.Get("args").Dump();
  }
  EXPECT_EQ(exported,
            "{\"cost_usd\":0,\"outcome\":\"ok\",\"parent\":0,\"span\":1,"
            "\"v\":{\"rows\":3}}");
}

TEST(TracerTest, InternedStringsSurviveIndexGrowthAndReset) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  tracer.Instant("track", "first", "category");
  EXPECT_EQ(tracer.spans()[0].track, 1u);
  EXPECT_EQ(tracer.str(0), "");

  // 10,000 distinct names, several growths of the string index.
  auto name = [](int i) {
    return "get tables/lineitem/part-" + std::to_string(i) + ".cof";
  };
  for (int i = 0; i < 10000; ++i) tracer.Instant("track", name(i), "category");
  std::vector<StrId> handles;
  for (const Span& span : tracer.spans()) handles.push_back(span.name);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(tracer.str(handles[static_cast<size_t>(i) + 1]), name(i));
  }
  // The same text interns to the same handle.
  for (int i = 0; i < 10000; i += 997) {
    tracer.Instant("track", name(i), "category");
    EXPECT_EQ(tracer.spans().back().name, handles[static_cast<size_t>(i) + 1]);
    EXPECT_EQ(tracer.spans().back().track, tracer.spans()[0].track);
  }
  EXPECT_EQ(tracer.str(tracer.spans()[0].name), "first");

  tracer.Reset();
  tracer.Instant("lambda", "exec", "faas");
  const Span& span = tracer.spans()[0];
  EXPECT_EQ(span.track, 1u);
  EXPECT_EQ(span.name, 2u);
  EXPECT_EQ(span.category, 3u);
  EXPECT_EQ(span.outcome, 4u);
  EXPECT_EQ(tracer.str(span.name), "exec");
  EXPECT_EQ(tracer.str(span.outcome), "ok");
}

TEST(TracerTest, OverlappingRootsSpreadOverLanes) {
  sim::SimEnvironment env(1);
  Tracer tracer(&env);
  const SpanId a = tracer.Begin("lambda", "exec a", "faas");
  env.RunUntil(Micros(10));
  const SpanId b = tracer.Begin("lambda", "exec b", "faas");  // Overlaps a.
  env.RunUntil(Micros(20));
  tracer.End(a);
  const SpanId c = tracer.Begin("lambda", "exec c", "faas");  // After a.
  env.RunUntil(Micros(30));
  tracer.End(b);
  tracer.End(c);

  const Json doc = tracer.ExportChromeTrace();
  std::map<SpanId, int64_t> tid_of;
  for (const Json& event : doc.Get("traceEvents").AsArray()) {
    if (event.GetString("ph") != "X") continue;
    tid_of[event.Get("args").GetInt("span")] = event.GetInt("tid");
  }
  EXPECT_EQ(tid_of[a], 0);
  EXPECT_EQ(tid_of[b], 1);  // Concurrent with a -> next lane.
  EXPECT_EQ(tid_of[c], 0);  // a's lane is free again.
}

TEST(TracerTest, SameSeedExportsAreByteIdentical) {
  auto make_trace = [] {
    sim::SimEnvironment env(99);
    Tracer tracer(&env);
    const SpanId root = tracer.Begin("worker", "input", "engine");
    env.RunUntil(Micros(25));
    tracer.AddCost(root, 0.125);
    tracer.SetArg(root, "bytes_read", Json(static_cast<int64_t>(4096)));
    tracer.End(root);
    return tracer.DumpChromeTrace();
  };
  EXPECT_EQ(make_trace(), make_trace());
}

TEST(TracerTest, ResetClearsEverything) {
  sim::SimEnvironment env(7);
  Tracer tracer(&env);
  // Deliberately left open: this test verifies that Reset() discards open
  // spans. skyrise-check: allow(span-leak)
  const SpanId span = tracer.Begin("worker", "input", "engine");
  tracer.AddCost(span, 1.0);
  tracer.Reset();
  EXPECT_TRUE(tracer.spans().empty());
  EXPECT_EQ(tracer.open_spans(), 0);
  EXPECT_DOUBLE_EQ(tracer.attributed_usd_total(), 0.0);
}

TEST(MetricsRegistryTest, CountersAndHighWaterMarks) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.Counter("lambda.invocations"), 0);
  metrics.Add("lambda.invocations");
  metrics.Add("lambda.invocations", 4);
  EXPECT_EQ(metrics.Counter("lambda.invocations"), 5);
  metrics.Max("worker.peak_memory_bytes", 100);
  metrics.Max("worker.peak_memory_bytes", 40);  // Below the mark: ignored.
  metrics.Max("worker.peak_memory_bytes", 250);
  EXPECT_EQ(metrics.Counter("worker.peak_memory_bytes"), 250);
}

TEST(MetricsRegistryTest, HistogramsRecordDistributions) {
  MetricsRegistry metrics;
  EXPECT_EQ(metrics.Hist("worker.input_ms"), nullptr);
  for (int i = 1; i <= 100; ++i) {
    metrics.Record("worker.input_ms", static_cast<double>(i));
  }
  const Histogram* hist = metrics.Hist("worker.input_ms");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 100);
  EXPECT_NEAR(hist->Percentile(50.0), 50.0, 2.0);
  EXPECT_DOUBLE_EQ(hist->max(), 100.0);
}

TEST(MetricsRegistryTest, ToJsonIsDeterministic) {
  MetricsRegistry metrics;
  metrics.Add("b.counter", 2);
  metrics.Add("a.counter", 1);
  metrics.Record("lat_ms", 10.0);
  const Json doc = metrics.ToJson();
  EXPECT_EQ(doc.Get("counters").GetInt("a.counter"), 1);
  EXPECT_EQ(doc.Get("counters").GetInt("b.counter"), 2);
  EXPECT_EQ(doc.Get("histograms").Get("lat_ms").GetInt("count"), 1);
  // a.counter sorts before b.counter in the dump (std::map order).
  const std::string dump = doc.Dump();
  EXPECT_LT(dump.find("a.counter"), dump.find("b.counter"));
}

}  // namespace
}  // namespace skyrise::obs
