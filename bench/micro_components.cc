/// Google-benchmark microbenchmarks for the performance-critical library
/// components: the simulation kernel, rate limiters, encodings, expression
/// evaluation, and vectorized operators.

#include <benchmark/benchmark.h>

#include "common/histogram.h"
#include "common/json.h"
#include "common/random.h"
#include "common/string_util.h"
#include "data/chunk_pool.h"
#include "datagen/tpch.h"
#include "engine/executor.h"
#include "engine/queries.h"
#include "format/cof.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "sim/token_bucket.h"

using namespace skyrise;

namespace {

void BM_RngNextUint64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.NextUint64());
}
BENCHMARK(BM_RngNextUint64);

void BM_RngLognormal(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.LognormalMedianSigma(27, 0.6));
  }
}
BENCHMARK(BM_RngLognormal);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(1);
  for (auto _ : state) h.Record(rng.Exponential(30));
  benchmark::DoNotOptimize(h.Percentile(99));
}
BENCHMARK(BM_HistogramRecord);

void BM_TracerRequestSpan(benchmark::State& state) {
  // One storage request as RetryClient traces it: a "get <key>" span with
  // its key, offset and length, and one attempt span under it.
  std::vector<std::string> keys;
  for (int i = 0; i < 4000; ++i) {
    keys.push_back(StrFormat("tables/lineitem/part-%04d.cof", i));
  }
  sim::SimEnvironment env(1);
  obs::Tracer tracer(&env);
  size_t next = 0;
  for (auto _ : state) {
    const std::string& key = keys[next++ % keys.size()];
    const obs::SpanId request =
        tracer.Begin("storage/s3", "get " + key, "storage");
    tracer.SetArg(request, "key", Json(key));
    tracer.SetArg(request, "offset", Json(int64_t{0}));
    tracer.SetArg(request, "length", Json(int64_t{1} << 20));
    const obs::SpanId attempt = tracer.Begin(
        "storage/s3", StrFormat("attempt %d", 1), "storage", request);
    tracer.EndWith(attempt, "ok");
    tracer.EndWith(request, "ok");
    benchmark::DoNotOptimize(attempt);
    if (tracer.spans().size() >= 100000) tracer.Reset();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerRequestSpan);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::SimEnvironment env(1);
    for (int i = 0; i < 1000; ++i) {
      env.Schedule(i * 10, [] {});
    }
    env.Run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_TokenBucketConsume(benchmark::State& state) {
  sim::TokenBucket bucket(1e9, 1e6, 1e9);
  SimTime now = 0;
  for (auto _ : state) {
    now += 10;
    benchmark::DoNotOptimize(bucket.TryConsume(1, now));
  }
}
BENCHMARK(BM_TokenBucketConsume);

void BM_JsonParsePlan(benchmark::State& state) {
  const std::string text = engine::BuildTpchQ12().ToJson().Dump();
  for (auto _ : state) {
    auto parsed = Json::Parse(text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_JsonParsePlan);

data::Chunk MakeLineitem(int64_t rows) {
  datagen::TpchConfig config;
  config.scale_factor =
      static_cast<double>(rows) / 6000000.0;  // ~rows lineitems.
  return datagen::GenerateLineitemPartition(config, 0, 1);
}

void BM_CofEncode(benchmark::State& state) {
  data::Chunk chunk = MakeLineitem(60000);
  for (auto _ : state) {
    std::string file = format::WriteCofFile(chunk.schema(), chunk);
    benchmark::DoNotOptimize(file.size());
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(file.size()));
  }
}
BENCHMARK(BM_CofEncode);

void BM_CofDecode(benchmark::State& state) {
  data::Chunk chunk = MakeLineitem(60000);
  const std::string file = format::WriteCofFile(chunk.schema(), chunk);
  auto meta =
      format::ParseFooter(file, 0, static_cast<int64_t>(file.size()))
          .ValueOrDie();
  std::vector<std::string> projection;
  for (const auto& f : meta.schema.fields()) projection.push_back(f.name);
  for (auto _ : state) {
    for (size_t rg = 0; rg < meta.row_groups.size(); ++rg) {
      std::vector<std::string_view> bytes;
      for (const auto& cm : meta.row_groups[rg].columns) {
        bytes.push_back(std::string_view(file).substr(
            static_cast<size_t>(cm.offset), static_cast<size_t>(cm.size)));
      }
      auto decoded = format::DecodeRowGroup(meta, rg, projection, bytes);
      benchmark::DoNotOptimize(decoded.ok());
    }
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(file.size()));
}
BENCHMARK(BM_CofDecode);

void BM_ExecutorQ6Fragment(benchmark::State& state) {
  data::Chunk chunk = MakeLineitem(60000);
  auto plan = engine::BuildTpchQ6();
  // The scan pipeline minus the pushdown: apply filter + project + agg.
  engine::PipelineSpec pipeline = plan.pipelines[0];
  engine::OperatorSpec filter;
  filter.op = "filter";
  filter.predicate = pipeline.inputs[0].pushdown;
  pipeline.ops.insert(pipeline.ops.begin(), filter);
  for (auto _ : state) {
    engine::CostAccumulator cost;
    auto out = engine::ExecuteFragment(pipeline, chunk.Slice(0, chunk.rows()),
                                       {}, &cost);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * chunk.rows());
}
BENCHMARK(BM_ExecutorQ6Fragment);

void BM_ExecutorQ1Partial(benchmark::State& state) {
  data::Chunk chunk = MakeLineitem(60000);
  auto plan = engine::BuildTpchQ1();
  // The scan pipeline's pushdown, projection and partial aggregate over the
  // two dictionary-coded keys, without the shuffle write.
  engine::PipelineSpec pipeline = plan.pipelines[0];
  pipeline.ops.pop_back();
  engine::OperatorSpec filter;
  filter.op = "filter";
  filter.predicate = pipeline.inputs[0].pushdown;
  pipeline.ops.insert(pipeline.ops.begin(), filter);
  for (auto _ : state) {
    engine::CostAccumulator cost;
    auto out = engine::ExecuteFragment(pipeline, chunk.Slice(0, chunk.rows()),
                                       {}, &cost);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * chunk.rows());
}
BENCHMARK(BM_ExecutorQ1Partial);

void BM_ExecutorQ12Pushdown(benchmark::State& state) {
  const data::Chunk chunk = MakeLineitem(60000);
  const engine::InputSpec input = engine::BuildTpchQ12().pipelines[0].inputs[0];
  // The five-conjunct pushdown over the scan's columns, read in place as a
  // scan reads memoised columns.
  const data::Schema schema = chunk.schema().Select(input.columns).ValueOrDie();
  engine::ExprKernel::ColumnRefs columns;
  for (const auto& name : input.columns) columns.push_back(&chunk.column(name));
  engine::CostAccumulator cost;
  data::ChunkPool pool;
  engine::FilterKernel filter(input.pushdown, input.pushdown_selectivity,
                              &cost, &pool);
  const auto rows = static_cast<size_t>(chunk.rows());
  for (auto _ : state) {
    auto out = filter.Gather(schema, columns, rows);
    benchmark::DoNotOptimize(out.ok());
    if (out.ok()) pool.Release(std::move(out).ValueUnsafe());
  }
  state.SetItemsProcessed(state.iterations() * chunk.rows());
}
BENCHMARK(BM_ExecutorQ12Pushdown);

void BM_HashJoinProbe(benchmark::State& state) {
  data::Schema dim_schema({{"id", data::DataType::kInt64},
                           {"v", data::DataType::kString}});
  data::Chunk dim = data::Chunk::Empty(dim_schema);
  for (int i = 0; i < 10000; ++i) {
    dim.column(0).AppendInt(i);
    dim.column(1).AppendString(i % 2 ? "HIGH" : "LOW");
  }
  data::Schema probe_schema({{"key", data::DataType::kInt64}});
  data::Chunk probe = data::Chunk::Empty(probe_schema);
  Rng rng(5);
  for (int i = 0; i < 100000; ++i) {
    probe.column(0).AppendInt(rng.UniformInt(0, 9999));
  }
  engine::OperatorSpec join;
  join.op = "hash_join";
  join.probe_keys = {"key"};
  join.build_keys = {"id"};
  join.build_columns = {"v"};
  engine::PipelineSpec pipeline;
  pipeline.ops.push_back(join);
  for (auto _ : state) {
    engine::CostAccumulator cost;
    std::vector<data::Chunk> builds;
    builds.push_back(dim.Slice(0, dim.rows()));
    auto out = engine::ExecuteFragment(pipeline, probe.Slice(0, probe.rows()),
                                       std::move(builds), &cost);
    benchmark::DoNotOptimize(out.ok());
  }
  state.SetItemsProcessed(state.iterations() * probe.rows());
}
BENCHMARK(BM_HashJoinProbe);

}  // namespace

BENCHMARK_MAIN();
