/// Host-time benchmark process: sets one workload up from the seed, drives
/// its timed phase once, checks the outputs and prints one JSON line with
/// what it measured. run.py starts it repeatedly (untraced for the
/// end-to-end metrics; traced, and for serving also with obs detached, for
/// the per-layer metrics) and turns these lines into the benchmark's report.
/// One repetition per process keeps each process's peak RSS a measurement
/// of one repetition.
///
///   hostbench --workload <serving|s3_iops|s3_stream> --seed <n>
///             [--trace 0|1] [--obs 0|1] [--spans <csv>]

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"
#include "host_trace.h"
#include "workloads.h"

namespace {

using hostbench::HostTrace;
using hostbench::Layer;
using hostbench::RepResult;

std::string Hex(uint64_t v) {
  return skyrise::StrFormat("%016llx", static_cast<unsigned long long>(v));
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench --workload <serving|s3_iops|s3_stream> "
               "--seed <n> [--trace 0|1] [--obs 0|1] [--spans <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::RunConfig config;
  std::string spans_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--trace") {
      config.traced = value == "1";
    } else if (flag == "--obs") {
      config.obs = value == "1";
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0) return Usage();
  std::unique_ptr<hostbench::Workload> workload =
      hostbench::MakeWorkload(config);
  if (workload == nullptr) return Usage();

  std::unique_ptr<HostTrace> trace;
  if (config.traced) trace = std::make_unique<HostTrace>();
  const RepResult rep = workload->RunRep(trace.get());

  skyrise::Json out = skyrise::Json::Object();
  out["workload"] = config.workload;
  out["seed"] = static_cast<int64_t>(config.seed);
  out["traced"] = config.traced;
  out["obs"] = config.obs;
  out["setup_s"] = rep.setup_s;
  out["wall_s"] = rep.wall_s;
  out["sim_s"] = rep.sim_s;
  out["slice_s"] = rep.slice_s;
  skyrise::Json slices = skyrise::Json::Array();
  for (double v : rep.slices) slices.Append(v);
  out["slices"] = std::move(slices);
  out["peak_rss_mib"] = hostbench::PeakRssMib();
  out["attempted"] = rep.attempted;
  out["failed"] = rep.failed;
  skyrise::Json errors = skyrise::Json::Array();
  for (const std::string& error : rep.errors) errors.Append(error);
  out["errors"] = std::move(errors);
  out["digest"] = Hex(rep.digest);
  out["latency_digest"] = Hex(rep.latency_digest);
  out["events"] = rep.events;
  out["allocs"] = static_cast<int64_t>(rep.allocs);

  skyrise::Json counts = skyrise::Json::Object();
  for (const auto& [name, value] : rep.counts) counts[name] = value;
  counts["sim.events_per_s"] = static_cast<double>(rep.events) / rep.wall_s;
  counts["alloc.count"] = static_cast<double>(rep.allocs);
  if (trace != nullptr) {
    auto ms = [&](Layer layer) {
      return static_cast<double>(trace->totals(layer).self_ns) / 1e6;
    };
    auto allocs = [&](Layer layer) {
      return static_cast<double>(trace->totals(layer).self_allocs);
    };
    counts["storage.call_ms"] = ms(Layer::kStorageCall);
    counts["storage.retry_ms"] = ms(Layer::kStorageRetry);
    counts["faas.call_ms"] = ms(Layer::kFaasCall);
    counts["engine.handler_ms"] = ms(Layer::kEngineHandler);
    counts["engine.callback_ms"] = ms(Layer::kEngineCallback);
    counts["serving.callback_ms"] = ms(Layer::kServingCallback);
    counts["client.ms"] = ms(Layer::kClient);
    counts["unattributed_ms"] = ms(Layer::kDrive);
    double wall_ms = 0;
    for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
      wall_ms += ms(static_cast<Layer>(l));
    }
    counts["trace.wall_ms"] = wall_ms;
    counts["storage.allocs"] =
        allocs(Layer::kStorageCall) + allocs(Layer::kStorageRetry);
    counts["faas.allocs"] = allocs(Layer::kFaasCall);
    counts["engine.allocs"] =
        allocs(Layer::kEngineHandler) + allocs(Layer::kEngineCallback);
    out["spans_kept"] = static_cast<int64_t>(trace->spans().size());
    out["dropped_spans"] = trace->dropped_spans();
    if (!spans_path.empty() && !trace->WriteSpans(spans_path)) {
      std::fprintf(stderr, "hostbench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  out["counts"] = std::move(counts);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
