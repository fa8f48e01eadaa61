#include "platform/storage_io.h"

#include "common/string_util.h"

namespace skyrise::platform {

namespace {

struct BenchState {
  sim::SimEnvironment* env = nullptr;
  storage::StorageService* service = nullptr;
  StorageIoConfig config;
  SimTime start = 0;
  SimTime deadline = 0;
  StorageIoResult result;
  std::vector<std::unique_ptr<net::Nic>> nics;
  std::vector<storage::ClientContext> contexts;  ///< Per client.
  std::vector<std::string> read_keys;  ///< The pre-created objects.
  int64_t next_write_key = 0;
  int64_t next_read_key = 0;
  int active_threads = 0;
  std::function<void()> on_done;

  void RecordSample(SimTime issued, bool ok, int64_t bytes) {
    ++result.requests;
    const size_t bucket = static_cast<size_t>(
        (issued - start) / config.sample_interval);
    if (result.success_iops_series.size() <= bucket) {
      result.success_iops_series.resize(bucket + 1, 0);
      result.failure_iops_series.resize(bucket + 1, 0);
    }
    const double per_interval = 1.0 / ToSeconds(config.sample_interval);
    if (ok) {
      ++result.successes;
      result.bytes_moved += bytes;
      result.latency_ms.Record(ToMillis(env->now() - issued));
      result.success_iops_series[bucket] += per_interval;
    } else {
      ++result.failures;
      result.failure_iops_series[bucket] += per_interval;
    }
  }
};

void IssueNext(std::shared_ptr<BenchState> state, int client);

void OnComplete(std::shared_ptr<BenchState> state, int client, SimTime issued,
                bool ok, int64_t bytes) {
  state->RecordSample(issued, ok, bytes);
  IssueNext(std::move(state), client);
}

void IssueNext(std::shared_ptr<BenchState> state, int client) {
  sim::SimEnvironment* env = state->env;
  if (env->now() >= state->deadline) {
    if (--state->active_threads == 0 && state->on_done) state->on_done();
    return;
  }
  // Each request is issued from an event of its own, after the completion
  // that freed its thread; the benches' event order depends on this hop.
  env->Schedule(0, [state, client] {
    sim::SimEnvironment* env = state->env;
    if (env->now() >= state->deadline) {
      if (--state->active_threads == 0 && state->on_done) state->on_done();
      return;
    }
    const SimTime issued = env->now();
    const auto& ctx = state->contexts[static_cast<size_t>(client)];
    if (state->config.write) {
      const std::string key =
          state->config.key_prefix +
          StrFormat("w-%08lld", static_cast<long long>(state->next_write_key++));
      auto blob = storage::Blob::Synthetic(state->config.request_bytes);
      auto cb = [state, client, issued](Status status) {
        OnComplete(state, client, issued, status.ok(),
                   state->config.request_bytes);
      };
      state->service->Put(key, std::move(blob), ctx, std::move(cb));
    } else {
      const std::string& key = state->read_keys[static_cast<size_t>(
          state->next_read_key++ % state->config.object_count)];
      auto cb = [state, client, issued](Result<storage::Blob> result) {
        OnComplete(state, client, issued, result.ok(),
                   result.ok() ? result->size() : 0);
      };
      state->service->Get(key, ctx, std::move(cb));
    }
  });
}

}  // namespace

StorageIoResult RunStorageIo(sim::SimEnvironment* env,
                             net::FabricDriver* fabric,
                             storage::StorageService* service,
                             const StorageIoConfig& config) {
  auto state = std::make_shared<BenchState>();
  state->env = env;
  state->service = service;
  state->config = config;

  // Pre-create read objects (control plane).
  if (!config.write) {
    for (int i = 0; i < config.object_count; ++i) {
      state->read_keys.push_back(config.key_prefix +
                                 StrFormat("obj-%08d", i));
      SKYRISE_CHECK_OK(service->Insert(
          state->read_keys.back(),
          storage::Blob::Synthetic(config.request_bytes)));
    }
  }

  // One NIC per client (EC2 instance type or Lambda function).
  for (int c = 0; c < config.clients; ++c) {
    std::unique_ptr<net::Nic> nic;
    if (config.client_instance_type == "lambda") {
      nic = std::make_unique<net::LambdaNic>();
    } else {
      auto options = net::MakeEc2NicOptions(config.client_instance_type);
      SKYRISE_CHECK_OK(options.status());
      nic = std::make_unique<net::Ec2Nic>(*options);
    }
    storage::ClientContext ctx;
    if (config.use_fabric) {
      ctx.nic = nic.get();
      ctx.fabric = fabric;
    }
    state->contexts.push_back(ctx);
    state->nics.push_back(std::move(nic));
  }

  state->start = env->now();
  state->deadline = env->now() + config.duration;
  state->active_threads = config.clients * config.threads_per_client;
  bool finished = false;
  state->on_done = [&finished] { finished = true; };

  for (int c = 0; c < config.clients; ++c) {
    for (int t = 0; t < config.threads_per_client; ++t) {
      IssueNext(state, c);
    }
  }
  // Drive the simulation until all threads observed the deadline. The drain
  // grace is a backstop against a wedged service, and leaving it with
  // threads still active is reported as a typed outcome rather than
  // silently dropped.
  while (!finished && env->now() < state->deadline + config.drain_grace) {
    if (!env->Step()) break;
  }
  if (!finished) state->result.abandoned_threads = state->active_threads;
  state->result.elapsed = config.duration;
  return std::move(state->result);
}

}  // namespace skyrise::platform
