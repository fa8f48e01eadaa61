#include "engine/engine.h"

#include "format/encoding.h"

namespace skyrise::engine {

QueryResponse QueryResponse::FromJson(const Json& json) {
  QueryResponse response;
  response.result_key = json.GetString("result_key");
  response.runtime_ms = json.GetDouble("runtime_ms");
  response.cumulated_worker_ms = json.GetDouble("cumulated_worker_ms");
  response.total_workers = static_cast<int>(json.GetInt("total_workers"));
  response.peak_workers = static_cast<int>(json.GetInt("peak_workers"));
  response.requests = json.GetInt("requests");
  response.worker_retries = static_cast<int>(json.GetInt("worker_retries"));
  response.speculative_launches =
      static_cast<int>(json.GetInt("speculative_launches"));
  response.worker_errors = static_cast<int>(json.GetInt("worker_errors"));
  response.peak_worker_memory_bytes = json.GetInt("peak_worker_memory_bytes");
  response.total_batches = json.GetInt("total_batches");
  response.recommended_memory_mib =
      static_cast<int>(json.GetInt("recommended_memory_mib"));
  response.degraded_stages = static_cast<int>(json.GetInt("degraded_stages"));
  if (json.Has("retry_budget")) {
    const Json budget = json.Get("retry_budget");
    response.retry_budget_initial = budget.GetDouble("initial_tokens");
    response.retry_budget_remaining = budget.GetDouble("remaining_tokens");
    response.retry_budget_acquired = budget.GetInt("acquired");
    response.retry_budget_denied = budget.GetInt("denied");
  }
  response.raw = json;
  return response;
}

Status QueryEngine::Deploy(faas::FunctionRegistry* registry,
                           double worker_memory_mib) {
  faas::FunctionConfig worker;
  worker.name = kWorkerFunction;
  worker.memory_mib = worker_memory_mib;
  // The coordinator's memory-aware scan sizing budgets against this.
  context_.worker_memory_mib = static_cast<int>(worker_memory_mib);
  worker.binary_size_bytes = 8 * kMiB;  // Small binaries: fast coldstarts.
  SKYRISE_RETURN_IF_ERROR(
      registry->Register(worker, MakeWorkerHandler(&context_)));

  faas::FunctionConfig coordinator;
  coordinator.name = kCoordinatorFunction;
  coordinator.memory_mib = 3538;  // 2 vCPUs.
  coordinator.binary_size_bytes = 8 * kMiB;
  SKYRISE_RETURN_IF_ERROR(
      registry->Register(coordinator, MakeCoordinatorHandler(&context_)));

  faas::FunctionConfig invoker;
  invoker.name = kInvokerFunction;
  invoker.memory_mib = 1769;
  invoker.binary_size_bytes = 8 * kMiB;
  SKYRISE_RETURN_IF_ERROR(
      registry->Register(invoker, MakeInvokerHandler(&context_)));
  return Status::OK();
}

void QueryEngine::Run(faas::ComputePlatform* platform, const QueryPlan& plan,
                      const std::string& query_id,
                      std::function<void(Result<QueryResponse>)> callback,
                      int partitions_per_worker) {
  context_.worker_platform = platform;
  Json payload = CoordinatorPayload(plan, query_id, partitions_per_worker);
  if (context_.query_deadline > 0) {
    // Absolute expiry; every layer below (platform timeouts, storage
    // retries) clamps against it. The coordinator fails the query typed at
    // this time instead of hanging to a driver horizon.
    payload["deadline_us"] = context_.env->now() + context_.query_deadline;
  }
  platform->Invoke(kCoordinatorFunction, std::move(payload),
                   [callback = std::move(callback)](Result<Json> result) {
                     if (!result.ok()) {
                       callback(result.status());
                       return;
                     }
                     callback(QueryResponse::FromJson(*result));
                   });
}

Result<data::Chunk> QueryEngine::FetchResult(
    const std::string& query_id) const {
  storage::Blob blob;
  SKYRISE_ASSIGN_OR_RETURN(blob,
                           context_.shuffle_store->Peek(ResultKey(query_id)));
  if (blob.is_synthetic()) {
    format::FileMeta meta;
    SKYRISE_ASSIGN_OR_RETURN(meta,
                             context_.catalog->Find(ResultKey(query_id)));
    return data::Chunk::Synthetic(meta.schema, meta.TotalRows());
  }
  // Decoded where the object lies.
  const std::string_view bytes = blob.bytes();
  format::FileMeta meta;
  SKYRISE_ASSIGN_OR_RETURN(
      meta, format::ParseFooter(bytes, 0, static_cast<int64_t>(bytes.size())));
  std::vector<std::string> projection;
  for (const auto& f : meta.schema.fields()) projection.push_back(f.name);
  data::Chunk out = data::Chunk::Empty(meta.schema);
  std::vector<std::string_view> column_bytes;
  for (size_t rg = 0; rg < meta.row_groups.size(); ++rg) {
    column_bytes.clear();
    for (const auto& cm : meta.row_groups[rg].columns) {
      column_bytes.push_back(bytes.substr(static_cast<size_t>(cm.offset),
                                          static_cast<size_t>(cm.size)));
    }
    data::Chunk chunk;
    SKYRISE_ASSIGN_OR_RETURN(
        chunk, format::DecodeRowGroup(meta, rg, projection, column_bytes));
    out.Append(chunk);
  }
  return out;
}

}  // namespace skyrise::engine
