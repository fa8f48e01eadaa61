#include "wrappers.h"

#include <memory>
#include <utility>

#include "engine/context.h"

namespace hostbench {

namespace {

bool HasPrefix(const std::string& key, const char* prefix) {
  return key.rfind(prefix, 0) == 0;
}

}  // namespace

sky::storage::GetCallback TimedStore::WrapRead(
    const std::string& key, const sky::storage::ClientContext& ctx,
    sky::storage::GetCallback callback, uint64_t id) {
  const bool fabric = ctx.fabric != nullptr && ctx.nic != nullptr;
  const bool table = HasPrefix(key, "tables/");
  return [this, id, fabric, table, callback = std::move(callback)](
             sky::Result<sky::storage::Blob> result) {
    ++counters_.completions;
    if (result.ok()) {
      const int64_t bytes = result->size();
      counters_.read_bytes += bytes;
      if (table) counters_.scan_bytes += bytes;
      if (fabric && bytes >= inner_->options().min_fabric_bytes) {
        ++counters_.transfers;
        counters_.transfer_bytes += bytes;
      }
    } else {
      ++counters_.failed;
    }
    Scope scope(trace_, completion_layer_, id);
    callback(std::move(result));
  };
}

void TimedStore::Get(const std::string& key,
                     const sky::storage::ClientContext& ctx,
                     sky::storage::GetCallback callback) {
  const uint64_t id = static_cast<uint64_t>(++counters_.calls);
  Scope scope(trace_, Layer::kStorageCall, id);
  inner_->Get(key, ctx, WrapRead(key, ctx, std::move(callback), id));
}

void TimedStore::GetRange(const std::string& key, int64_t offset,
                          int64_t length,
                          const sky::storage::ClientContext& ctx,
                          sky::storage::GetCallback callback) {
  const uint64_t id = static_cast<uint64_t>(++counters_.calls);
  Scope scope(trace_, Layer::kStorageCall, id);
  inner_->GetRange(key, offset, length, ctx,
                   WrapRead(key, ctx, std::move(callback), id));
}

void TimedStore::Put(const std::string& key, sky::storage::Blob data,
                     const sky::storage::ClientContext& ctx,
                     sky::storage::PutCallback callback) {
  const uint64_t id = static_cast<uint64_t>(++counters_.calls);
  const int64_t bytes = data.size();
  const bool fabric = ctx.fabric != nullptr && ctx.nic != nullptr &&
                      bytes >= inner_->options().min_fabric_bytes;
  const bool shuffle = HasPrefix(key, "shuffle/");
  Scope scope(trace_, Layer::kStorageCall, id);
  inner_->Put(key, std::move(data), ctx,
              [this, id, bytes, fabric, shuffle,
               callback = std::move(callback)](sky::Status status) {
                ++counters_.completions;
                if (status.ok()) {
                  counters_.write_bytes += bytes;
                  if (shuffle) counters_.shuffle_bytes += bytes;
                  if (fabric) {
                    ++counters_.transfers;
                    counters_.transfer_bytes += bytes;
                  }
                } else {
                  ++counters_.failed;
                }
                Scope inner_scope(trace_, completion_layer_, id);
                callback(std::move(status));
              });
}

void TimedPlatform::Invoke(const std::string& function, sky::Json payload,
                           sky::faas::ResponseCallback callback) {
  const uint64_t id = static_cast<uint64_t>(++counters_.invocations);
  // Coordinator invocations come from the serving frontend; every other
  // function is invoked by the engine's coordinator or invoker.
  const bool query = function == sky::engine::kCoordinatorFunction;
  sky::faas::ResponseCallback wrapped;
  if (query) {
    QueryTiming timing;
    timing.query_id = payload.GetString("query_id");
    timing.invoked = env_->now();
    wrapped = [this, id, timing, callback = std::move(callback)](
                  sky::Result<sky::Json> result) mutable {
      timing.completed = env_->now();
      timing.ok = result.ok();
      ++counters_.queries;
      if (result.ok()) counters_.batches += result->GetInt("total_batches");
      queries_.push_back(std::move(timing));
      Scope scope(trace_, Layer::kServingCallback, id);
      callback(std::move(result));
    };
  } else {
    wrapped = [this, id, callback = std::move(callback)](
                  sky::Result<sky::Json> result) {
      Scope scope(trace_, Layer::kEngineCallback, id);
      callback(std::move(result));
    };
  }
  Scope scope(trace_, Layer::kFaasCall, id);
  inner_->Invoke(function, std::move(payload), std::move(wrapped));
}

sky::Status TimedPlatform::WrapHandlers(
    const sky::faas::FunctionRegistry& deployed,
    sky::faas::FunctionRegistry* target) {
  for (const char* name :
       {sky::engine::kCoordinatorFunction, sky::engine::kWorkerFunction,
        sky::engine::kInvokerFunction}) {
    sky::faas::FunctionRegistry::Entry entry;
    SKYRISE_ASSIGN_OR_RETURN(entry, deployed.Find(name));
    const bool worker = std::string(name) == sky::engine::kWorkerFunction;
    auto handler = std::make_shared<sky::faas::FunctionHandler>(
        std::move(entry.handler));
    SKYRISE_RETURN_IF_ERROR(target->Register(
        entry.config,
        [this, worker, handler](
            const std::shared_ptr<sky::faas::FunctionContext>& context) {
          const uint64_t run = static_cast<uint64_t>(++counters_.handlers);
          if (worker) ++counters_.worker_handlers;
          Scope scope(trace_, Layer::kEngineHandler, run);
          (*handler)(context);
        }));
  }
  return sky::Status::OK();
}

}  // namespace hostbench
