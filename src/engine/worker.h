#pragma once

#include "engine/context.h"

/// \file worker.h
/// The Skyrise query worker function. A worker receives one pipeline
/// fragment, loads its inputs from shared storage (footer fetch, row-group
/// pruning, chunked ranged column reads with straggler re-triggering, or
/// shuffle-partition reads), executes the vectorized operator chain, writes
/// partitioned outputs back to storage, and reports per-phase timings.

namespace skyrise::engine {

/// Builds the worker handler bound to `context`. Register under
/// kWorkerFunction on both platforms.
faas::FunctionHandler MakeWorkerHandler(EngineContext* context);

/// Payload helpers (also used by the coordinator).
struct TableFileAssignment {
  std::string key;
  int64_t size = 0;
};

struct WorkerInputAssignment {
  // Mirrors the pipeline's InputSpec order.
  std::vector<TableFileAssignment> files;  ///< kTable inputs.
  int upstream_fragments = 0;              ///< kShuffle inputs.
};

/// A worker's invocation payload. `pipeline` is the pipeline's JSON from
/// the coordinator's own payload; it is shared, not copied, so neither the
/// payload nor the worker may modify it.
Json WorkerPayload(const std::string& query_id, const Json& pipeline,
                   int fragment,
                   const std::vector<WorkerInputAssignment>& inputs);

}  // namespace skyrise::engine
