#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.h"
#include "data/chunk.h"
#include "data/chunk_pool.h"
#include "engine/memory_tracker.h"
#include "engine/plan.h"

/// \file executor.h
/// In-worker execution of one pipeline fragment as a push-based morsel
/// pipeline: the streamed input arrives in fixed-size row batches (morsels)
/// that flow through the operator chain batch-at-a-time. Streaming operators
/// (filter, project, join probe, limit, partition) transform each morsel in
/// place; pipeline breakers (hash_agg, sort, bb_sessionize) accumulate
/// explicit state that a MemoryTracker accounts, and emit on Finish().
/// Execution is pure compute — independent of the simulation — and accounts
/// its CPU cost in a deterministic model so FaaS/IaaS timing comparisons are
/// reproducible. Results are bit-identical across batch sizes: per-row cost
/// terms and per-row accumulation order do not depend on where morsel
/// boundaries fall.
///
/// Synthetic chunks flow through the same operators: cardinalities propagate
/// via the plan's hints, schemas and byte sizes stay correct, and the CPU
/// model charges the same per-row costs. Because synthetic cardinality hints
/// are nonlinear (rounding, group caps), a pipeline that receives a synthetic
/// morsel accumulates its input and executes once on Finish().

namespace skyrise::engine {

/// Deterministic per-operator CPU costs (single-core ns), divided by the
/// worker's vCPU count for wall time.
struct CostModel {
  double decode_ns_per_byte = 1.0;   ///< ~1 GB/s/core ZSTD-class decode.
  double encode_ns_per_byte = 0.80;
  double filter_ns_per_row = 6;
  double project_ns_per_row_col = 3;
  double agg_ns_per_row = 14;
  double join_build_ns_per_row = 28;
  double join_probe_ns_per_row = 18;
  double partition_ns_per_row = 10;
  double sort_ns_per_row_log = 8;
  double udf_ns_per_row = 40;
};

class CostAccumulator {
 public:
  explicit CostAccumulator(const CostModel& model = CostModel())
      : model_(model) {}
  void AddNs(double ns) { ns_ += ns; }
  double ns() const { return ns_; }
  const CostModel& model() const { return model_; }
  /// Wall-clock duration on `vcpus` cores (operators parallelize across the
  /// worker's cores in the vectorized model). Rounded to the nearest
  /// microsecond — not floored — so many small batches cost the same as one
  /// large batch when charged via cumulative deltas.
  SimDuration Duration(int vcpus) const {
    return static_cast<SimDuration>(
        std::llround(ns_ / 1000.0 / std::max(1, vcpus)));
  }
  void Reset() { ns_ = 0; }

 private:
  CostModel model_;
  double ns_ = 0;
};

/// One produced output: shuffle partition id (or -1 for the terminal result)
/// and its rows.
struct FragmentOutput {
  int partition = -1;
  data::Chunk chunk;
};

/// Push-based streaming execution of one pipeline fragment. Build-side
/// inputs must be fully materialized up front (`builds[i]` corresponds to
/// pipeline input i+1); the streamed input is then fed morsel-by-morsel via
/// Push() and finalized with Finish().
///
/// `morsel_rows` selects the batching strategy:
///   > 0  — incoming chunks are re-sliced into morsels of at most that many
///          rows before entering the operator chain;
///   == 0 — incoming chunks pass through at their natural granularity
///          (typically one decoded row group each);
///   < 0  — whole-fragment mode: the entire stream is accumulated and
///          executed as a single batch on Finish() (the seed's materialized
///          semantics, also used as the reference in equivalence tests).
///
/// `pool` optionally supplies a data::ChunkPool for recycling morsel buffers
/// between operator hops (spent inputs are donated back after each hop, and
/// filter/slice outputs are acquired from it). Pass the worker's per-task
/// pool to share capacity across pipelines; when null the pipeline uses a
/// private pool. Pooling changes allocation behavior only — operator results
/// are bit-identical with or without it.
class FragmentPipeline {
 public:
  FragmentPipeline(const PipelineSpec& pipeline,
                   std::vector<data::Chunk> builds, CostAccumulator* cost,
                   MemoryTracker* memory = nullptr, int64_t morsel_rows = 0,
                   data::ChunkPool* pool = nullptr);
  ~FragmentPipeline();
  FragmentPipeline(const FragmentPipeline&) = delete;
  FragmentPipeline& operator=(const FragmentPipeline&) = delete;

  /// Feeds the next batch of the streamed input through the operator chain.
  [[nodiscard]] Status Push(data::Chunk&& morsel);

  /// Ends the stream: flushes pipeline breakers in operator order and
  /// returns the fragment outputs. Call exactly once, after the last Push.
  [[nodiscard]] Result<std::vector<FragmentOutput>> Finish();

  /// Number of morsels that entered the operator chain.
  int64_t batches() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Executes `pipeline`'s operator chain over a fully materialized (or
/// synthetic) streamed input and the fully-built side inputs, as a single
/// batch. Thin wrapper over FragmentPipeline in whole-fragment mode.
[[nodiscard]] Result<std::vector<FragmentOutput>> ExecuteFragment(
    const PipelineSpec& pipeline, data::Chunk&& stream,
    std::vector<data::Chunk> builds, CostAccumulator* cost);

/// The filter of the filter operator and of scan workers' per-row-group
/// predicate pushdown. Charges the filter cost per input row, compiles the
/// predicate against the first materialized input's schema, and gathers the
/// surviving rows into a chunk from `pool`. Apply donates the spent input
/// back to the pool, and passes a chunk whose rows all survive through
/// uncopied. Synthetic chunks keep round(rows * selectivity) rows.
class FilterKernel {
 public:
  FilterKernel(ExprPtr predicate, double selectivity, CostAccumulator* cost,
               data::ChunkPool* pool)
      : predicate_(std::move(predicate)),
        selectivity_(selectivity),
        cost_(cost),
        pool_(pool) {}

  [[nodiscard]] Result<data::Chunk> Apply(data::Chunk&& in);

  /// Apply without consuming: `columns`, `rows` rows of `schema` that no
  /// chunk holds (a scan's memoised decoded columns), are only read, and
  /// the survivors are gathered even when every row survives.
  [[nodiscard]] Result<data::Chunk> Gather(
      const data::Schema& schema, const ExprKernel::ColumnRefs& columns,
      size_t rows);

 private:
  /// Compiles the predicate against `schema` on first use.
  [[nodiscard]] Status Compile(const data::Schema& schema);

  ExprPtr predicate_;
  double selectivity_;
  CostAccumulator* cost_;
  data::ChunkPool* pool_;
  std::optional<ExprKernel> kernel_;
  std::vector<uint32_t> selection_;
};

}  // namespace skyrise::engine
