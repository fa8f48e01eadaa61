#pragma once

#include <string>
#include <utility>
#include <vector>

#include "engine/expression.h"

/// \file plan.h
/// Physical query plans, exchanged as JSON between the driver, coordinator,
/// and workers (the paper's coordinator protocol). A plan is a DAG of
/// pipelines; each pipeline streams one input through a linear chain of
/// vectorized operators and terminates in either a shuffle write or the
/// final result. Additional inputs (e.g., a hash-join build side) are fully
/// materialized before streaming starts.
///
/// The coordinator parses its payload's plan once. Worker payloads carry
/// their pipeline's JSON from that payload, shared rather than rebuilt, and
/// a worker takes the parsed PipelineSpec from the coordinator's grant
/// (engine::EngineContext::QueryGrants); only a worker that outlived its
/// coordinator parses its payload (DESIGN.md §12.7). The decoders return
/// InvalidArgument for a missing or mistyped field they require.
///
/// Operators carry *synthetic-mode hints* (selectivity, group counts, join
/// multipliers) so paper-scale runs over synthetic data propagate realistic
/// cardinalities through the identical execution code.

namespace skyrise::engine {

struct InputSpec {
  enum class Type { kTable, kShuffle };
  Type type = Type::kTable;
  std::string table;                  ///< kTable: dataset name.
  std::vector<std::string> columns;   ///< kTable: projection pushdown.
  ExprPtr pushdown;                   ///< kTable: selection pushdown (opt).
  double pushdown_selectivity = 1.0;  ///< Synthetic hint for `pushdown`.
  int upstream_pipeline = -1;         ///< kShuffle.

  Json ToJson() const;
  [[nodiscard]] static Result<InputSpec> FromJson(const Json& json);
};

struct AggregateSpec {
  std::string func;  ///< "sum", "count", "min", "max".
  ExprPtr expr;      ///< Null for count.
  std::string as;
};

struct OperatorSpec {
  /// "filter", "project", "hash_agg", "hash_join", "partition_write",
  /// "sort", "limit", "bb_sessionize".
  std::string op;

  // filter.
  ExprPtr predicate;
  double selectivity = 1.0;

  // project: output column name -> expression.
  std::vector<std::pair<std::string, ExprPtr>> projections;

  // hash_agg.
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
  int64_t groups_hint = 1;

  // hash_join (inner, hash on equality keys).
  std::vector<std::string> probe_keys;
  std::vector<std::string> build_keys;
  std::vector<std::string> build_columns;  ///< Carried from the build side.
  int build_input = 1;                     ///< Index into pipeline inputs.
  double join_multiplier = 1.0;

  // partition_write.
  std::vector<std::string> partition_keys;
  int partition_count = 1;

  // sort / limit.
  std::vector<std::string> sort_keys;
  std::vector<bool> sort_ascending;
  int64_t limit = -1;

  // bb_sessionize (TPCx-BB Q3 UDF): for each purchase of an item in the
  // target category, count views of same-category items by the same user in
  // the preceding window.
  int64_t session_window_days = 10;
  int64_t target_category = 1;
  double udf_output_ratio = 0.05;

  Json ToJson() const;
  [[nodiscard]] static Result<OperatorSpec> FromJson(const Json& json);
};

struct PipelineSpec {
  int id = 0;
  std::vector<InputSpec> inputs;  ///< inputs[0] streams; others are builds.
  std::vector<OperatorSpec> ops;
  std::vector<int> depends_on;

  Json ToJson() const;
  [[nodiscard]] static Result<PipelineSpec> FromJson(const Json& json);
};

struct QueryPlan {
  std::string query_name;
  std::vector<PipelineSpec> pipelines;

  Json ToJson() const;
  [[nodiscard]] static Result<QueryPlan> FromJson(const Json& json);

  const PipelineSpec* FindPipeline(int id) const;
};

/// Storage key of a shuffle partition object:
/// shuffle/<query_id>/p<pipeline>/f<fragment>/part-<partition>.cof
std::string ShuffleKey(const std::string& query_id, int pipeline, int fragment,
                       int partition);
/// Storage key of the final query result.
std::string ResultKey(const std::string& query_id);

}  // namespace skyrise::engine
