#include "engine/plan.h"

#include "common/string_util.h"

namespace skyrise::engine {

namespace {

Json StringsToJson(const std::vector<std::string>& values) {
  Json out = Json::Array();
  for (const auto& v : values) out.Append(v);
  return out;
}

/// A list of strings; a missing list reads as empty.
Result<std::vector<std::string>> StringsFromJson(const Json& json,
                                                 const char* what) {
  std::vector<std::string> out;
  if (json.is_null()) return out;
  if (!json.is_array()) {
    return Status::InvalidArgument(StrFormat("%s is not an array", what));
  }
  for (const auto& v : json.AsArray()) {
    if (!v.is_string()) {
      return Status::InvalidArgument(
          StrFormat("%s has a non-string element", what));
    }
    out.push_back(v.AsString());
  }
  return out;
}

/// The array under `key`, or InvalidArgument naming it.
Result<const JsonArray*> ArrayMember(const Json& json, const char* key) {
  const Json& value = json.Get(key);
  if (!value.is_array()) {
    return Status::InvalidArgument(StrFormat("plan lacks %s", key));
  }
  return &value.AsArray();
}

}  // namespace

Json InputSpec::ToJson() const {
  Json out = Json::Object();
  out["type"] = type == Type::kTable ? "table" : "shuffle";
  if (type == Type::kTable) {
    out["table"] = table;
    out["columns"] = StringsToJson(columns);
    if (pushdown) out["pushdown"] = pushdown->ToJson();
    out["pushdown_selectivity"] = pushdown_selectivity;
  } else {
    out["upstream_pipeline"] = upstream_pipeline;
  }
  return out;
}

Result<InputSpec> InputSpec::FromJson(const Json& json) {
  InputSpec spec;
  spec.type = json.GetString("type") == "shuffle" ? Type::kShuffle
                                                  : Type::kTable;
  spec.table = json.GetString("table");
  SKYRISE_ASSIGN_OR_RETURN(spec.columns,
                           StringsFromJson(json.Get("columns"), "columns"));
  if (json.Has("pushdown")) {
    SKYRISE_ASSIGN_OR_RETURN(spec.pushdown,
                             Expr::FromJson(json.Get("pushdown")));
  }
  spec.pushdown_selectivity = json.GetDouble("pushdown_selectivity", 1.0);
  spec.upstream_pipeline =
      static_cast<int>(json.GetInt("upstream_pipeline", -1));
  return spec;
}

Json OperatorSpec::ToJson() const {
  Json out = Json::Object();
  out["op"] = op;
  if (predicate) out["predicate"] = predicate->ToJson();
  out["selectivity"] = selectivity;
  if (!projections.empty()) {
    Json projs = Json::Array();
    for (const auto& [name, expr] : projections) {
      Json p = Json::Object();
      p["name"] = name;
      p["expr"] = expr->ToJson();
      projs.Append(std::move(p));
    }
    out["projections"] = std::move(projs);
  }
  if (!group_by.empty()) out["group_by"] = StringsToJson(group_by);
  if (!aggregates.empty()) {
    Json aggs = Json::Array();
    for (const auto& agg : aggregates) {
      Json a = Json::Object();
      a["func"] = agg.func;
      if (agg.expr) a["expr"] = agg.expr->ToJson();
      a["as"] = agg.as;
      aggs.Append(std::move(a));
    }
    out["aggregates"] = std::move(aggs);
  }
  out["groups_hint"] = groups_hint;
  if (!probe_keys.empty()) {
    out["probe_keys"] = StringsToJson(probe_keys);
    out["build_keys"] = StringsToJson(build_keys);
    out["build_columns"] = StringsToJson(build_columns);
    out["build_input"] = build_input;
    out["join_multiplier"] = join_multiplier;
  }
  if (!partition_keys.empty() || op == "partition_write") {
    out["partition_keys"] = StringsToJson(partition_keys);
    out["partition_count"] = partition_count;
  }
  if (!sort_keys.empty()) {
    out["sort_keys"] = StringsToJson(sort_keys);
    Json asc = Json::Array();
    for (bool b : sort_ascending) asc.Append(b);
    out["sort_ascending"] = std::move(asc);
  }
  out["limit"] = limit;
  if (op == "bb_sessionize") {
    out["session_window_days"] = session_window_days;
    out["target_category"] = target_category;
    out["udf_output_ratio"] = udf_output_ratio;
  }
  return out;
}

Result<OperatorSpec> OperatorSpec::FromJson(const Json& json) {
  OperatorSpec spec;
  spec.op = json.GetString("op");
  if (json.Has("predicate")) {
    SKYRISE_ASSIGN_OR_RETURN(spec.predicate,
                             Expr::FromJson(json.Get("predicate")));
  }
  spec.selectivity = json.GetDouble("selectivity", 1.0);
  if (json.Has("projections")) {
    const JsonArray* projections = nullptr;
    SKYRISE_ASSIGN_OR_RETURN(projections, ArrayMember(json, "projections"));
    for (const auto& p : *projections) {
      ExprPtr expr;
      SKYRISE_ASSIGN_OR_RETURN(expr, Expr::FromJson(p.Get("expr")));
      spec.projections.emplace_back(p.GetString("name"), std::move(expr));
    }
  }
  SKYRISE_ASSIGN_OR_RETURN(spec.group_by,
                           StringsFromJson(json.Get("group_by"), "group_by"));
  if (json.Has("aggregates")) {
    const JsonArray* aggregates = nullptr;
    SKYRISE_ASSIGN_OR_RETURN(aggregates, ArrayMember(json, "aggregates"));
    for (const auto& a : *aggregates) {
      AggregateSpec agg;
      agg.func = a.GetString("func");
      if (a.Has("expr")) {
        SKYRISE_ASSIGN_OR_RETURN(agg.expr, Expr::FromJson(a.Get("expr")));
      }
      agg.as = a.GetString("as");
      spec.aggregates.push_back(std::move(agg));
    }
  }
  spec.groups_hint = json.GetInt("groups_hint", 1);
  SKYRISE_ASSIGN_OR_RETURN(
      spec.probe_keys, StringsFromJson(json.Get("probe_keys"), "probe_keys"));
  SKYRISE_ASSIGN_OR_RETURN(
      spec.build_keys, StringsFromJson(json.Get("build_keys"), "build_keys"));
  SKYRISE_ASSIGN_OR_RETURN(
      spec.build_columns,
      StringsFromJson(json.Get("build_columns"), "build_columns"));
  spec.build_input = static_cast<int>(json.GetInt("build_input", 1));
  spec.join_multiplier = json.GetDouble("join_multiplier", 1.0);
  SKYRISE_ASSIGN_OR_RETURN(
      spec.partition_keys,
      StringsFromJson(json.Get("partition_keys"), "partition_keys"));
  spec.partition_count = static_cast<int>(json.GetInt("partition_count", 1));
  SKYRISE_ASSIGN_OR_RETURN(spec.sort_keys,
                           StringsFromJson(json.Get("sort_keys"), "sort_keys"));
  if (json.Has("sort_ascending")) {
    const JsonArray* ascending = nullptr;
    SKYRISE_ASSIGN_OR_RETURN(ascending, ArrayMember(json, "sort_ascending"));
    for (const auto& b : *ascending) {
      if (!b.is_bool()) {
        return Status::InvalidArgument("sort_ascending has a non-bool element");
      }
      spec.sort_ascending.push_back(b.AsBool());
    }
  }
  spec.limit = json.GetInt("limit", -1);
  spec.session_window_days = json.GetInt("session_window_days", 10);
  spec.target_category = json.GetInt("target_category", 1);
  spec.udf_output_ratio = json.GetDouble("udf_output_ratio", 0.05);
  return spec;
}

Json PipelineSpec::ToJson() const {
  Json out = Json::Object();
  out["id"] = id;
  Json ins = Json::Array();
  for (const auto& input : inputs) ins.Append(input.ToJson());
  out["inputs"] = std::move(ins);
  Json op_list = Json::Array();
  for (const auto& op : ops) op_list.Append(op.ToJson());
  out["ops"] = std::move(op_list);
  Json deps = Json::Array();
  for (int d : depends_on) deps.Append(d);
  out["depends_on"] = std::move(deps);
  return out;
}

Result<PipelineSpec> PipelineSpec::FromJson(const Json& json) {
  PipelineSpec spec;
  spec.id = static_cast<int>(json.GetInt("id"));
  const JsonArray* list = nullptr;
  SKYRISE_ASSIGN_OR_RETURN(list, ArrayMember(json, "inputs"));
  for (const auto& input : *list) {
    InputSpec parsed;
    SKYRISE_ASSIGN_OR_RETURN(parsed, InputSpec::FromJson(input));
    spec.inputs.push_back(std::move(parsed));
  }
  SKYRISE_ASSIGN_OR_RETURN(list, ArrayMember(json, "ops"));
  for (const auto& op : *list) {
    OperatorSpec parsed;
    SKYRISE_ASSIGN_OR_RETURN(parsed, OperatorSpec::FromJson(op));
    spec.ops.push_back(std::move(parsed));
  }
  if (json.Has("depends_on")) {
    SKYRISE_ASSIGN_OR_RETURN(list, ArrayMember(json, "depends_on"));
    for (const auto& d : *list) {
      if (!d.is_number()) {
        return Status::InvalidArgument("depends_on has a non-number element");
      }
      spec.depends_on.push_back(static_cast<int>(d.AsInt()));
    }
  }
  return spec;
}

Json QueryPlan::ToJson() const {
  Json out = Json::Object();
  out["query_name"] = query_name;
  Json list = Json::Array();
  for (const auto& pipeline : pipelines) list.Append(pipeline.ToJson());
  out["pipelines"] = std::move(list);
  return out;
}

Result<QueryPlan> QueryPlan::FromJson(const Json& json) {
  QueryPlan plan;
  plan.query_name = json.GetString("query_name");
  const JsonArray* pipelines = nullptr;
  SKYRISE_ASSIGN_OR_RETURN(pipelines, ArrayMember(json, "pipelines"));
  for (const auto& p : *pipelines) {
    PipelineSpec parsed;
    SKYRISE_ASSIGN_OR_RETURN(parsed, PipelineSpec::FromJson(p));
    plan.pipelines.push_back(std::move(parsed));
  }
  return plan;
}

const PipelineSpec* QueryPlan::FindPipeline(int id) const {
  for (const auto& pipeline : pipelines) {
    if (pipeline.id == id) return &pipeline;
  }
  return nullptr;
}

std::string ShuffleKey(const std::string& query_id, int pipeline, int fragment,
                       int partition) {
  return StrFormat("shuffle/%s/p%d/f%05d/part-%05d.cof", query_id.c_str(),
                   pipeline, fragment, partition);
}

std::string ResultKey(const std::string& query_id) {
  return StrFormat("results/%s/final.cof", query_id.c_str());
}

}  // namespace skyrise::engine
