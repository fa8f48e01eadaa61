#include "engine/plan.h"

#include <gtest/gtest.h>

#include "engine/queries.h"

namespace skyrise::engine {
namespace {

TEST(PlanTest, AllSuitePlansRoundTripThroughJson) {
  for (const auto& plan : BuildQuerySuite()) {
    const std::string text = plan.ToJson().Dump();
    auto parsed_json = Json::Parse(text);
    ASSERT_TRUE(parsed_json.ok()) << plan.query_name;
    auto parsed = QueryPlan::FromJson(*parsed_json);
    ASSERT_TRUE(parsed.ok()) << plan.query_name;
    EXPECT_EQ(parsed->query_name, plan.query_name);
    EXPECT_EQ(parsed->pipelines.size(), plan.pipelines.size());
    EXPECT_EQ(parsed->ToJson().Dump(), text) << plan.query_name;
  }
}

TEST(PlanTest, SuiteShapes) {
  auto q6 = BuildTpchQ6();
  EXPECT_EQ(q6.pipelines.size(), 2u);  // Scan+partial, final.
  auto q1 = BuildTpchQ1();
  EXPECT_EQ(q1.pipelines.size(), 2u);
  auto q12 = BuildTpchQ12();
  EXPECT_EQ(q12.pipelines.size(), 4u);  // Two scans, join, final.
  auto bb = BuildTpcxBbQ3();
  EXPECT_EQ(bb.pipelines.size(), 3u);  // Map, sessionize, reduce.
}

TEST(PlanTest, Q12JoinIsCoPartitioned) {
  QuerySuiteOptions options;
  options.join_partitions = 16;
  auto q12 = BuildTpchQ12(options);
  int lineitem_parts = 0, orders_parts = 0;
  for (const auto& pipeline : q12.pipelines) {
    for (const auto& op : pipeline.ops) {
      if (op.op != "partition_write") continue;
      if (pipeline.id == 1) lineitem_parts = op.partition_count;
      if (pipeline.id == 2) orders_parts = op.partition_count;
    }
  }
  EXPECT_EQ(lineitem_parts, 16);
  EXPECT_EQ(orders_parts, 16);
}

TEST(PlanTest, FindPipeline) {
  auto q12 = BuildTpchQ12();
  EXPECT_NE(q12.FindPipeline(3), nullptr);
  EXPECT_EQ(q12.FindPipeline(3)->id, 3);
  EXPECT_EQ(q12.FindPipeline(99), nullptr);
}

TEST(PlanTest, ShuffleAndResultKeys) {
  EXPECT_EQ(ShuffleKey("q6", 1, 2, 3), "shuffle/q6/p1/f00002/part-00003.cof");
  EXPECT_EQ(ResultKey("q6"), "results/q6/final.cof");
}

TEST(PlanTest, PushdownSelectivityPreserved) {
  auto q6 = BuildTpchQ6();
  const auto& input = q6.pipelines[0].inputs[0];
  EXPECT_NE(input.pushdown, nullptr);
  EXPECT_NEAR(input.pushdown_selectivity, 0.125, 1e-9);
  auto round = QueryPlan::FromJson(q6.ToJson()).ValueOrDie();
  EXPECT_NEAR(round.pipelines[0].inputs[0].pushdown_selectivity, 0.125, 1e-9);
}

/// The decoders below once aborted on these inputs (a failed check in
/// Json::AsArray or AsString); each is now a typed error.
void ExpectInvalidArgument(const Status& status, const char* what) {
  ASSERT_FALSE(status.ok()) << what;
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << what;
}

TEST(PlanTest, RegressionEmptyPlanIsInvalidArgument) {
  ExpectInvalidArgument(QueryPlan::FromJson(Json::Object()).status(),
                        "no pipelines");
  Json plan = BuildTpchQ6().ToJson();
  plan["pipelines"] = "p0";
  ExpectInvalidArgument(QueryPlan::FromJson(plan).status(),
                        "pipelines not an array");
}

TEST(PlanTest, RegressionPipelineWithoutInputsIsInvalidArgument) {
  const Json good = BuildTpchQ6().pipelines[0].ToJson();
  ASSERT_TRUE(PipelineSpec::FromJson(good).ok());
  for (const char* key : {"inputs", "ops"}) {
    Json pipeline = Json::Parse(good.Dump()).ValueOrDie();
    pipeline.AsObject().erase(key);
    ExpectInvalidArgument(PipelineSpec::FromJson(pipeline).status(), key);
  }
  Json pipeline = Json::Parse(good.Dump()).ValueOrDie();
  pipeline["depends_on"] = Json::Array();
  pipeline["depends_on"].Append("p1");
  ExpectInvalidArgument(PipelineSpec::FromJson(pipeline).status(),
                        "non-number dependency");
}

TEST(PlanTest, RegressionNonStringColumnIsInvalidArgument) {
  Json input = BuildTpchQ6().pipelines[0].inputs[0].ToJson();
  ASSERT_TRUE(InputSpec::FromJson(input).ok());
  input["columns"].Append(7);
  ExpectInvalidArgument(InputSpec::FromJson(input).status(),
                        "non-string column");
  input["columns"] = "l_quantity";
  ExpectInvalidArgument(InputSpec::FromJson(input).status(),
                        "columns not an array");
}

TEST(PlanTest, RegressionMistypedOperatorFieldsAreInvalidArgument) {
  QuerySuiteOptions options;
  const QueryPlan q12 = BuildTpchQ12(options);
  // An operator of each shape: projections, aggregates, sort.
  std::vector<Json> ops;
  for (const auto& pipeline : q12.pipelines) {
    for (const auto& op : pipeline.ops) ops.push_back(op.ToJson());
  }
  OperatorSpec sort;
  sort.op = "sort";
  sort.sort_keys = {"l_shipmode"};
  sort.sort_ascending = {true};
  ops.push_back(sort.ToJson());
  int checked = 0;
  for (const Json& good : ops) {
    ASSERT_TRUE(OperatorSpec::FromJson(good).ok());
    for (const char* key : {"projections", "aggregates", "sort_ascending",
                            "group_by", "partition_keys"}) {
      if (!good.Has(key)) continue;
      Json op = Json::Parse(good.Dump()).ValueOrDie();
      op[key] = 1;
      ExpectInvalidArgument(OperatorSpec::FromJson(op).status(), key);
      ++checked;
    }
  }
  EXPECT_GE(checked, 5);
  Json op = sort.ToJson();
  op["sort_ascending"].AsArray()[0] = "asc";
  ExpectInvalidArgument(OperatorSpec::FromJson(op).status(),
                        "non-bool sort_ascending");
}

}  // namespace
}  // namespace skyrise::engine
