#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "datagen/dataset.h"
#include "datagen/tpch.h"
#include "engine/engine.h"
#include "engine/queries.h"
#include "engine/reference.h"
#include "storage/object_store.h"

namespace skyrise::engine {
namespace {

/// Passes every invocation on to `inner`, except that an invoker answers
/// `answer` without running: by default `{}`, a response without its
/// "responses" list.
class MuteInvokerPlatform : public faas::ComputePlatform {
 public:
  MuteInvokerPlatform(sim::SimEnvironment* env, faas::ComputePlatform* inner,
                      Json answer = Json::Object())
      : env_(env), inner_(inner), answer_(std::move(answer)) {}

  void Invoke(const std::string& function, Json payload,
              faas::ResponseCallback callback) override {
    if (function != kInvokerFunction) {
      inner_->Invoke(function, std::move(payload), std::move(callback));
      return;
    }
    ++invoker_calls_;
    env_->Schedule(Millis(1), [this, callback = std::move(callback)] {
      callback(answer_);
    });
  }
  const std::string& platform_name() const override {
    return inner_->platform_name();
  }
  int invoker_calls() const { return invoker_calls_; }

 private:
  sim::SimEnvironment* env_;
  faas::ComputePlatform* inner_;
  Json answer_;
  int invoker_calls_ = 0;
};

/// Passes every invocation on to `inner`; each invoker answer gains a
/// repeat of its first response and a response for a fragment outside its
/// batch.
class TamperingInvokerPlatform : public faas::ComputePlatform {
 public:
  explicit TamperingInvokerPlatform(faas::ComputePlatform* inner)
      : inner_(inner) {}

  void Invoke(const std::string& function, Json payload,
              faas::ResponseCallback callback) override {
    if (function != kInvokerFunction) {
      inner_->Invoke(function, std::move(payload), std::move(callback));
      return;
    }
    inner_->Invoke(function, std::move(payload),
                   [callback = std::move(callback)](Result<Json> r) {
                     if (!r.ok()) {
                       callback(std::move(r));
                       return;
                     }
                     callback(Tampered(*r));
                   });
  }
  const std::string& platform_name() const override {
    return inner_->platform_name();
  }

 private:
  static Json Tampered(const Json& answer) {
    const JsonArray& responses = answer.Get("responses").AsArray();
    if (responses.empty()) return answer;
    // The answer's arrays may be shared: build new ones.
    Json list = Json::Array();
    int64_t lowest = responses[0].GetInt("fragment");
    int64_t highest = lowest;
    for (const Json& response : responses) {
      list.Append(response);
      lowest = std::min(lowest, response.GetInt("fragment"));
      highest = std::max(highest, response.GetInt("fragment"));
    }
    list.Append(responses[0]);
    Json outsider = Json::Object();
    for (const auto& [key, value] : responses[0].AsObject()) {
      outsider[key] = value;
    }
    outsider["fragment"] = lowest > 0 ? lowest - 1 : highest + 1;
    list.Append(std::move(outsider));
    Json tampered = Json::Object();
    for (const auto& [key, value] : answer.AsObject()) tampered[key] = value;
    tampered["responses"] = std::move(list);
    return tampered;
  }

  faas::ComputePlatform* inner_;
};

/// Engine tasks live exactly as long as a storage or invoke callback holding
/// them is pending. Every handler records a weak reference to its
/// invocation's FunctionContext (which the coordinator, worker and invoker
/// tasks own); once the environment drains, a context that is still alive
/// means a task owns itself through a continuation cycle.
class TaskLifetimeTest : public ::testing::Test {
 protected:
  static constexpr int kPartitions = 6;

  TaskLifetimeTest()
      : fabric_driver_(&env_, &fabric_),
        store_(&env_, storage::ObjectStore::StandardOptions()),
        queue_(&env_) {
    tpch_.scale_factor = 0.002;
    SKYRISE_CHECK_OK(
        datagen::UploadDataset(
            &store_, "lineitem", datagen::LineitemSchema(), kPartitions,
            [&](int p) {
              return datagen::GenerateLineitemPartition(tpch_, p, kPartitions);
            })
            .status());
    SKYRISE_CHECK_OK(
        datagen::UploadDataset(
            &store_, "orders", datagen::OrdersSchema(), kPartitions,
            [&](int p) {
              return datagen::GenerateOrdersPartition(tpch_, p, kPartitions);
            })
            .status());

    EngineContext context;
    context.env = &env_;
    context.table_store = &store_;
    context.shuffle_store = &store_;
    context.catalog = &catalog_;
    context.queue = &queue_;
    context.meter = &meter_;
    context.partitions_per_worker = 2;
    engine_ = std::make_unique<QueryEngine>(std::move(context));

    // Deploy into a staging registry, then register every function behind
    // a wrapper that records its invocation's context.
    faas::FunctionRegistry staging;
    SKYRISE_CHECK_OK(engine_->Deploy(&staging));
    for (const char* name :
         {kCoordinatorFunction, kWorkerFunction, kInvokerFunction}) {
      Result<faas::FunctionRegistry::Entry> entry = staging.Find(name);
      SKYRISE_CHECK_OK(entry.status());
      SKYRISE_CHECK_OK(registry_.Register(
          entry->config,
          [this, handler = entry->handler](
              const std::shared_ptr<faas::FunctionContext>& fctx) {
            invocations_.push_back({fctx->config().name, fctx});
            handler(fctx);
          }));
    }

    faas::LambdaPlatform::Options lambda_options;
    lambda_options.account_concurrency = 10000;
    lambda_ = std::make_unique<faas::LambdaPlatform>(
        &env_, &fabric_driver_, &registry_, lambda_options);
  }

  /// Runs Q12 on `platform` (Lambda when null) to completion, drains the
  /// environment, and checks the result against the reference
  /// implementation. Stores the stage summaries in `stages` when given.
  void RunQ12AndCheck(const std::string& id,
                      faas::ComputePlatform* platform = nullptr,
                      Json* stages = nullptr) {
    QuerySuiteOptions options;
    options.join_partitions = 4;
    Result<QueryResponse> outcome = Status::Internal("did not complete");
    engine_->Run(platform != nullptr ? platform : lambda_.get(),
                 BuildTpchQ12(options), id,
                 [&](Result<QueryResponse> r) { outcome = std::move(r); });
    env_.Run();
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    // Four stages: lineitem scan, orders scan, join, final.
    EXPECT_EQ(outcome->raw.Get("stages").size(), 4u);
    if (stages != nullptr) *stages = outcome->raw.Get("stages");

    auto result = engine_->FetchResult(id);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    data::Chunk lineitem = datagen::GenerateLineitemPartition(tpch_, 0,
                                                              kPartitions);
    data::Chunk orders = datagen::GenerateOrdersPartition(tpch_, 0,
                                                          kPartitions);
    for (int p = 1; p < kPartitions; ++p) {
      lineitem.Append(
          datagen::GenerateLineitemPartition(tpch_, p, kPartitions));
      orders.Append(datagen::GenerateOrdersPartition(tpch_, p, kPartitions));
    }
    const auto reference = ReferenceQ12(lineitem, orders);
    ASSERT_EQ(result->rows(), static_cast<int64_t>(reference.size()));
    for (size_t g = 0; g < reference.size(); ++g) {
      EXPECT_EQ(result->column("l_shipmode").strings()[g],
                reference[g].shipmode);
      EXPECT_NEAR(result->column("high_line_count").doubles()[g],
                  static_cast<double>(reference[g].high_line_count), 0.1);
      EXPECT_NEAR(result->column("low_line_count").doubles()[g],
                  static_cast<double>(reference[g].low_line_count), 0.1);
    }
  }

  /// Invocations recorded for `function`.
  int Invocations(const std::string& function) const {
    int count = 0;
    for (const Invocation& invocation : invocations_) {
      if (invocation.function == function) ++count;
    }
    return count;
  }

  /// Functions whose invocation context is still alive.
  std::vector<std::string> LiveContexts() const {
    std::vector<std::string> live;
    for (const Invocation& invocation : invocations_) {
      if (!invocation.context.expired()) live.push_back(invocation.function);
    }
    return live;
  }

  struct Invocation {
    std::string function;
    std::weak_ptr<faas::FunctionContext> context;
  };

  sim::SimEnvironment env_{2024};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  storage::ObjectStore store_;
  storage::QueueService queue_;
  format::SyntheticFileCatalog catalog_;
  pricing::CostMeter meter_;
  faas::FunctionRegistry registry_;
  datagen::TpchConfig tpch_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<faas::LambdaPlatform> lambda_;
  std::vector<Invocation> invocations_;
};

TEST_F(TaskLifetimeTest, Q12ReleasesEveryTask) {
  RunQ12AndCheck("q12");
  EXPECT_EQ(Invocations(kCoordinatorFunction), 1);
  EXPECT_GT(Invocations(kWorkerFunction), 0);
  EXPECT_EQ(Invocations(kInvokerFunction), 0);
  EXPECT_EQ(LiveContexts(), std::vector<std::string>{});
}

TEST_F(TaskLifetimeTest, TwoLevelDispatchMatchesReferenceAndReleasesTasks) {
  // Every stage fans out through invokers, two fragments per invoker.
  engine_->context()->two_level_threshold = 2;
  engine_->context()->invoker_fanout = 2;
  RunQ12AndCheck("q12-two-level");
  EXPECT_GT(Invocations(kInvokerFunction), 0);
  EXPECT_GT(Invocations(kWorkerFunction), Invocations(kInvokerFunction));
  EXPECT_EQ(LiveContexts(), std::vector<std::string>{});
}

TEST_F(TaskLifetimeTest, RegressionInvokerWithoutResponsesRetriesFragments) {
  // An invoker response without its "responses" list once aborted the
  // process. Now every fragment of the batch fails with InvalidArgument,
  // as when the invoker dies, and is retried on its own.
  engine_->context()->two_level_threshold = 2;
  engine_->context()->invoker_fanout = 2;
  MuteInvokerPlatform platform(&env_, lambda_.get());
  Json stages;
  RunQ12AndCheck("q12-mute-invoker", &platform, &stages);
  EXPECT_GT(platform.invoker_calls(), 0);
  EXPECT_EQ(Invocations(kInvokerFunction), 0);
  for (const Json& stage : stages.AsArray()) {
    const int64_t fragments = stage.GetInt("fragments");
    if (fragments < 2) continue;  // Dispatched directly.
    EXPECT_EQ(stage.GetInt("worker_errors"), fragments);
    EXPECT_EQ(stage.GetInt("retries"), fragments);
  }
  // With no attempt left to retry, the query fails with that error.
  engine_->context()->worker_max_attempts = 1;
  QuerySuiteOptions options;
  options.join_partitions = 4;
  Result<QueryResponse> outcome = Status::Internal("did not complete");
  engine_->Run(&platform, BuildTpchQ12(options), "q12-mute-invoker-once",
               [&](Result<QueryResponse> r) { outcome = std::move(r); });
  env_.Run();
  ASSERT_FALSE(outcome.ok());
  EXPECT_NE(outcome.status().ToString().find(
                "InvalidArgument: invoker response lacks responses"),
            std::string::npos)
      << outcome.status().ToString();
  EXPECT_EQ(LiveContexts(), std::vector<std::string>{});
}

TEST_F(TaskLifetimeTest, RegressionEmptyInvokerResponsesRetryEachMember) {
  // An invoker that answered {"responses": []} once left every member of
  // its batch waiting until speculation relaunched it, about 12 s per
  // stage. Now each unanswered member fails at once and retries.
  engine_->context()->two_level_threshold = 2;
  engine_->context()->invoker_fanout = 2;
  Json empty = Json::Object();
  empty["responses"] = Json::Array();
  MuteInvokerPlatform platform(&env_, lambda_.get(), std::move(empty));
  Json stages;
  RunQ12AndCheck("q12-empty-invoker", &platform, &stages);
  EXPECT_GT(platform.invoker_calls(), 0);
  int two_level = 0;
  for (const Json& stage : stages.AsArray()) {
    const int64_t fragments = stage.GetInt("fragments");
    if (fragments < 2) continue;  // Dispatched directly.
    ++two_level;
    EXPECT_EQ(stage.GetInt("worker_errors"), fragments);
    EXPECT_EQ(stage.GetInt("retries"), fragments);
    EXPECT_EQ(stage.GetInt("speculative"), 0);
    EXPECT_LT(stage.GetDouble("runtime_ms"), 2000);
  }
  EXPECT_GT(two_level, 0);
  EXPECT_EQ(LiveContexts(), std::vector<std::string>{});
}

/// Q12 through invokers, two fragments each, on a fixture of its own.
class TwoLevelQ12 : public TaskLifetimeTest {
 public:
  void TestBody() override {}

  /// The stage summaries of a run whose invoker answers are tampered with
  /// when `tamper` is set.
  Json Stages(bool tamper) {
    engine_->context()->two_level_threshold = 2;
    engine_->context()->invoker_fanout = 2;
    TamperingInvokerPlatform tampering(lambda_.get());
    Json stages;
    RunQ12AndCheck("q12-two-level", tamper ? &tampering : nullptr, &stages);
    EXPECT_GT(Invocations(kInvokerFunction), 0);
    return stages;
  }
};

TEST(InvokerResponseTest, RepeatsAndOutsidersAreIgnored) {
  // A repeated response, and one for a fragment of another batch, once
  // reached the coordinator as outcomes of their fragments.
  TwoLevelQ12 plain;
  TwoLevelQ12 tampered;
  const Json expected = plain.Stages(false);
  const Json actual = tampered.Stages(true);
  EXPECT_EQ(actual.Dump(), expected.Dump());
  for (const Json& stage : actual.AsArray()) {
    EXPECT_EQ(stage.GetInt("worker_errors"), 0);
    EXPECT_EQ(stage.GetInt("speculative"), 0);
  }
}

}  // namespace
}  // namespace skyrise::engine
