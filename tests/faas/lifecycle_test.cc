#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "faas/ec2_fleet.h"
#include "faas/lambda_platform.h"

/// Lifecycle parity: the Lambda platform and the EC2 shim settle an
/// execution the same way. A handler's finish and error, the enforced
/// timeout, a propagated deadline that clamps the timeout, an injected crash,
/// and a handler finishing after its timeout each answer the caller exactly
/// once, with the same counters under the platform's own "<name>.*" metrics
/// and span outcomes on its own track.

namespace skyrise::faas {
namespace {

struct OnLambda {
  using Platform = LambdaPlatform;
  static std::unique_ptr<LambdaPlatform> Make(sim::SimEnvironment* env,
                                              net::FabricDriver* fabric,
                                              FunctionRegistry* registry) {
    return std::make_unique<LambdaPlatform>(env, fabric, registry,
                                            LambdaPlatform::Options());
  }
};

struct OnEc2 {
  using Platform = Ec2Fleet;
  static std::unique_ptr<Ec2Fleet> Make(sim::SimEnvironment* env,
                                        net::FabricDriver* fabric,
                                        FunctionRegistry* registry) {
    auto fleet = std::make_unique<Ec2Fleet>(env, fabric, registry,
                                            Ec2Fleet::Options());
    fleet->Start(nullptr);
    return fleet;
  }
};

/// What the caller saw: how often it was answered, with what, and when.
struct Answer {
  int calls = 0;
  Status status;
  SimTime at = -1;
};

template <typename On>
class LifecycleTest : public ::testing::Test {
 protected:
  LifecycleTest() : fabric_driver_(&env_, &fabric_) {
    // Computes "work_ms", then finishes, or fails when "fail" is set.
    FunctionConfig work;
    work.name = "work";
    SKYRISE_CHECK_OK(registry_.Register(work, [](const auto& ctx) {
      ctx->Compute(Millis(ctx->payload().GetInt("work_ms", 100)), [ctx] {
        if (ctx->payload().GetBool("fail")) {
          ctx->FinishError(Status::InvalidArgument("bad input"));
        } else {
          ctx->Finish(Json::Object());
        }
      });
    }));
    // Outlives its one-second timeout, then finishes anyway.
    FunctionConfig slow;
    slow.name = "slow";
    slow.timeout = Seconds(1);
    SKYRISE_CHECK_OK(registry_.Register(slow, [this](const auto& ctx) {
      ctx->Compute(Seconds(5), [this, ctx] {
        ctx->Finish(Json::Object());
        ++late_finishes_;
      });
    }));
  }

  /// Builds the platform (with the fault injector, when one is set) and
  /// invokes `function` once; the answer lands in answer_.
  void Invoke(const std::string& function, Json payload) {
    platform_ = On::Make(&env_, &fabric_driver_, &registry_);
    platform_->set_observer(&tracer_, &metrics_);
    platform_->set_fault_injector(injector_.get());
    platform_->Invoke(function, std::move(payload), [this](Result<Json> r) {
      ++answer_.calls;
      answer_.status = r.status();
      answer_.at = env_.now();
    });
  }

  int64_t Metric(const std::string& counter) const {
    return metrics_.Counter(platform_->platform_name() + "." + counter);
  }

  /// The span named `name`, which must exist.
  const obs::Span& SpanNamed(const std::string& name) const {
    for (const obs::Span& span : tracer_.spans()) {
      if (tracer_.str(span.name) == name) return span;
    }
    ADD_FAILURE() << "no span " << name;
    return tracer_.spans().front();
  }
  std::string Outcome(const std::string& span) const {
    return std::string(tracer_.str(SpanNamed(span).outcome));
  }

  sim::SimEnvironment env_{17};
  net::Fabric fabric_;
  net::FabricDriver fabric_driver_;
  FunctionRegistry registry_;
  obs::Tracer tracer_{&env_};
  obs::MetricsRegistry metrics_;
  std::unique_ptr<sim::FaultInjector> injector_;
  std::unique_ptr<typename On::Platform> platform_;
  Answer answer_;
  int late_finishes_ = 0;
};

using Platforms = ::testing::Types<OnLambda, OnEc2>;
TYPED_TEST_SUITE(LifecycleTest, Platforms);

TYPED_TEST(LifecycleTest, FinishAnswersOk) {
  this->Invoke("work", Json::Object());
  this->env_.Run();
  EXPECT_EQ(this->answer_.calls, 1);
  EXPECT_TRUE(this->answer_.status.ok()) << this->answer_.status.ToString();
  EXPECT_EQ(this->platform_->stats().errors, 0);
  EXPECT_EQ(this->platform_->stats().timeouts, 0);
  EXPECT_EQ(this->platform_->stats().crashes, 0);
  EXPECT_EQ(this->Outcome("exec work"), "ok");
  EXPECT_EQ(this->Outcome("invoke work"), "ok");
  const Histogram* exec_ms = this->metrics_.Hist(
      this->platform_->platform_name() + ".exec_ms");
  ASSERT_NE(exec_ms, nullptr);
  EXPECT_EQ(exec_ms->count(), 1);
}

TYPED_TEST(LifecycleTest, HandlerErrorIsCounted) {
  Json payload = Json::Object();
  payload["fail"] = true;
  this->Invoke("work", std::move(payload));
  this->env_.Run();
  EXPECT_EQ(this->answer_.calls, 1);
  EXPECT_TRUE(this->answer_.status.IsInvalidArgument());
  EXPECT_EQ(this->answer_.status.message(), "bad input");
  EXPECT_EQ(this->platform_->stats().errors, 1);
  EXPECT_EQ(this->platform_->stats().timeouts, 0);
  EXPECT_EQ(this->Metric("errors"), 1);
  EXPECT_EQ(this->Outcome("exec work"), "error");
  EXPECT_EQ(this->Outcome("invoke work"), "error");
}

TYPED_TEST(LifecycleTest, TimeoutKillsAtTheConfiguredLimit) {
  // A deadline later than the timeout leaves the timeout in charge.
  Json payload = Json::Object();
  payload["deadline_us"] = Hours(1);
  this->Invoke("slow", std::move(payload));
  this->env_.RunUntil(Seconds(4));
  EXPECT_EQ(this->answer_.calls, 1);
  EXPECT_TRUE(this->answer_.status.IsDeadlineExceeded());
  EXPECT_EQ(this->answer_.status.message(), "Task timed out: slow");
  EXPECT_EQ(this->answer_.at - this->SpanNamed("exec slow").start,
            Seconds(1));
  EXPECT_EQ(this->platform_->stats().timeouts, 1);
  EXPECT_EQ(this->platform_->stats().errors, 1);
  EXPECT_EQ(this->Metric("timeouts"), 1);
  EXPECT_EQ(this->Metric("errors"), 1);
  EXPECT_EQ(this->Metric("deadline_kills"), 0);
  EXPECT_EQ(this->Outcome("exec slow"), "timeout");
  EXPECT_EQ(this->Outcome("invoke slow"), "timeout");
}

TYPED_TEST(LifecycleTest, DeadlineClampsTheTimeout) {
  Json payload = Json::Object();
  payload["work_ms"] = 60000;
  payload["deadline_us"] = Seconds(2);
  this->Invoke("work", std::move(payload));
  this->env_.RunUntil(Seconds(10));
  EXPECT_EQ(this->answer_.calls, 1);
  EXPECT_TRUE(this->answer_.status.IsDeadlineExceeded());
  EXPECT_EQ(this->answer_.status.message(),
            "Query deadline exceeded in: work");
  EXPECT_EQ(this->answer_.at, Seconds(2));
  EXPECT_EQ(this->platform_->stats().timeouts, 1);
  EXPECT_EQ(this->platform_->stats().errors, 1);
  EXPECT_EQ(this->Metric("timeouts"), 1);
  EXPECT_EQ(this->Metric("deadline_kills"), 1);
  EXPECT_EQ(this->Outcome("exec work"), "timeout");
}

TYPED_TEST(LifecycleTest, InjectedCrashFailsTheExecution) {
  sim::FaultInjector::Profile profile;
  profile.function_crash_probability = 1.0;
  profile.crash_delay_max = Millis(200);
  this->injector_ =
      std::make_unique<sim::FaultInjector>(&this->env_, profile);
  Json payload = Json::Object();
  payload["work_ms"] = 60000;
  this->Invoke("work", std::move(payload));
  this->env_.RunUntil(Seconds(10));
  EXPECT_EQ(this->answer_.calls, 1);
  EXPECT_EQ(this->answer_.status.code(), StatusCode::kIoError);
  const std::string& message = this->answer_.status.message();
  EXPECT_NE(message.find(" crashed (injected): work"), std::string::npos)
      << message;
  EXPECT_EQ(this->platform_->stats().crashes, 1);
  EXPECT_EQ(this->platform_->stats().errors, 1);
  EXPECT_EQ(this->platform_->stats().timeouts, 0);
  EXPECT_EQ(this->Metric("crashes"), 1);
  EXPECT_EQ(this->Metric("errors"), 1);
  EXPECT_EQ(this->Outcome("exec work"), "crash");
  EXPECT_EQ(this->Outcome("invoke work"), "error");
}

TYPED_TEST(LifecycleTest, FinishAfterTimeoutIsIgnored) {
  this->Invoke("slow", Json::Object());
  this->env_.RunUntil(Seconds(10));
  EXPECT_EQ(this->late_finishes_, 1);  // The zombie handler did finish...
  EXPECT_EQ(this->answer_.calls, 1);   // ...and the caller heard only once.
  EXPECT_TRUE(this->answer_.status.IsDeadlineExceeded());
  EXPECT_EQ(this->platform_->stats().timeouts, 1);
  EXPECT_EQ(this->platform_->stats().errors, 1);
  const Histogram* exec_ms = this->metrics_.Hist(
      this->platform_->platform_name() + ".exec_ms");
  ASSERT_NE(exec_ms, nullptr);
  EXPECT_EQ(exec_ms->count(), 1);
}

}  // namespace
}  // namespace skyrise::faas
