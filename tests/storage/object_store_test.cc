#include "storage/object_store.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/histogram.h"
#include "storage/retry_client.h"

namespace skyrise::storage {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  sim::SimEnvironment env_{42};
};

TEST_F(ObjectStoreTest, InsertPeekListDelete) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("data/a", Blob::FromString("hello")).ok());
  ASSERT_TRUE(s3.Insert("data/b", Blob::Synthetic(100)).ok());
  ASSERT_TRUE(s3.Insert("other/c", Blob::Synthetic(5)).ok());
  EXPECT_TRUE(s3.Contains("data/a"));
  EXPECT_EQ(s3.Peek("data/a")->data(), "hello");
  EXPECT_TRUE(s3.Peek("missing").status().IsNotFound());
  auto listing = s3.List("data/");
  ASSERT_EQ(listing.size(), 2u);
  EXPECT_EQ(listing[0].key, "data/a");
  EXPECT_EQ(listing[1].size, 100);
  EXPECT_TRUE(s3.Delete("data/a").ok());
  EXPECT_FALSE(s3.Contains("data/a"));
}

TEST_F(ObjectStoreTest, GetDeliversPayloadWithLatency) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("payload")).ok());
  bool done = false;
  SimTime completed_at = 0;
  s3.Get("k", {}, [&](Result<Blob> r) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->data(), "payload");
    done = true;
    completed_at = env_.now();
  });
  env_.Run();
  EXPECT_TRUE(done);
  EXPECT_GT(completed_at, Millis(1));   // Some latency elapsed.
  EXPECT_LT(completed_at, Seconds(30));  // But bounded.
}

TEST_F(ObjectStoreTest, GetMissingKeyIsNotFound) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  Status status;
  s3.Get("nope", {}, [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_TRUE(status.IsNotFound());
}

TEST_F(ObjectStoreTest, GetRangeSlices) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("0123456789")).ok());
  std::string got;
  s3.GetRange("k", 2, 4, {}, [&](Result<Blob> r) {
    ASSERT_TRUE(r.ok());
    got = r->data();
  });
  env_.Run();
  EXPECT_EQ(got, "2345");
}

TEST_F(ObjectStoreTest, GetRangeReturnsAViewOfTheStoredObject) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("0123456789")).ok());
  const Blob stored = s3.Peek("k").ValueOrDie();
  Blob range;
  Blob whole;
  s3.GetRange("k", 2, 4, {}, [&](Result<Blob> r) {
    ASSERT_TRUE(r.ok());
    range = *r;
  });
  s3.Get("k", {}, [&](Result<Blob> r) {
    ASSERT_TRUE(r.ok());
    whole = *r;
  });
  env_.Run();
  EXPECT_EQ(range.bytes(), "2345");
  EXPECT_EQ(range.bytes().data(), stored.bytes().data() + 2);
  EXPECT_EQ(whole.bytes().data(), stored.bytes().data());
}

TEST_F(ObjectStoreTest, PutUnderTheSameKeyLeavesEarlierViewsIntact) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("old bytes")).ok());
  auto read = [&](Blob* out) {
    s3.GetRange("k", 4, 5, {}, [out](Result<Blob> r) {
      ASSERT_TRUE(r.ok());
      *out = *r;
    });
    env_.Run();
  };
  Blob earlier;
  read(&earlier);
  bool put = false;
  s3.Put("k", Blob::FromString("new BYTES"), {},
         [&](Status status) { put = status.ok(); });
  env_.Run();
  ASSERT_TRUE(put);
  Blob later;
  read(&later);
  EXPECT_EQ(earlier.bytes(), "bytes");
  EXPECT_EQ(later.bytes(), "BYTES");
}

TEST_F(ObjectStoreTest, GetRangeOutsideObjectIsInvalidRange) {
  pricing::CostMeter meter;
  ClientContext ctx;
  ctx.meter = &meter;
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("0123456789")).ok());
  // Before the object, past its end (to the end, or a fixed length), and
  // a length below -1: each is S3's 416, billed as a failed request.
  const std::pair<int64_t, int64_t> ranges[] = {{-1, 4}, {11, -1}, {11, 2},
                                                {2, -2}};
  std::vector<Status> statuses;
  for (const auto& [offset, length] : ranges) {
    s3.GetRange("k", offset, length, ctx,
                [&](Result<Blob> r) { statuses.push_back(r.status()); });
  }
  // The end of the object is still a valid, empty range.
  std::string tail = "unset";
  s3.GetRange("k", 10, -1, ctx, [&](Result<Blob> r) {
    ASSERT_TRUE(r.ok());
    tail = r->data();
  });
  env_.Run();
  ASSERT_EQ(statuses.size(), 4u);
  for (const Status& status : statuses) {
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    EXPECT_EQ(status.message(), "InvalidRange: k");
  }
  EXPECT_EQ(tail, "");
  EXPECT_EQ(meter.RequestCount("s3"), 5);
  EXPECT_EQ(meter.FailedRequests(), 4);

  // Not retriable: the retrying client fails fast on the first attempt.
  RetryClient client(&env_, &s3, RetryClient::Options());
  Status status;
  client.GetRange("k", 11, -1, {},
                  [&](Result<Blob> r) { status = r.status(); });
  env_.Run();
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(client.stats().attempts, 1);
  EXPECT_EQ(client.stats().fail_fasts, 1);
}

TEST_F(ObjectStoreTest, PutVisibleAfterCompletion) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  bool put_done = false;
  s3.Put("w", Blob::FromString("v"), {}, [&](Status s) {
    ASSERT_TRUE(s.ok());
    put_done = true;
  });
  EXPECT_FALSE(s3.Contains("w"));  // Not yet visible.
  env_.Run();
  EXPECT_TRUE(put_done);
  EXPECT_TRUE(s3.Contains("w"));  // Read-after-write after completion.
}

TEST_F(ObjectStoreTest, ThrottlesBeyondPartitionIops) {
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 1000;  // Small burst so the test is quick.
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  int ok = 0, throttled = 0;
  // Fire 10K requests instantly against a single partition with 1K burst.
  for (int i = 0; i < 10000; ++i) {
    s3.Get("k", {}, [&](Result<Blob> r) {
      if (r.ok()) {
        ++ok;
      } else if (r.status().IsResourceExhausted()) {
        ++throttled;
      }
    });
  }
  env_.Run();
  EXPECT_EQ(ok + throttled, 10000);
  EXPECT_NEAR(ok, 1000, 50);  // Burst tokens only; no time for refill.
  EXPECT_GT(throttled, 8000);
}

TEST_F(ObjectStoreTest, SustainedReadOverloadSplitsPartitionsLinearly) {
  auto opt = ObjectStore::StandardOptions();
  ObjectStore s3(&env_, opt);
  // Spread load across many keys so it hash-distributes over partitions.
  for (int i = 0; i < 512; ++i) {
    ASSERT_TRUE(s3.Insert("obj/" + std::to_string(i), Blob::Synthetic(kKiB)).ok());
  }
  // Offered load 8K IOPS against 5.5K capacity for 30 minutes.
  const double offered = 8000;
  const SimDuration tick = Millis(100);
  std::vector<int> partition_history;
  int next_key = 0;
  for (SimTime t = 0; t < Minutes(30); t += tick) {
    env_.RunUntil(t);
    const int n = static_cast<int>(offered * ToSeconds(tick));
    for (int i = 0; i < n; ++i) {
      s3.Get("obj/" + std::to_string(next_key++ % 512), {},
             [](Result<Blob>) {});
    }
    partition_history.push_back(s3.partition_count());
  }
  env_.Run();
  // One partition at the start, two after ~5-6 minutes of overload.
  EXPECT_EQ(partition_history.front(), 1);
  EXPECT_GE(s3.partition_count(), 2);
  // 8K load over 2 partitions (11K capacity) is no longer overloaded, so
  // growth stops: linear, demand-driven scaling.
  EXPECT_LE(s3.partition_count(), 3);
}

TEST_F(ObjectStoreTest, WriteIopsDoNotScaleWithPartitions) {
  auto opt = ObjectStore::StandardOptions();
  opt.write_burst_tokens = 100;
  ObjectStore s3(&env_, opt);
  s3.SetPartitionCount(5);
  // Burst drained, writes refill at 3.5K/s regardless of partition count.
  int ok = 0;
  for (int i = 0; i < 300; ++i) {
    s3.Put("w" + std::to_string(i), Blob::Synthetic(kKiB), {},
           [&](Status s) { ok += s.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_NEAR(ok, 100, 10);  // Only the single write burst, not 5x.
}

TEST_F(ObjectStoreTest, PartitionsMergeAfterIdleDays) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  s3.SetPartitionCount(5);
  // After one idle day all partitions survive (Fig. 13).
  env_.RunUntil(Hours(24));
  EXPECT_EQ(s3.partition_count(), 5);
  // Later the bucket shrinks to two partitions...
  env_.RunUntil(Hours(40));
  EXPECT_EQ(s3.partition_count(), 2);
  // ...which persist for ~3 more days before the final merge.
  env_.RunUntil(Hours(100));
  EXPECT_EQ(s3.partition_count(), 2);
  env_.RunUntil(Hours(120));
  EXPECT_EQ(s3.partition_count(), 1);
}

TEST_F(ObjectStoreTest, ExpressHasHigherIopsCeiling) {
  ObjectStore express(&env_, ObjectStore::ExpressOptions());
  ASSERT_TRUE(express.Insert("k", Blob::Synthetic(kKiB)).ok());
  EXPECT_DOUBLE_EQ(express.ReadIopsCapacity(), 220000);
  EXPECT_EQ(express.partition_count(), 1);
  int ok = 0, throttled = 0;
  for (int i = 0; i < 100000; ++i) {
    express.Get("k", {}, [&](Result<Blob> r) {
      (r.ok() ? ok : throttled) += 1;
    });
  }
  env_.Run();
  EXPECT_GT(ok, 90000);  // Far beyond a standard partition's capability.
}

TEST_F(ObjectStoreTest, LatencyDistributionMatchesFig10) {
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  Histogram lat;
  // 100K spaced requests (10 clients, sync API pacing).
  int outstanding = 0;
  for (int i = 0; i < 100000; ++i) {
    const SimTime issue = Millis(5) * i;
    env_.ScheduleAt(issue, [&, issue] {
      ++outstanding;
      s3.Get("k", {}, [&, issue](Result<Blob> r) {
        ASSERT_TRUE(r.ok());
        lat.Record(ToMillis(env_.now() - issue));
        --outstanding;
      });
    });
  }
  env_.Run();
  EXPECT_EQ(outstanding, 0);
  EXPECT_NEAR(lat.Percentile(50), 27, 3);   // Median ~27 ms.
  EXPECT_NEAR(lat.Percentile(95), 75, 10);  // p95 ~75 ms.
  EXPECT_GT(lat.max(), 500);                // Heavy tail outliers.
}

TEST_F(ObjectStoreTest, ExpressLatencyLowAndTight) {
  ObjectStore express(&env_, ObjectStore::ExpressOptions());
  ASSERT_TRUE(express.Insert("k", Blob::Synthetic(kKiB)).ok());
  Histogram lat;
  for (int i = 0; i < 20000; ++i) {
    const SimTime issue = Millis(2) * i;
    env_.ScheduleAt(issue, [&, issue] {
      express.Get("k", {}, [&, issue](Result<Blob> r) {
        ASSERT_TRUE(r.ok());
        lat.Record(ToMillis(env_.now() - issue));
      });
    });
  }
  env_.Run();
  EXPECT_NEAR(lat.Percentile(50), 5, 1);
  EXPECT_NEAR(lat.Percentile(95), 5.6, 1.5);
}

TEST_F(ObjectStoreTest, DynamoRejectsOversizedItems) {
  ObjectStore ddb(&env_, ObjectStore::DynamoDbOptions());
  Status status;
  ddb.Put("big", Blob::Synthetic(401 * kKiB), {},
          [&](Status s) { status = s; });
  env_.Run();
  EXPECT_TRUE(status.IsInvalidArgument());
  // At the limit it is accepted.
  Status ok_status = Status::Internal("unset");
  ddb.Put("fits", Blob::Synthetic(400 * kKiB), {},
          [&](Status s) { ok_status = s; });
  env_.Run();
  EXPECT_TRUE(ok_status.ok());
}

TEST_F(ObjectStoreTest, DynamoBurstAccruesFromUnusedCapacity) {
  ObjectStore ddb(&env_, ObjectStore::DynamoDbOptions());
  ASSERT_TRUE(ddb.Insert("k", Blob::Synthetic(kKiB)).ok());
  // Fresh table: an instant 60K volley sees only the small initial
  // allowance; most requests throttle.
  int ok_fresh = 0;
  for (int i = 0; i < 60000; ++i) {
    ddb.Get("k", {}, [&](Result<Blob> r) { ok_fresh += r.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_LT(ok_fresh, 6000);
  // After 5+ idle minutes, the burst pool holds ~300 s of capacity.
  env_.RunUntil(Minutes(10));
  int ok_warm = 0;
  for (int i = 0; i < 60000; ++i) {
    ddb.Get("k", {}, [&](Result<Blob> r) { ok_warm += r.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_EQ(ok_warm, 60000);
}

TEST_F(ObjectStoreTest, EfsWriteLatencyHigherThanRead) {
  ObjectStore efs(&env_, ObjectStore::EfsOptions());
  ASSERT_TRUE(efs.Insert("f", Blob::Synthetic(kKiB)).ok());
  Histogram reads, writes;
  for (int i = 0; i < 5000; ++i) {
    const SimTime issue = Millis(10) * i;
    env_.ScheduleAt(issue, [&, issue, i] {
      efs.Get("f", {}, [&, issue](Result<Blob> r) {
        ASSERT_TRUE(r.ok());
        reads.Record(ToMillis(env_.now() - issue));
      });
      efs.Put("w" + std::to_string(i), Blob::Synthetic(kKiB), {},
              [&, issue](Status s) {
                ASSERT_TRUE(s.ok());
                writes.Record(ToMillis(env_.now() - issue));
              });
    });
  }
  env_.Run();
  // Fig. 10: EFS writes are 2-3x slower than reads.
  EXPECT_GT(writes.Percentile(50), 2.0 * reads.Percentile(50));
  EXPECT_LT(writes.Percentile(50), 3.5 * reads.Percentile(50));
}

TEST_F(ObjectStoreTest, MeterRecordsAllRequests) {
  pricing::CostMeter meter;
  ClientContext ctx;
  ctx.meter = &meter;
  auto opt = ObjectStore::StandardOptions();
  opt.read_burst_tokens = 10;
  ObjectStore s3(&env_, opt);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  for (int i = 0; i < 100; ++i) {
    s3.Get("k", ctx, [](Result<Blob>) {});
  }
  env_.Run();
  EXPECT_EQ(meter.RequestCount("s3"), 100);  // Throttled ones included.
  EXPECT_GT(meter.FailedRequests(), 0);
  EXPECT_NEAR(meter.StorageUsd(), 100 * 4e-7, 1e-12);
}

TEST_F(ObjectStoreTest, InjectedStorageErrorsFailRequests) {
  sim::FaultInjector::Profile profile;
  profile.storage_read_error_probability = 1.0;
  profile.storage_write_error_probability = 1.0;
  sim::FaultInjector injector(&env_, profile);
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  s3.set_fault_injector(&injector);
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("v")).ok());
  Status get_status, put_status;
  s3.Get("k", {}, [&](Result<Blob> r) { get_status = r.status(); });
  s3.Put("w", Blob::Synthetic(kKiB), {},
         [&](Status s) { put_status = std::move(s); });
  env_.Run();
  // Both fail with a retriable transient error, never with data corruption.
  EXPECT_FALSE(get_status.ok());
  EXPECT_TRUE(get_status.IsRetriable()) << get_status.ToString();
  EXPECT_FALSE(put_status.ok());
  EXPECT_TRUE(put_status.IsRetriable()) << put_status.ToString();
  EXPECT_EQ(injector.stats().storage_errors, 2);
  EXPECT_FALSE(s3.Contains("w"));  // The injected PUT never lands.
}

TEST_F(ObjectStoreTest, InjectedErrorsAreMeteredAsFailedRequests) {
  sim::FaultInjector::Profile profile;
  profile.storage_read_error_probability = 1.0;
  sim::FaultInjector injector(&env_, profile);
  pricing::CostMeter meter;
  ClientContext ctx;
  ctx.meter = &meter;
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  s3.set_fault_injector(&injector);
  ASSERT_TRUE(s3.Insert("k", Blob::FromString("v")).ok());
  s3.Get("k", ctx, [](Result<Blob>) {});
  env_.Run();
  // Failed requests still bill and count (S3 charges for 5xx responses).
  EXPECT_EQ(meter.RequestCount("s3"), 1);
  EXPECT_EQ(meter.FailedRequests(), 1);
}

TEST_F(ObjectStoreTest, RetryClientMasksInjectedTransientErrors) {
  sim::FaultInjector::Profile profile;
  profile.storage_read_error_probability = 0.3;
  sim::FaultInjector injector(&env_, profile);
  ObjectStore s3(&env_, ObjectStore::StandardOptions());
  s3.set_fault_injector(&injector);
  ASSERT_TRUE(s3.Insert("k", Blob::Synthetic(kKiB)).ok());
  RetryClient::Options ropt;
  ropt.max_attempts = 10;
  RetryClient client(&env_, &s3, ropt);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    client.Get("k", {}, [&](Result<Blob> r) { ok += r.ok() ? 1 : 0; });
  }
  env_.Run();
  EXPECT_EQ(ok, 50);  // Every read eventually succeeds through retries.
  EXPECT_GT(injector.stats().storage_errors, 0);
  EXPECT_GT(client.stats().attempts, 50);
}

}  // namespace
}  // namespace skyrise::storage
