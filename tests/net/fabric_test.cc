#include "net/fabric.h"

#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/instance_specs.h"

namespace skyrise::net {
namespace {

Fabric::TransferSpec MakeSpec(Nic* src, Nic* dst, int flows, int64_t total,
                              VpcId vpc) {
  Fabric::TransferSpec spec;
  spec.src = src;
  spec.dst = dst;
  spec.flows = flows;
  spec.total_bytes = total;
  spec.vpc = vpc;
  return spec;
}

TEST(FabricTest, SingleTransferLimitedByFlowCap) {
  Fabric fabric;
  UnlimitedNic a(100e9), b(100e9);
  auto id = fabric.StartTransfer(MakeSpec(&a, &b, 1, -1, kNoVpc));
  fabric.Step(0, Seconds(1));
  // One flow capped at 5 Gbps = 625 MB/s.
  EXPECT_NEAR(fabric.LastWindowBytes(id), 625e6, 1);
}

TEST(FabricTest, MultipleFlowsScaleCap) {
  Fabric fabric;
  UnlimitedNic a(100e9), b(100e9);
  auto id = fabric.StartTransfer(MakeSpec(&a, &b, 4, -1, kNoVpc));
  fabric.Step(0, Seconds(1));
  EXPECT_NEAR(fabric.LastWindowBytes(id), 4 * 625e6, 1);
}

TEST(FabricTest, NicBottleneckSharedFairly) {
  Fabric fabric;
  UnlimitedNic server(1000.0);  // 1000 B/s egress.
  UnlimitedNic c1(1e12), c2(1e12), c3(1e12);
  auto t1 = fabric.StartTransfer(MakeSpec(&server, &c1, 1, -1, kNoVpc));
  auto t2 = fabric.StartTransfer(MakeSpec(&server, &c2, 1, -1, kNoVpc));
  auto t3 = fabric.StartTransfer(MakeSpec(&server, &c3, 1, -1, kNoVpc));
  fabric.Step(0, Seconds(1));
  EXPECT_NEAR(fabric.LastWindowBytes(t1), 1000.0 / 3, 1e-3);
  EXPECT_NEAR(fabric.LastWindowBytes(t2), 1000.0 / 3, 1e-3);
  EXPECT_NEAR(fabric.LastWindowBytes(t3), 1000.0 / 3, 1e-3);
}

TEST(FabricTest, MaxMinRedistributesUnusedShare) {
  Fabric fabric;
  Fabric::Options opt;
  opt.per_flow_cap_bytes_per_sec = 100.0;  // Tiny flow cap for t1.
  Fabric small_cap(opt);
  UnlimitedNic server(1000.0);
  UnlimitedNic c1(1e12), c2(1e12);
  // t1: one flow -> capped at 100. t2: 9 flows -> can take the rest.
  auto t1 = small_cap.StartTransfer(MakeSpec(&server, &c1, 1, -1, kNoVpc));
  auto t2 = small_cap.StartTransfer(MakeSpec(&server, &c2, 9, -1, kNoVpc));
  small_cap.Step(0, Seconds(1));
  EXPECT_NEAR(small_cap.LastWindowBytes(t1), 100.0, 1e-3);
  EXPECT_NEAR(small_cap.LastWindowBytes(t2), 900.0, 1e-3);
}

TEST(FabricTest, VpcAggregateCapBinds) {
  Fabric fabric;
  const VpcId vpc = fabric.AddVpc(1000.0);
  UnlimitedNic s1(1e12), s2(1e12), c1(1e12), c2(1e12);
  auto t1 = fabric.StartTransfer(MakeSpec(&s1, &c1, 8, -1, vpc));
  auto t2 = fabric.StartTransfer(MakeSpec(&s2, &c2, 8, -1, vpc));
  fabric.Step(0, Seconds(1));
  EXPECT_NEAR(fabric.LastWindowBytes(t1) + fabric.LastWindowBytes(t2), 1000.0,
              1e-3);
}

TEST(FabricTest, TransfersOutsideVpcUnconstrained) {
  Fabric fabric;
  fabric.AddVpc(1000.0);
  UnlimitedNic s(1e12), c(1e12);
  auto t = fabric.StartTransfer(MakeSpec(&s, &c, 8, -1, kNoVpc));
  fabric.Step(0, Seconds(1));
  EXPECT_NEAR(fabric.LastWindowBytes(t), 8 * 625e6, 1);
}

TEST(FabricTest, BoundedTransferCompletesWithCallback) {
  Fabric fabric;
  UnlimitedNic a(1e12), b(1e12);
  bool done = false;
  Fabric::TransferSpec spec;
  spec.src = &a;
  spec.dst = &b;
  spec.flows = 1;
  spec.total_bytes = 1000;
  spec.on_complete = [&](TransferId) { done = true; };
  auto id = fabric.StartTransfer(spec);
  fabric.Step(0, Seconds(1));
  EXPECT_TRUE(done);
  EXPECT_FALSE(fabric.IsActive(id));
}

TEST(FabricTest, BoundedTransferNeverOvershoots) {
  Fabric fabric;
  UnlimitedNic a(1e12), b(1e12);
  Fabric::TransferSpec spec;
  spec.src = &a;
  spec.dst = &b;
  spec.total_bytes = 1000;
  auto id = fabric.StartTransfer(spec);
  fabric.Step(0, Millis(1));
  EXPECT_LE(fabric.LastWindowBytes(id), 1000.0);
  EXPECT_FALSE(fabric.IsActive(id));  // 625e3 B/ms >> 1000 B.
}

TEST(FabricTest, StopTransferRemovesIt) {
  Fabric fabric;
  UnlimitedNic a(1e12), b(1e12);
  auto id = fabric.StartTransfer(MakeSpec(&a, &b, 1, -1, kNoVpc));
  fabric.StopTransfer(id);
  EXPECT_FALSE(fabric.IsActive(id));
  fabric.Step(0, Seconds(1));
  EXPECT_DOUBLE_EQ(fabric.last_window_total(), 0);
}

TEST(FabricTest, LambdaClientDrainsThenBaseline) {
  Fabric fabric;
  LambdaNic fn;
  UnlimitedNic server(100e9);
  auto id = fabric.StartTransfer(MakeSpec(&server, &fn, 4, -1, kNoVpc));
  // Run one second in 20 ms windows.
  double total_first_second = 0;
  for (int i = 0; i < 50; ++i) {
    fabric.Step(Millis(20) * i, Millis(20));
    total_first_second += fabric.LastWindowBytes(id);
  }
  // Burst of ~300 MiB plus some baseline chunks.
  EXPECT_GT(total_first_second, 300.0 * kMiB);
  EXPECT_LT(total_first_second, 400.0 * kMiB);
  // Second second: pure baseline ~75 MiB.
  double total_second = 0;
  for (int i = 50; i < 100; ++i) {
    fabric.Step(Millis(20) * i, Millis(20));
    total_second += fabric.LastWindowBytes(id);
  }
  EXPECT_NEAR(total_second, 75.0 * kMiB, 8.0 * kMiB);
}

TEST(FabricTest, JitterVariesRatesDeterministically) {
  Fabric::Options opt;
  opt.jitter_sigma = 0.2;
  opt.seed = 7;
  Fabric f1(opt), f2(opt);
  UnlimitedNic a(1e12), b(1e12);
  auto i1 = f1.StartTransfer(MakeSpec(&a, &b, 1, -1, kNoVpc));
  auto i2 = f2.StartTransfer(MakeSpec(&a, &b, 1, -1, kNoVpc));
  std::vector<double> w1, w2;
  for (int i = 0; i < 20; ++i) {
    f1.Step(Millis(20) * i, Millis(20));
    f2.Step(Millis(20) * i, Millis(20));
    w1.push_back(f1.LastWindowBytes(i1));
    w2.push_back(f2.LastWindowBytes(i2));
  }
  EXPECT_EQ(w1, w2);  // Same seed -> identical trace.
  // Jitter produces distinct window values.
  EXPECT_NE(w1[0], w1[1]);
}

// Several EC2 and Lambda clients share one server NIC, with a VPC ceiling,
// per-transfer rate caps, jitter, NIC buckets that drain mid-run, bounded
// transfers that finish mid-run and one transfer started from a completion
// callback. Byte counts are compared bit for bit against figures recorded
// from the hash-map Step this fabric had before its working arrays became
// reused flat vectors, so any reordered sum or changed call order shows.
TEST(FabricTest, MixedScenarioIsBitExact) {
  Fabric::Options opt;
  opt.jitter_sigma = 0.3;
  opt.seed = 2024;
  Fabric fabric(opt);
  const VpcId vpc = fabric.AddVpc(0.75 * kGiB);
  UnlimitedNic server(/*in=*/0.5 * kGiB, /*out=*/1.0 * kGiB);
  Ec2Nic::Options ec2;
  ec2.bucket_bytes = 24.0 * kMiB;
  Ec2Nic e1(ec2), e2(ec2), e3(ec2);
  LambdaNic::Options lambda;
  lambda.in.one_off_bytes = lambda.out.one_off_bytes = 12.0 * kMiB;
  lambda.in.bucket_bytes = lambda.out.bucket_bytes = 12.0 * kMiB;
  LambdaNic l1(lambda), l2(lambda), l3(lambda);

  std::vector<std::pair<TransferId, int>> completions;  // (id, step)
  int step = 0;
  auto start = [&](Nic* src, Nic* dst, int flows, int64_t total, VpcId v,
                   double rate_cap) {
    Fabric::TransferSpec spec = MakeSpec(src, dst, flows, total, v);
    spec.rate_cap_bytes_per_sec = rate_cap;
    if (total >= 0) {
      spec.on_complete = [&](TransferId id) {
        completions.emplace_back(id, step);
      };
    }
    return fabric.StartTransfer(spec);
  };
  std::vector<TransferId> ids = {
      start(&server, &e1, 4, -1, vpc, 0),
      start(&server, &e2, 2, 40 * kMiB, vpc, 0),
      start(&e3, &server, 1, 24 * kMiB, kNoVpc, 200e6),
      start(&server, &l1, 1, -1, vpc, 0),
      start(&e1, &server, 2, 32 * kMiB, kNoVpc, 0),
      start(&l3, &server, 2, -1, kNoVpc, 0),
  };
  // A Lambda download whose completion starts the same client's upload.
  Fabric::TransferSpec chained = MakeSpec(&server, &l2, 1, 48 * kMiB, vpc);
  chained.on_complete = [&](TransferId id) {
    completions.emplace_back(id, step);
    ids.push_back(start(&l2, &server, 1, 16 * kMiB, vpc, 150e6));
  };
  ids.push_back(fabric.StartTransfer(chained));

  std::map<TransferId, double> last_total;  // After its last active step.
  double window_sum = 0;
  for (step = 0; step < 100; ++step) {
    fabric.Step(Millis(20) * step, Millis(20));
    window_sum += fabric.last_window_total();
    for (TransferId id : ids) {
      if (fabric.IsActive(id)) last_total[id] = fabric.TotalBytes(id);
    }
  }

  const std::vector<std::pair<TransferId, int>> want_completions = {
      {3, 7}, {5, 8}, {2, 9}, {7, 20}, {8, 26}};
  EXPECT_EQ(completions, want_completions);
  const std::vector<double> want_totals = {
      0x1.4205f2p+28, 0x1.2cf5c28f5c28ep+25, 0x1.6f8bd5b713179p+24,
      0x1.4dp+27,     0x1.d506e1f143411p+24, 0x1.4dp+27,
      0x1.74p+25,     0x1.bef4cebd5c628p+23};
  ASSERT_EQ(ids.size(), want_totals.size());
  for (size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(last_total[ids[k]], want_totals[k]) << "transfer " << ids[k];
  }
  EXPECT_EQ(window_sum, 0x1.9782f9p+29);
}

// Thirty-two equal downloads share one server NIC and all finish in the same
// step. Their completion callbacks start new transfers, stop transfers that
// are still running, stop a transfer whose callback has not run yet in the
// same step, start and at once stop a transfer that has never been stepped,
// stop their own finished transfer, and step the fabric again under the
// outer step's callback loop. Between steps the test starts and stops a
// transfer of its own. Every id ever issued is probed after every step: a
// stopped or completed transfer must read inactive with zero bytes. The
// figures are compared bit for bit against those recorded from the
// std::map transfer table this fabric had before its id-ordered vector.
TEST(FabricTest, StoppedAndCompletedTransfersReadGoneBitExact) {
  Fabric::Options opt;
  opt.jitter_sigma = 0.25;
  opt.seed = 99;
  Fabric fabric(opt);
  const VpcId vpc = fabric.AddVpc(1.5 * kGiB);
  UnlimitedNic server(/*in=*/0.5 * kGiB, /*out=*/1.0 * kGiB);
  Ec2Nic::Options ec2;
  ec2.bucket_bytes = 16.0 * kMiB;
  std::vector<std::unique_ptr<Nic>> clients;
  for (int k = 0; k < 32; ++k) {
    if (k % 2 == 0) {
      clients.push_back(std::make_unique<Ec2Nic>(ec2));
    } else {
      clients.push_back(std::make_unique<UnlimitedNic>(1e12));
    }
  }

  std::vector<TransferId> ids;
  std::vector<std::pair<TransferId, int>> completions;  // (id, step)
  int step = 0;
  auto start = [&](Nic* src, Nic* dst, int64_t total, VpcId v,
                   std::function<void(TransferId)> then) {
    Fabric::TransferSpec spec = MakeSpec(src, dst, 1, total, v);
    spec.on_complete = [&completions, &step, then](TransferId id) {
      completions.emplace_back(id, step);
      if (then) then(id);
    };
    ids.push_back(fabric.StartTransfer(spec));
    return ids.back();
  };

  // Unbounded uploads the callbacks stop one by one, oldest first.
  std::vector<TransferId> uploads;
  for (int k = 0; k < 8; ++k) {
    uploads.push_back(start(clients[static_cast<size_t>(k)].get(), &server,
                            -1, k % 2 == 0 ? vpc : kNoVpc, nullptr));
  }
  size_t next_upload = 0;
  const TransferId first_download = ids.back() + 1;
  for (int k = 0; k < 32; ++k) {
    const size_t c = static_cast<size_t>(k);
    start(&server, clients[c].get(), 8 * kMiB, vpc,
          [&, k, c, first_download](TransferId id) {
            switch (k % 6) {
              case 0:  // A follow-up download, sized by its client.
                start(&server, clients[c].get(), (2 + k) * kMiB, kNoVpc,
                      nullptr);
                break;
              case 1:  // Stop a running upload.
                if (next_upload < uploads.size()) {
                  fabric.StopTransfer(uploads[next_upload++]);
                }
                break;
              case 2:  // Stop a download whose callback has not run yet.
                fabric.StopTransfer(first_download + static_cast<size_t>(k) +
                                    2);
                break;
              case 3:  // Start a transfer and stop it before any step.
                fabric.StopTransfer(start(clients[c].get(), &server, kMiB,
                                          vpc, nullptr));
                break;
              case 4:  // Stop this transfer, which has already finished.
                fabric.StopTransfer(id);
                break;
              case 5:  // Step again inside the step.
                if (k == 29) fabric.Step(Millis(20) * step, Millis(1));
                break;
            }
          });
  }

  std::map<TransferId, double> last_total;  // After its last active step.
  double window_sum = 0;
  double gone_bytes = 0;  // Bytes reported for inactive ids; must stay 0.
  std::vector<int> active_counts;
  for (step = 0; step < 40; ++step) {
    if (step == 3) {
      fabric.StopTransfer(start(&server, clients[1].get(), kMiB, vpc,
                                nullptr));
    }
    fabric.Step(Millis(20) * step, Millis(20));
    window_sum += fabric.last_window_total();
    active_counts.push_back(fabric.active_transfers());
    int active = 0;
    for (TransferId id : ids) {
      if (fabric.IsActive(id)) {
        ++active;
        last_total[id] = fabric.TotalBytes(id);
      } else {
        gone_bytes += fabric.TotalBytes(id) + fabric.LastWindowBytes(id);
      }
    }
    EXPECT_EQ(active, fabric.active_transfers()) << "step " << step;
  }
  EXPECT_EQ(gone_bytes, 0.0);
  EXPECT_FALSE(fabric.IsActive(ids.back() + 1));
  EXPECT_EQ(fabric.TotalBytes(0), 0.0);

  double total_sum = 0;  // In id order.
  for (const auto& [id, total] : last_total) total_sum += total;
  std::vector<std::pair<TransferId, int>> want_completions;
  for (TransferId id = 9; id <= 40; ++id) {
    // Downloads 13, 19, 25, 31 and 37 are stopped by an earlier callback.
    if (id % 6 != 1) want_completions.emplace_back(id, 12);
  }
  want_completions.insert(want_completions.end(), {{42, 13},
                                                   {44, 14},
                                                   {46, 16},
                                                   {48, 17},
                                                   {50, 17},
                                                   {52, 18}});
  EXPECT_EQ(completions, want_completions);
  std::vector<int> want_active(12, 40);
  want_active.insert(want_active.end(), {8, 7, 6, 6, 5, 3});
  want_active.resize(40, 2);
  EXPECT_EQ(active_counts, want_active);
  EXPECT_EQ(ids.size(), 52u);
  EXPECT_EQ(window_sum, 0x1.75d0e56041899p+29);
  EXPECT_EQ(total_sum, 0x1.6fa3e134a9632p+29);
  EXPECT_EQ(last_total[8], 0x1.8f32099ba5e37p+27);
  EXPECT_EQ(last_total[42], 0x1.a36e2eb1c432dp+17);
  EXPECT_EQ(last_total[52], 0x1.e833f3aede81ep+24);
}

}  // namespace
}  // namespace skyrise::net
