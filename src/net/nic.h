#pragma once

#include <memory>
#include <string>

#include "common/units.h"
#include "sim/token_bucket.h"

/// \file nic.h
/// Per-instance network interface models. A NIC exposes, per direction, how
/// many bytes it permits in a fluid-simulation window and records actual
/// consumption. Three concrete models:
///  - LambdaNic: dual-budget bursting (Section 4.2 mechanism),
///  - Ec2Nic: classic token bucket with baseline refill and burst cap,
///  - UnlimitedNic: fixed line rate (used for beefy iPerf servers).

namespace skyrise::net {

enum class Direction { kIn = 0, kOut = 1 };

class Nic {
 public:
  virtual ~Nic() = default;

  /// Bytes this NIC allows in `dir` during the window [now, now+dt).
  virtual double AllowedBytes(Direction dir, SimTime now, SimDuration dt) = 0;

  /// Records `bytes` consumed during the window starting at `now` with
  /// length `dt`.
  virtual void Consume(Direction dir, double bytes, SimTime now,
                       SimDuration dt) = 0;

  /// Owner released the NIC (e.g., the function terminated).
  virtual void NotifyIdle() {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

 private:
  std::string name_;
};

/// AWS Lambda function NIC: ~300 MiB initial budget (150 MiB one-off +
/// 150 MiB rechargeable), 1.2 GiB/s inbound burst, reduced outbound burst,
/// 75 MiB/s chunked baseline. Bandwidth is constant across function sizes.
class LambdaNic : public Nic {
 public:
  struct Options {
    sim::BurstBudget::Options in;
    sim::BurstBudget::Options out;
    Options();
  };

  explicit LambdaNic(const Options& options = Options());

  double AllowedBytes(Direction dir, SimTime now, SimDuration dt) override;
  void Consume(Direction dir, double bytes, SimTime now,
               SimDuration dt) override;
  void NotifyIdle() override;

  const sim::BurstBudget& budget(Direction dir) const {
    return dir == Direction::kIn ? in_ : out_;
  }

 private:
  sim::BurstBudget in_;
  sim::BurstBudget out_;
};

/// EC2 instance NIC: token bucket refilled at the baseline rate, capped at
/// the burst rate; large instances have no burst (baseline == burst).
class Ec2Nic : public Nic {
 public:
  struct Options {
    double burst_rate = 10e9 / 8;     ///< Bytes/s.
    double baseline_rate = 1.25e9 / 8;
    double bucket_bytes = 8.0 * kGiB;  ///< 0 => no bucket (sustained rate).
  };

  explicit Ec2Nic(const Options& options);

  double AllowedBytes(Direction dir, SimTime now, SimDuration dt) override;
  void Consume(Direction dir, double bytes, SimTime now,
               SimDuration dt) override;

  /// Remaining burst tokens (for bucket-size measurements).
  double BucketRemaining(Direction dir, SimTime now);

 private:
  /// Bucket with in-window accrual: stored tokens are capped at capacity,
  /// but baseline refill earned during an active window is usable directly.
  struct DirState {
    double tokens = 0;
    SimTime last = 0;
    void RefillTo(SimTime t, double fill_rate, double capacity);
  };

  DirState& state(Direction dir) { return dir == Direction::kIn ? in_ : out_; }

  Options opt_;
  DirState in_;
  DirState out_;
};

/// Fixed line-rate NIC with no bucket (e.g., a 100 Gbps measurement server,
/// or a storage service endpoint with asymmetric read/write ceilings).
class UnlimitedNic : public Nic {
 public:
  explicit UnlimitedNic(double rate_bytes_per_sec)
      : in_rate_(rate_bytes_per_sec), out_rate_(rate_bytes_per_sec) {}
  UnlimitedNic(double in_rate_bytes_per_sec, double out_rate_bytes_per_sec)
      : in_rate_(in_rate_bytes_per_sec), out_rate_(out_rate_bytes_per_sec) {}

  double AllowedBytes(Direction dir, SimTime, SimDuration dt) override {
    return (dir == Direction::kIn ? in_rate_ : out_rate_) * ToSeconds(dt);
  }
  void Consume(Direction, double, SimTime, SimDuration) override {}

 private:
  double in_rate_;
  double out_rate_;
};

}  // namespace skyrise::net
