#include "net/nic.h"

#include <algorithm>

namespace skyrise::net {

LambdaNic::Options::Options() {
  // Inbound: measured 1.2 GiB/s burst. Outbound: reduced and more variable
  // (the paper attributes part of that to iPerf3 data generation overhead);
  // we model a 0.9 GiB/s outbound burst cap.
  in.burst_rate = 1.2 * kGiB;
  out.burst_rate = 0.9 * kGiB;
}

LambdaNic::LambdaNic(const Options& options)
    : in_(options.in), out_(options.out) {}

double LambdaNic::AllowedBytes(Direction dir, SimTime now, SimDuration dt) {
  return (dir == Direction::kIn ? in_ : out_).AllowedBytes(now, dt);
}

void LambdaNic::Consume(Direction dir, double bytes, SimTime now,
                        SimDuration dt) {
  (void)dt;
  (dir == Direction::kIn ? in_ : out_).Consume(bytes, now);
}

void LambdaNic::NotifyIdle() {
  in_.NotifyIdle();
  out_.NotifyIdle();
}

Ec2Nic::Ec2Nic(const Options& options) : opt_(options) {
  in_.tokens = options.bucket_bytes;
  out_.tokens = options.bucket_bytes;
}

void Ec2Nic::DirState::RefillTo(SimTime t, double fill_rate, double capacity) {
  if (t <= last) return;
  tokens = std::min(capacity, tokens + ToSeconds(t - last) * fill_rate);
  last = t;
}

double Ec2Nic::AllowedBytes(Direction dir, SimTime now, SimDuration dt) {
  const double window_sec = ToSeconds(dt);
  if (opt_.bucket_bytes <= 0) {
    // No burst mechanism: flat baseline == burst rate.
    return opt_.baseline_rate * window_sec;
  }
  DirState& s = state(dir);
  s.RefillTo(now, opt_.baseline_rate, opt_.bucket_bytes);
  // Stored tokens plus the baseline earned during the window itself.
  const double budget = s.tokens + opt_.baseline_rate * window_sec;
  return std::min(opt_.burst_rate * window_sec, budget);
}

void Ec2Nic::Consume(Direction dir, double bytes, SimTime now,
                     SimDuration dt) {
  if (opt_.bucket_bytes <= 0) return;
  DirState& s = state(dir);
  s.RefillTo(now, opt_.baseline_rate, opt_.bucket_bytes);
  s.tokens += opt_.baseline_rate * ToSeconds(dt) - bytes;
  s.tokens = std::clamp(s.tokens, 0.0, opt_.bucket_bytes);
  s.last = now + dt;
}

double Ec2Nic::BucketRemaining(Direction dir, SimTime now) {
  if (opt_.bucket_bytes <= 0) return 0;
  DirState& s = state(dir);
  s.RefillTo(now, opt_.baseline_rate, opt_.bucket_bytes);
  return s.tokens;
}

}  // namespace skyrise::net
