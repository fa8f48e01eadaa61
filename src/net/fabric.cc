#include "net/fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/macros.h"

namespace skyrise::net {

Fabric::Fabric(const Options& options) : opt_(options), rng_(options.seed) {}

VpcId Fabric::AddVpc(double aggregate_cap_bytes_per_sec) {
  vpc_caps_.push_back(aggregate_cap_bytes_per_sec);
  return static_cast<VpcId>(vpc_caps_.size() - 1);
}

TransferId Fabric::StartTransfer(const TransferSpec& spec) {
  SKYRISE_CHECK(spec.src != nullptr && spec.dst != nullptr);
  SKYRISE_CHECK(spec.flows >= 1);
  if (spec.vpc != kNoVpc) {
    SKYRISE_CHECK(spec.vpc >= 0 &&
                  static_cast<size_t>(spec.vpc) < vpc_caps_.size());
  }
  const TransferId id = next_id_++;
  transfers_.push_back(Transfer{id, spec, 0, 0, false});
  ++live_;
  return id;
}

const Fabric::Transfer* Fabric::Find(TransferId id) const {
  auto it = std::lower_bound(
      transfers_.begin(), transfers_.end(), id,
      [](const Transfer& t, TransferId key) { return t.id < key; });
  if (it == transfers_.end() || it->id != id || it->retired) return nullptr;
  return &*it;
}

Fabric::Transfer* Fabric::Find(TransferId id) {
  return const_cast<Transfer*>(std::as_const(*this).Find(id));
}

void Fabric::Retire(Transfer* t) {
  t->retired = true;
  t->spec.on_complete = nullptr;
  --live_;
}

void Fabric::StopTransfer(TransferId id) {
  if (Transfer* t = Find(id)) Retire(t);
}

bool Fabric::IsActive(TransferId id) const { return Find(id) != nullptr; }

double Fabric::LastWindowBytes(TransferId id) const {
  const Transfer* t = Find(id);
  return t == nullptr ? 0 : t->last_window;
}

double Fabric::TotalBytes(TransferId id) const {
  const Transfer* t = Find(id);
  return t == nullptr ? 0 : t->moved;
}

namespace {

// Keys of the per-step constraint index. A NIC pointer is at least 8-byte
// aligned, so its low bit can hold the direction and bit 1 stays clear;
// VPC keys set bit 1. No key is 0, which marks an empty index slot.
static_assert(alignof(Nic) >= 4);

uint64_t NicKey(const Nic* nic, Direction dir) {
  return static_cast<uint64_t>(reinterpret_cast<uintptr_t>(nic)) |
         static_cast<uint64_t>(dir);
}

uint64_t VpcKey(VpcId vpc) { return (static_cast<uint64_t>(vpc) << 2) | 2; }

}  // namespace

uint32_t Fabric::ConstraintOf(uint64_t key) {
  const size_t mask = index_.size() - 1;
  size_t pos = static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
  while (index_[pos].key != 0) {
    if (index_[pos].key == key) return index_[pos].constraint;
    pos = (pos + 1) & mask;
  }
  const uint32_t id = static_cast<uint32_t>(remaining_.size());
  index_[pos] = IndexSlot{key, id};
  return id;
}

void Fabric::Step(SimTime now, SimDuration dt) {
  last_window_total_ = 0;
  if (live_ < transfers_.size()) {
    // Drop the transfers stopped or completed since the last step, keeping
    // id order, so the walks below see live transfers only.
    transfers_.erase(
        std::remove_if(transfers_.begin(), transfers_.end(),
                       [](const Transfer& t) { return t.retired; }),
        transfers_.end());
  }
  if (transfers_.empty()) return;
  const double window_sec = ToSeconds(dt);
  const size_t n = transfers_.size();

  // Build the constraint system: one capacity per (NIC, direction) touched,
  // one per VPC, plus a private cap per transfer (flow cap x flows, jitter,
  // remaining bytes). Constraint ids follow first appearance in the
  // id-ordered walk of transfers_; the index is only looked up, never
  // iterated, so the pointer-derived probe positions decide nothing.
  own_cap_.resize(n);
  constraints_of_.resize(n);
  remaining_.clear();
  active_members_.clear();
  size_t index_size = 16;
  while (index_size < 4 * n) index_size *= 2;  // At most 3n keys.
  index_.assign(index_size, IndexSlot{});

  for (size_t i = 0; i < n; ++i) {
    const Transfer& t = transfers_[i];
    double cap =
        opt_.per_flow_cap_bytes_per_sec * t.spec.flows * window_sec;
    if (t.spec.rate_cap_bytes_per_sec > 0) {
      cap = std::min(cap, t.spec.rate_cap_bytes_per_sec * window_sec);
    }
    if (opt_.jitter_sigma > 0) {
      cap *= rng_.Lognormal(0.0, opt_.jitter_sigma);
    }
    if (t.spec.total_bytes >= 0) {
      cap = std::min(cap, static_cast<double>(t.spec.total_bytes) - t.moved);
    }
    own_cap_[i] = std::max(0.0, cap);

    TransferConstraints& tc = constraints_of_[i];
    tc.count = 0;
    auto add_constraint = [&](uint64_t key, auto capacity) {
      const uint32_t c = ConstraintOf(key);
      if (c == remaining_.size()) {
        remaining_.push_back(capacity());
        active_members_.push_back(0);
      }
      ++active_members_[c];
      tc.id[tc.count++] = c;
    };
    Nic* src = t.spec.src;
    Nic* dst = t.spec.dst;
    add_constraint(NicKey(src, Direction::kOut),
                   [&] { return src->AllowedBytes(Direction::kOut, now, dt); });
    add_constraint(NicKey(dst, Direction::kIn),
                   [&] { return dst->AllowedBytes(Direction::kIn, now, dt); });
    if (t.spec.vpc != kNoVpc) {
      add_constraint(VpcKey(t.spec.vpc),
                     [&] { return vpc_caps_[t.spec.vpc] * window_sec; });
    }
  }

  // Iterative water-filling: each round, every still-active transfer takes
  // the minimum of its own remaining cap and its fair share of each touched
  // constraint (remaining / active members), applied simultaneously. A round
  // either exhausts a shared constraint or clamps every own-cap-limited
  // transfer, so convergence is fast even with thousands of transfers with
  // distinct (jittered) caps; rounds are bounded as a backstop.
  alloc_.assign(n, 0.0);
  active_.assign(n, 1);
  size_t active_count = n;
  for (size_t i = 0; i < n; ++i) {
    if (own_cap_[i] <= 1e-9) {
      active_[i] = 0;
      --active_count;
      const TransferConstraints& tc = constraints_of_[i];
      for (uint32_t k = 0; k < tc.count; ++k) --active_members_[tc.id[k]];
    }
  }

  const double eps = 1e-6;
  const size_t num_constraints = remaining_.size();
  share_.resize(num_constraints);
  for (int round = 0; round < 48 && active_count > 0; ++round) {
    // Fair shares against a snapshot of the remaining capacities, so every
    // member of a constraint receives an equal offer this round.
    for (size_t c = 0; c < num_constraints; ++c) {
      share_[c] = active_members_[c] > 0
                      ? remaining_[c] / active_members_[c]
                      : 0.0;
    }
    double moved = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      const TransferConstraints& tc = constraints_of_[i];
      double grant = own_cap_[i] - alloc_[i];
      for (uint32_t k = 0; k < tc.count; ++k) {
        grant = std::min(grant, share_[tc.id[k]]);
      }
      if (grant > 0) {
        alloc_[i] += grant;
        moved += grant;
        for (uint32_t k = 0; k < tc.count; ++k) remaining_[tc.id[k]] -= grant;
      }
    }
    // Freeze transfers whose own cap or any constraint saturated.
    for (size_t i = 0; i < n; ++i) {
      if (!active_[i]) continue;
      const TransferConstraints& tc = constraints_of_[i];
      bool saturated = own_cap_[i] - alloc_[i] <= eps;
      for (uint32_t k = 0; k < tc.count && !saturated; ++k) {
        saturated = remaining_[tc.id[k]] <= eps;
      }
      if (saturated) {
        active_[i] = 0;
        --active_count;
        for (uint32_t k = 0; k < tc.count; ++k) --active_members_[tc.id[k]];
      }
    }
    if (moved <= eps) break;
  }

  // Apply allocations: consume NIC budgets, advance transfers, complete.
  completed_.clear();
  for (size_t i = 0; i < n; ++i) {
    Transfer& t = transfers_[i];
    const double bytes = alloc_[i];
    t.spec.src->Consume(Direction::kOut, bytes, now, dt);
    t.spec.dst->Consume(Direction::kIn, bytes, now, dt);
    t.moved += bytes;
    t.last_window = bytes;
    last_window_total_ += bytes;
    if (t.spec.total_bytes >= 0 &&
        t.moved >= static_cast<double>(t.spec.total_bytes) - 0.5) {
      completed_.push_back(t.id);
    }
  }
  // The callbacks may start or stop transfers, or step again, which moves
  // entries of transfers_; completed_ is the only working array still read,
  // so its buffer is lent to a local, and each id is looked up afresh.
  std::vector<TransferId> completed;
  completed.swap(completed_);
  for (TransferId id : completed) {
    Transfer* t = Find(id);
    if (t == nullptr) continue;  // Stopped by an earlier callback.
    auto on_complete = std::move(t->spec.on_complete);
    Retire(t);
    if (on_complete) on_complete(id);
  }
  completed.swap(completed_);
}

}  // namespace skyrise::net
