#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/nic.h"

/// \file fabric.h
/// Fluid-flow network fabric. Transfers between NICs are advanced in fixed
/// time windows; per window, rates are assigned by progressive-filling
/// max-min fairness subject to: source egress allowance, destination ingress
/// allowance, the 5 Gbps single-flow EC2 cap (multiplied by the number of
/// parallel TCP connections), and an optional per-VPC aggregate ceiling (the
/// ~20 GiB/s limit Section 4.2.2 observes for customer-owned VPCs).

namespace skyrise::net {

using TransferId = uint64_t;
using VpcId = int32_t;
constexpr VpcId kNoVpc = -1;

class Fabric {
 public:
  struct Options {
    double per_flow_cap_bytes_per_sec = GbpsToBytesPerSecond(5.0);
    /// Multiplicative lognormal jitter applied to each transfer's rate per
    /// window, modelling co-tenant contention. Sigma of the underlying
    /// normal; 0 disables jitter.
    double jitter_sigma = 0.0;
    uint64_t seed = 42;
  };

  Fabric() : Fabric(Options{}) {}
  explicit Fabric(const Options& options);

  /// Registers a VPC domain with an aggregate throughput ceiling.
  VpcId AddVpc(double aggregate_cap_bytes_per_sec);

  struct TransferSpec {
    Nic* src = nullptr;
    Nic* dst = nullptr;
    int flows = 1;                 ///< Parallel TCP connections.
    int64_t total_bytes = -1;      ///< -1 => unbounded (timed run).
    VpcId vpc = kNoVpc;
    /// Per-transfer rate ceiling in bytes/s (e.g., an S3 per-connection
    /// stream limit); 0 => no extra cap beyond the flow cap.
    double rate_cap_bytes_per_sec = 0;
    std::function<void(TransferId)> on_complete;
  };

  TransferId StartTransfer(const TransferSpec& spec);
  void StopTransfer(TransferId id);
  bool IsActive(TransferId id) const;

  /// Advances all active transfers by one window of length `dt` starting at
  /// virtual time `now`. Completed transfers' `on_complete` callbacks run
  /// inside Step, in transfer-id order; they may start or stop transfers.
  void Step(SimTime now, SimDuration dt);

  /// Bytes moved by a transfer during the most recent Step.
  double LastWindowBytes(TransferId id) const;
  /// Cumulative bytes moved by a transfer.
  double TotalBytes(TransferId id) const;

  /// Sum of bytes moved by all transfers during the most recent Step.
  double last_window_total() const { return last_window_total_; }

  int active_transfers() const { return static_cast<int>(live_); }

 private:
  struct Transfer {
    TransferId id = 0;
    TransferSpec spec;
    double moved = 0;
    double last_window = 0;
    /// Stopped or completed since the last step, which drops it.
    bool retired = false;
  };

  /// The live transfer with this id, or nullptr.
  Transfer* Find(TransferId id);
  const Transfer* Find(TransferId id) const;
  /// Retires `t`, releasing its completion callback.
  void Retire(Transfer* t);

  /// Ids of the constraints one transfer touches in a step: source egress,
  /// destination ingress and, if it has one, its VPC.
  struct TransferConstraints {
    uint32_t id[3] = {};
    uint32_t count = 0;
  };

  /// Open-addressing entry of the per-step constraint index; key 0 is empty.
  struct IndexSlot {
    uint64_t key = 0;
    uint32_t constraint = 0;
  };

  /// Returns the constraint id of `key` in the current step. A key the step
  /// has not seen yet gets the next id, remaining_.size(), and the caller
  /// appends its constraint.
  uint32_t ConstraintOf(uint64_t key);

  Options opt_;
  Rng rng_;
  TransferId next_id_ = 1;
  /// The transfers in id order, which is start order: the active ones and
  /// those retired since the last step.
  std::vector<Transfer> transfers_;
  size_t live_ = 0;  ///< Entries of transfers_ not retired.
  std::vector<double> vpc_caps_;
  double last_window_total_ = 0;

  // Step's working arrays, kept across steps so a step allocates only when
  // the number of active transfers reaches a new high. Per transfer, in
  // transfers_ order:
  std::vector<double> own_cap_;
  std::vector<double> alloc_;
  std::vector<uint8_t> active_;
  std::vector<TransferConstraints> constraints_of_;
  // Per constraint, in first-appearance order:
  std::vector<double> remaining_;
  std::vector<int> active_members_;
  std::vector<double> share_;
  /// (NIC, direction) or VPC key -> constraint id; lookup only.
  std::vector<IndexSlot> index_;
  std::vector<TransferId> completed_;
};

}  // namespace skyrise::net
