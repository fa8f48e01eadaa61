#pragma once

#include "net/fabric.h"
#include "sim/environment.h"

/// \file fabric_driver.h
/// Binds a Fabric to a SimEnvironment: while transfers are active, the driver
/// steps the fluid simulation at a fixed cadence on the event queue and goes
/// quiescent when the fabric drains, so event-based components (storage
/// services, FaaS platform) and the fluid network co-simulate.

namespace skyrise::net {

class FabricDriver {
 public:
  FabricDriver(sim::SimEnvironment* env, Fabric* fabric,
               SimDuration step = Millis(20))
      : env_(env), fabric_(fabric), step_(step) {}
  SKYRISE_DISALLOW_COPY_AND_ASSIGN(FabricDriver);

  /// Starts a transfer and guarantees the fabric is being stepped. The
  /// spec's on_complete fires from a scheduled event.
  TransferId StartTransfer(Fabric::TransferSpec spec);

  Fabric* fabric() const { return fabric_; }
  sim::SimEnvironment* env() const { return env_; }
  SimDuration step() const { return step_; }

 private:
  void EnsureRunning();
  void Tick();

  sim::SimEnvironment* env_;
  Fabric* fabric_;
  SimDuration step_;
  bool running_ = false;
};

}  // namespace skyrise::net
