#include "net/fabric_driver.h"

namespace skyrise::net {

TransferId FabricDriver::StartTransfer(Fabric::TransferSpec spec) {
  const TransferId id = fabric_->StartTransfer(spec);
  EnsureRunning();
  return id;
}

void FabricDriver::EnsureRunning() {
  if (running_) return;
  running_ = true;
  env_->Schedule(step_, [this] { Tick(); });
}

void FabricDriver::Tick() {
  // The window that just elapsed ended now; step it with its start time.
  fabric_->Step(env_->now() - step_, step_);
  if (fabric_->active_transfers() > 0) {
    env_->Schedule(step_, [this] { Tick(); });
  } else {
    running_ = false;
  }
}

}  // namespace skyrise::net
