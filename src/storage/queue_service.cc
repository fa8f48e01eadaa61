#include "storage/queue_service.h"

#include <utility>

namespace skyrise::storage {

QueueService::QueueService(sim::SimEnvironment* env, const Options& options)
    : env_(env), opt_(options) {}

void QueueService::Arrive(const std::string& name, int expected,
                          std::function<void()> on_release) {
  SKYRISE_CHECK(expected >= 1);
  Barrier& barrier = barriers_[name];
  barrier.expected = expected;
  barrier.waiters.push_back(std::move(on_release));
  if (static_cast<int>(barrier.waiters.size()) < expected) return;
  // All arrived: release everyone after one poll round-trip each. Waiters
  // discover the condition on their next poll, so release times spread over
  // one polling interval.
  std::vector<std::function<void()>> waiters = std::move(barrier.waiters);
  barriers_.erase(name);
  for (size_t i = 0; i < waiters.size(); ++i) {
    const SimDuration jitter =
        static_cast<SimDuration>(static_cast<double>(opt_.poll_interval) *
                                 static_cast<double>(i) /
                                 static_cast<double>(waiters.size()));
    env_->Schedule(opt_.poll_latency_median + jitter, std::move(waiters[i]));
  }
}

void QueueService::Push(const std::string& queue, std::string message,
                        std::function<void()> on_done) {
  env_->Schedule(opt_.poll_latency_median,
                 [this, queue, message = std::move(message),
                  on_done = std::move(on_done)]() mutable {
                   queues_[queue].push_back(std::move(message));
                   if (on_done) on_done();
                 });
}

void QueueService::Pop(const std::string& queue,
                       std::function<void(bool, std::string)> on_done) {
  env_->Schedule(opt_.poll_latency_median,
                 [this, queue, on_done = std::move(on_done)] {
                   auto& q = queues_[queue];
                   if (q.empty()) {
                     on_done(false, "");
                     return;
                   }
                   std::string msg = std::move(q.front());
                   q.erase(q.begin());
                   on_done(true, std::move(msg));
                 });
}

int64_t QueueService::Depth(const std::string& queue) const {
  auto it = queues_.find(queue);
  return it == queues_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

}  // namespace skyrise::storage
