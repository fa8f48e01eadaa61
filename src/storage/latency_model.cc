#include "storage/latency_model.h"

#include <algorithm>
#include <cmath>

namespace skyrise::storage {

LatencyProfile LatencyProfile::FromMedianP95(double median_ms, double p95_ms) {
  LatencyProfile p;
  p.median_ms = median_ms;
  p.sigma = std::log(p95_ms / median_ms) / 1.6449;  // z(0.95).
  return p;
}

SimDuration SampleLatency(const LatencyProfile& profile, Rng* rng) {
  double ms;
  if (profile.tail_probability > 0 && rng->Bernoulli(profile.tail_probability)) {
    ms = rng->Pareto(profile.tail_scale_ms, profile.tail_alpha);
  } else {
    ms = rng->LognormalMedianSigma(profile.median_ms, profile.sigma);
  }
  ms = std::max(ms, profile.min_ms);
  return Millis(ms);
}

}  // namespace skyrise::storage
