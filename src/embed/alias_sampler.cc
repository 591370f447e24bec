#include "embed/alias_sampler.h"

#include <cassert>

namespace vadalink::embed {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    assert(w >= 0.0);
    total += w;
  }
  if (weights.empty() || total <= 0.0) return;

  const size_t n = weights.size();
  prob_.resize(n);
  alias_.assign(n, 0);
  threshold_ = Rng::RejectionThreshold(n);

  std::vector<double> scaled(n);
  for (size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
  }
  std::vector<uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    uint32_t s = small.back();
    small.pop_back();
    uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = scaled[l] + scaled[s] - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  for (uint32_t i : large) prob_[i] = 1.0;
  for (uint32_t i : small) prob_[i] = 1.0;
}

size_t AliasSampler::Sample(Rng* rng) const {
  size_t i = rng->UniformU64(prob_.size(), threshold_);
  return rng->UniformDouble() < prob_[i] ? i : alias_[i];
}

}  // namespace vadalink::embed
