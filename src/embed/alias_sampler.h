// Walker's alias method: O(1) sampling from a fixed discrete distribution
// after O(n) setup. Used by the node2vec walk generator and the skip-gram
// negative-sampling table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace vadalink::embed {

class AliasSampler {
 public:
  AliasSampler() = default;

  /// Builds the alias table for (unnormalised, non-negative) weights.
  /// An empty or all-zero weight vector yields an empty sampler.
  explicit AliasSampler(const std::vector<double>& weights);

  bool empty() const { return prob_.empty(); }
  size_t size() const { return prob_.size(); }

  /// Samples an index in [0, size()). Precondition: !empty().
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> prob_;
  std::vector<uint32_t> alias_;
  uint64_t threshold_ = 0;  // Rng::RejectionThreshold(size()), fixed
};

}  // namespace vadalink::embed
