// Deterministic pseudo-random number generation for simulators, generators
// and embedding training. All stochastic components of the library take an
// explicit Rng (or seed) so that experiments are reproducible run-to-run.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

namespace vadalink {

/// SplitMix64 PRNG (Steele, Lea & Flood 2014).
///
/// Small state, passes BigCrush, and — unlike std::mt19937 — has a stable
/// stream across standard library implementations, which matters for
/// reproducible synthetic datasets.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) : state_(seed) {}

  /// Next raw 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, n). Precondition: n > 0.
  uint64_t UniformU64(uint64_t n) {
    return UniformU64(n, RejectionThreshold(n));
  }

  /// UniformU64(n) with n's rejection threshold computed by the caller:
  /// hot loops that draw from one fixed range compute it once. Same
  /// stream, same values.
  uint64_t UniformU64(uint64_t n, uint64_t threshold) {
    // Rejection sampling to avoid modulo bias.
    for (;;) {
      uint64_t r = Next();
      if (r >= threshold) return r % n;
    }
  }

  /// Raw draws below this are rejected by UniformU64(n). Precondition:
  /// n > 0.
  static uint64_t RejectionThreshold(uint64_t n) {
    assert(n > 0);
    return (0ULL - n) % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    return lo + static_cast<int64_t>(
                    UniformU64(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Bernoulli trial with success probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Standard normal via Box-Muller (one value per call, cached pair).
  double Normal() {
    if (has_cached_normal_) {
      has_cached_normal_ = false;
      return cached_normal_;
    }
    double u1 = 0.0;
    while (u1 <= 1e-300) u1 = UniformDouble();
    double u2 = UniformDouble();
    double r = std::sqrt(-2.0 * std::log(u1));
    double theta = 2.0 * M_PI * u2;
    cached_normal_ = r * std::sin(theta);
    has_cached_normal_ = true;
    return r * std::cos(theta);
  }

  /// Normal with given mean and standard deviation.
  double Normal(double mean, double stddev) {
    return mean + stddev * Normal();
  }

  /// Geometric-ish power-law sample in [1, max]: P(k) ~ k^-alpha.
  /// Uses inverse transform on the continuous approximation.
  uint64_t PowerLaw(double alpha, uint64_t max_value) {
    assert(alpha > 1.0 && max_value >= 1);
    double u = UniformDouble();
    double exp = 1.0 - alpha;
    double lo = 1.0, hi = static_cast<double>(max_value) + 1.0;
    double x = std::pow(std::pow(lo, exp) +
                            u * (std::pow(hi, exp) - std::pow(lo, exp)),
                        1.0 / exp);
    uint64_t k = static_cast<uint64_t>(x);
    if (k < 1) k = 1;
    if (k > max_value) k = max_value;
    return k;
  }

  /// Uniformly selected index weighted by `weights` (need not be normalised).
  size_t WeightedIndex(const std::vector<double>& weights) {
    double total = 0.0;
    for (double w : weights) total += w;
    assert(total > 0.0);
    double target = UniformDouble() * total;
    double acc = 0.0;
    for (size_t i = 0; i < weights.size(); ++i) {
      acc += weights[i];
      if (target < acc) return i;
    }
    return weights.size() - 1;
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      size_t j = UniformU64(i);
      std::swap((*v)[i - 1], (*v)[j]);
    }
  }

  /// Reservoir-samples k distinct indices from [0, n).
  std::vector<size_t> SampleIndices(size_t n, size_t k) {
    if (k > n) k = n;
    std::vector<size_t> out(k);
    for (size_t i = 0; i < k; ++i) out[i] = i;
    for (size_t i = k; i < n; ++i) {
      size_t j = UniformU64(i + 1);
      if (j < k) out[j] = i;
    }
    return out;
  }

 private:
  uint64_t state_;
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace vadalink
