#include "embed/skipgram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "embed/alias_sampler.h"

namespace vadalink::embed {

double EmbeddingMatrix::Cosine(size_t a, size_t b) const {
  const float* x = row(a);
  const float* y = row(b);
  double dot = 0.0, nx = 0.0, ny = 0.0;
  for (size_t i = 0; i < dims_; ++i) {
    dot += static_cast<double>(x[i]) * y[i];
    nx += static_cast<double>(x[i]) * x[i];
    ny += static_cast<double>(y[i]) * y[i];
  }
  if (nx <= 0.0 || ny <= 0.0) return 0.0;
  return dot / (std::sqrt(nx) * std::sqrt(ny));
}

double EmbeddingMatrix::Distance(size_t a, size_t b) const {
  const float* x = row(a);
  const float* y = row(b);
  double s = 0.0;
  for (size_t i = 0; i < dims_; ++i) {
    double d = static_cast<double>(x[i]) - y[i];
    s += d * d;
  }
  return std::sqrt(s);
}

namespace {

/// Fast logistic via clamping; training is tolerant to the approximation.
inline double Sigmoid(double x) {
  if (x > 8.0) return 1.0;
  if (x < -8.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

// Matrix element access, templated so the hogwild path goes through
// relaxed atomics (plain loads/stores on x86, but TSan- and
// standard-clean) while the sequential path compiles to the exact
// pre-parallel float arithmetic.
template <bool kAtomic>
inline float LoadF(float* p) {
  if constexpr (kAtomic) {
    return std::atomic_ref<float>(*p).load(std::memory_order_relaxed);
  } else {
    return *p;
  }
}

template <bool kAtomic>
inline void StoreF(float* p, float v) {
  if constexpr (kAtomic) {
    std::atomic_ref<float>(*p).store(v, std::memory_order_relaxed);
  } else {
    *p = v;
  }
}

// Four floats in one SSE register (GCC/Clang vector extension). Its
// arithmetic is element-wise, so every lane rounds exactly like the scalar
// float expression it stands for.
typedef float Float4 __attribute__((vector_size(16)));

template <bool kAtomic>
inline Float4 Load4(float* p) {
  if constexpr (kAtomic) {
    return Float4{LoadF<true>(p), LoadF<true>(p + 1), LoadF<true>(p + 2),
                  LoadF<true>(p + 3)};
  } else {
    Float4 v;
    std::memcpy(&v, p, sizeof v);
    return v;
  }
}

template <bool kAtomic>
inline void Store4(float* p, Float4 v) {
  if constexpr (kAtomic) {
    for (int k = 0; k < 4; ++k) StoreF<true>(p + k, v[k]);
  } else {
    std::memcpy(p, &v, sizeof v);
  }
}

/// Widest run trained in one pass (1 + the default 5 negatives fit). A
/// longer run of distinct targets is split, which changes no result: none
/// of its updates touches a row another of its targets reads.
constexpr size_t kMaxRun = 8;

/// SGNS step for a run of N pairwise-distinct targets of one (center,
/// context) pair; `rows` are their context vectors. The pair's first run
/// starts with its positive target (label 1), every other target is a
/// negative (label 0). No update in a run touches a row another target of
/// it reads, and v_in only changes after the pair, so all N dot products
/// are taken first, in one pass over d. Each keeps its own double
/// accumulator summed in ascending d, as in one-target-at-a-time training;
/// N is a template argument so the unrolled accumulators stay in
/// registers. The updates then go 4 floats at a time, per element in
/// target order. The pair's gradient for v_in starts at zero in the first
/// run, is carried between runs in `grad`, and the last run adds it to
/// v_in.
template <bool kAtomic, size_t N>
void TrainRun(float* v_in, float* const* rows, bool first, bool last,
              size_t dims, double lr, float* grad) {
  double dot[N] = {};
  for (size_t d = 0; d < dims; ++d) {
    const float x = LoadF<kAtomic>(v_in + d);
#pragma GCC unroll 8
    for (size_t k = 0; k < N; ++k) {
      dot[k] += x * LoadF<kAtomic>(rows[k] + d);
    }
  }
  float g[N] = {};
#pragma GCC unroll 8
  for (size_t k = 0; k < N; ++k) {
    const double label = first && k == 0 ? 1.0 : 0.0;
    g[k] = static_cast<float>((label - Sigmoid(dot[k])) * lr);
  }
  size_t d = 0;
  for (; d + 4 <= dims; d += 4) {
    const Float4 vi = Load4<kAtomic>(v_in + d);
    Float4 gr = first ? Float4{} : Load4<false>(grad + d);
#pragma GCC unroll 8
    for (size_t k = 0; k < N; ++k) {
      const Float4 vo = Load4<kAtomic>(rows[k] + d);
      gr += g[k] * vo;
      Store4<kAtomic>(rows[k] + d, vo + g[k] * vi);
    }
    if (last) {
      Store4<kAtomic>(v_in + d, vi + gr);
    } else {
      Store4<false>(grad + d, gr);
    }
  }
  for (; d < dims; ++d) {
    const float vi = LoadF<kAtomic>(v_in + d);
    float gr = first ? 0.0f : grad[d];
    for (size_t k = 0; k < N; ++k) {
      const float vo = LoadF<kAtomic>(rows[k] + d);
      gr += g[k] * vo;
      StoreF<kAtomic>(rows[k] + d, vo + g[k] * vi);
    }
    if (last) {
      StoreF<kAtomic>(v_in + d, vi + gr);
    } else {
      grad[d] = gr;
    }
  }
}

/// TrainRun for a run of n targets, 1 <= n <= kMaxRun.
template <bool kAtomic>
void TrainRunOf(size_t n, float* v_in, float* const* rows, bool first,
                bool last, size_t dims, double lr, float* grad) {
  switch (n) {
    case 1:
      return TrainRun<kAtomic, 1>(v_in, rows, first, last, dims, lr, grad);
    case 2:
      return TrainRun<kAtomic, 2>(v_in, rows, first, last, dims, lr, grad);
    case 3:
      return TrainRun<kAtomic, 3>(v_in, rows, first, last, dims, lr, grad);
    case 4:
      return TrainRun<kAtomic, 4>(v_in, rows, first, last, dims, lr, grad);
    case 5:
      return TrainRun<kAtomic, 5>(v_in, rows, first, last, dims, lr, grad);
    case 6:
      return TrainRun<kAtomic, 6>(v_in, rows, first, last, dims, lr, grad);
    case 7:
      return TrainRun<kAtomic, 7>(v_in, rows, first, last, dims, lr, grad);
    default:
      return TrainRun<kAtomic, 8>(v_in, rows, first, last, dims, lr, grad);
  }
}

/// SGNS updates for every position of one walk. `step` is the global lr
/// position counter: shared by all walks in the sequential path,
/// precomputed per walk (epoch * positions + positions_before[walk]) in
/// the hogwild path so both paths follow the same schedule.
template <bool kAtomic>
void TrainOneWalk(const std::vector<uint32_t>& walk, float* in_data,
                  float* out_data, size_t dims, const SkipGramConfig& config,
                  const AliasSampler& negative_table, Rng& rng,
                  std::vector<float>& grad, size_t& step, size_t total_steps) {
  std::vector<uint32_t> targets;
  targets.reserve(1 + config.negatives);
  const uint64_t window_threshold = Rng::RejectionThreshold(config.window);
  for (size_t i = 0; i < walk.size(); ++i) {
    double progress = static_cast<double>(step++) / total_steps;
    double lr = config.initial_lr * (1.0 - progress);
    if (lr < config.min_lr) lr = config.min_lr;

    // Dynamic window, as in word2vec.
    size_t reduced = 1 + rng.UniformU64(config.window, window_threshold);
    size_t lo = i >= reduced ? i - reduced : 0;
    size_t hi = std::min(walk.size(), i + reduced + 1);
    uint32_t center = walk[i];
    float* v_in = in_data + static_cast<size_t>(center) * dims;

    for (size_t j = lo; j < hi; ++j) {
      if (j == i) continue;
      uint32_t context = walk[j];
      // One positive + k negative targets on the context matrix; a
      // negative drawn equal to the context is skipped.
      targets.assign(1, context);
      for (size_t s = 0; s < config.negatives; ++s) {
        uint32_t target = static_cast<uint32_t>(negative_table.Sample(&rng));
        if (target != context) targets.push_back(target);
      }
      // Runs of distinct targets: a repeated id starts a new run, so its
      // dot product sees the earlier update to its row.
      for (size_t begin = 0; begin < targets.size();) {
        float* rows[kMaxRun] = {};
        size_t n = 0;
        for (; n < kMaxRun && begin + n < targets.size(); ++n) {
          const auto run = targets.begin() + begin;
          if (std::find(run, run + n, run[n]) != run + n) break;
          rows[n] = out_data + static_cast<size_t>(run[n]) * dims;
        }
        TrainRunOf<kAtomic>(n, v_in, rows, begin == 0,
                            begin + n == targets.size(), dims, lr,
                            grad.data());
        begin += n;
      }
    }
  }
}

}  // namespace

EmbeddingMatrix TrainSkipGram(const std::vector<std::vector<uint32_t>>& walks,
                              size_t node_count, const SkipGramConfig& config,
                              const RunContext* run_ctx, ThreadPool* pool,
                              MetricsRegistry* metrics) {
  const size_t dims = config.dimensions;
  EmbeddingMatrix in(node_count, dims);  // input ("center") vectors
  std::vector<float> out(node_count * dims, 0.0f);  // context vectors

  Rng rng(config.seed);
  for (size_t v = 0; v < node_count; ++v) {
    float* r = in.row(v);
    for (size_t d = 0; d < dims; ++d) {
      r[d] = static_cast<float>((rng.UniformDouble() - 0.5) / dims);
    }
  }

  // Unigram^power negative-sampling table.
  std::vector<double> freq(node_count, 0.0);
  size_t total_positions = 0;
  for (const auto& walk : walks) {
    for (uint32_t v : walk) {
      freq[v] += 1.0;
      ++total_positions;
    }
  }
  for (double& f : freq) f = std::pow(f, config.unigram_power);
  AliasSampler negative_table(freq);
  if (negative_table.empty() || total_positions == 0) return in;

  const size_t total_steps = config.epochs * total_positions;
  float* in_data = in.row(0);
  auto record_epoch = [&]() {
    MetricAdd(metrics, "embed.skipgram.epochs", 1);
    MetricAdd(metrics, "embed.skipgram.positions", total_positions);
  };

  if (pool != nullptr && pool->thread_count() > 1) {
    // Hogwild path: lr positions are precomputed per walk so the schedule
    // matches the sequential step counting regardless of execution order.
    std::vector<size_t> positions_before(walks.size() + 1, 0);
    for (size_t w = 0; w < walks.size(); ++w) {
      positions_before[w + 1] = positions_before[w] + walks[w].size();
    }
    for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
      Status st = ParallelFor(
          pool, walks.size(), 0, run_ctx,
          [&](size_t begin, size_t end, size_t chunk) {
            Rng chunk_rng(ChunkSeed(config.seed, epoch, chunk));
            std::vector<float> grad(dims);
            for (size_t w = begin; w < end; ++w) {
              VL_RETURN_NOT_OK(CheckRun(run_ctx));
              size_t step = epoch * total_positions + positions_before[w];
              TrainOneWalk<true>(walks[w], in_data, out.data(), dims, config,
                                 negative_table, chunk_rng, grad, step,
                                 total_steps);
            }
            return Status::OK();
          });
      if (!st.ok()) return in;  // cooperative stop: partial embeddings
      record_epoch();
    }
    return in;
  }

  size_t step = 0;
  std::vector<float> grad(dims);
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& walk : walks) {
      if (!CheckRun(run_ctx).ok()) return in;
      TrainOneWalk<false>(walk, in_data, out.data(), dims, config,
                          negative_table, rng, grad, step, total_steps);
    }
    record_epoch();
  }
  return in;
}

}  // namespace vadalink::embed
