#include "embed/kmeans.h"

#include <cmath>
#include <limits>

namespace vadalink::embed {

namespace {

double SqDist(const float* x, const double* c, size_t dims) {
  double s = 0.0;
  for (size_t d = 0; d < dims; ++d) {
    double diff = static_cast<double>(x[d]) - c[d];
    s += diff * diff;
  }
  return s;
}

}  // namespace

KMeansResult KMeans(const EmbeddingMatrix& matrix, const KMeansConfig& config,
                    const RunContext* run_ctx, ThreadPool* pool,
                    MetricsRegistry* metrics) {
  KMeansResult res;
  const size_t n = matrix.node_count();
  const size_t dims = matrix.dimensions();
  res.assignment.assign(n, 0);
  if (n == 0) return res;

  const size_t k = std::min(config.k == 0 ? 1 : config.k, n);
  res.k_effective = k;
  Rng rng(config.seed);

  // k-means++ seeding.
  std::vector<double> centroids(k * dims, 0.0);
  std::vector<double> min_sq(n, std::numeric_limits<double>::max());
  size_t first = rng.UniformU64(n);
  for (size_t d = 0; d < dims; ++d) {
    centroids[d] = matrix.row(first)[d];
  }
  for (size_t c = 1; c < k; ++c) {
    // Update distances to the nearest chosen centroid (disjoint per-point
    // writes), then total them in point order. Inner loops never poll the
    // RunContext: governor trips keep their iteration-level granularity.
    const double* last = centroids.data() + (c - 1) * dims;
    ParallelFor(pool, n, 0, nullptr, [&](size_t begin, size_t end, size_t) {
      for (size_t v = begin; v < end; ++v) {
        double d2 = SqDist(matrix.row(v), last, dims);
        if (d2 < min_sq[v]) min_sq[v] = d2;
      }
      return Status::OK();
    });
    double total = 0.0;
    for (size_t v = 0; v < n; ++v) total += min_sq[v];
    size_t chosen;
    if (total <= 0.0) {
      chosen = rng.UniformU64(n);  // all points coincide
    } else {
      double target = rng.UniformDouble() * total;
      double acc = 0.0;
      chosen = n - 1;
      for (size_t v = 0; v < n; ++v) {
        acc += min_sq[v];
        if (target < acc) {
          chosen = v;
          break;
        }
      }
    }
    double* dst = centroids.data() + c * dims;
    for (size_t d = 0; d < dims; ++d) dst[d] = matrix.row(chosen)[d];
  }

  // Lloyd iterations.
  std::vector<size_t> counts(k);
  std::vector<double> sums(k * dims);
  // Squared distance of each point to its assigned centroid, refreshed by
  // every assignment pass. Feeds the empty-cluster reseed below.
  std::vector<double> dists(n, 0.0);
  double prev_inertia = std::numeric_limits<double>::max();
  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    if (!ConsumeRunWork(run_ctx, 1).ok()) {
      res.interrupted = true;
      break;
    }
    res.iterations = iter + 1;
    // Assign every point to its nearest centroid (disjoint per-point
    // writes), then add the counts, sums and inertia in point order.
    ParallelFor(pool, n, 0, nullptr, [&](size_t begin, size_t end, size_t) {
      for (size_t v = begin; v < end; ++v) {
        double best = std::numeric_limits<double>::max();
        uint32_t best_c = 0;
        for (size_t c = 0; c < k; ++c) {
          double d2 =
              SqDist(matrix.row(v), centroids.data() + c * dims, dims);
          if (d2 < best) {
            best = d2;
            best_c = static_cast<uint32_t>(c);
          }
        }
        res.assignment[v] = best_c;
        dists[v] = best;
      }
      return Status::OK();
    });
    double inertia = 0.0;
    std::fill(counts.begin(), counts.end(), 0);
    std::fill(sums.begin(), sums.end(), 0.0);
    for (size_t v = 0; v < n; ++v) {
      const uint32_t c = res.assignment[v];
      inertia += dists[v];
      ++counts[c];
      double* sum = sums.data() + c * dims;
      const float* row = matrix.row(v);
      for (size_t d = 0; d < dims; ++d) sum[d] += row[d];
    }
    // Move non-empty centroids to their means first, then re-seed each
    // empty cluster at the point farthest from its assigned centroid
    // (deterministic: strict > keeps the lowest index on ties, and the
    // chosen point's distance is zeroed so successive empty clusters pick
    // distinct points). The previous random reseed left the rest of the
    // iteration deterministic but could re-land on a covered region and
    // freeze the effective cluster count below k.
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      double* dst = centroids.data() + c * dims;
      const double* sum = sums.data() + c * dims;
      for (size_t d = 0; d < dims; ++d) {
        dst[d] = sum[d] / static_cast<double>(counts[c]);
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] != 0) continue;
      size_t farthest = 0;
      double far_d = -1.0;
      for (size_t v = 0; v < n; ++v) {
        if (dists[v] > far_d) {
          far_d = dists[v];
          farthest = v;
        }
      }
      double* dst = centroids.data() + c * dims;
      for (size_t d = 0; d < dims; ++d) dst[d] = matrix.row(farthest)[d];
      dists[farthest] = 0.0;
      ++res.empty_reseeds;
    }
    res.inertia = inertia;
    if (prev_inertia < std::numeric_limits<double>::max()) {
      double rel = prev_inertia > 0.0
                       ? (prev_inertia - inertia) / prev_inertia
                       : 0.0;
      if (rel >= 0.0 && rel < config.tolerance) break;
    }
    prev_inertia = inertia;
  }
  res.centroids = std::move(centroids);
  MetricAdd(metrics, "embed.kmeans.iterations", res.iterations);
  MetricAdd(metrics, "embed.kmeans.reseeds", res.empty_reseeds);
  if (res.interrupted) MetricAdd(metrics, "embed.kmeans.interrupts", 1);
  MetricSet(metrics, "embed.kmeans.inertia", res.inertia);
  MetricSet(metrics, "embed.kmeans.k_effective",
            static_cast<double>(res.k_effective));
  return res;
}

}  // namespace vadalink::embed
