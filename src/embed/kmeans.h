// Lloyd's k-means with k-means++ seeding over embedding rows. Assigns the
// first-level cluster ids (b1) of the paper's two-level blocking.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "embed/skipgram.h"

namespace vadalink::embed {

struct KMeansConfig {
  size_t k = 8;
  size_t max_iterations = 50;
  /// Relative decrease of total inertia below which iteration stops.
  double tolerance = 1e-4;
  uint64_t seed = 99;
};

struct KMeansResult {
  /// node -> cluster id in [0, k_effective)
  std::vector<uint32_t> assignment;
  /// centroids, row-major k x dims
  std::vector<double> centroids;
  size_t k_effective = 0;  // min(k, #points)
  double inertia = 0.0;    // sum of squared distances to centroids
  size_t iterations = 0;
  /// Empty clusters re-seeded during Lloyd iteration (each is moved to
  /// the point farthest from its assigned centroid — deterministic, no
  /// RNG draw — so cluster counts cannot silently freeze below k).
  size_t empty_reseeds = 0;
  /// True when a RunContext stopped Lloyd iteration before convergence;
  /// the assignment of the last completed iteration is still returned.
  bool interrupted = false;
};

/// Clusters the rows of `matrix`. k is capped at the number of points. An
/// optional RunContext is polled per Lloyd iteration (one work unit each).
///
/// The seeding distance pass and the Lloyd assignment step write each
/// point's distance and cluster over point chunks of `pool` (inline on a
/// null or 1-thread pool); the seeding total, cluster counts, sums and
/// inertia are then added in point order. The result is therefore
/// identical, bit for bit, at every thread count and grain. The
/// RunContext is polled only between Lloyd iterations, so governor trips
/// keep iteration granularity.
///
/// `metrics` (nullable) receives embed.kmeans.iterations /
/// embed.kmeans.reseeds counters and the embed.kmeans.inertia gauge.
KMeansResult KMeans(const EmbeddingMatrix& matrix, const KMeansConfig& config,
                    const RunContext* run_ctx = nullptr,
                    ThreadPool* pool = nullptr,
                    MetricsRegistry* metrics = nullptr);

}  // namespace vadalink::embed
