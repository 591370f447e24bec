// #GraphEmbedClust — the paper's first-level clustering (Section 4.1):
// node2vec walks -> skip-gram embeddings -> k-means assignments.
#pragma once

#include <cstdint>
#include <vector>

#include "common/parallel.h"
#include "common/run_context.h"
#include "common/status.h"
#include "embed/kmeans.h"
#include "embed/node2vec.h"
#include "embed/skipgram.h"
#include "graph/property_graph.h"

namespace vadalink::embed {

struct EmbedClusterConfig {
  WalkConfig walk;
  SkipGramConfig skipgram;
  KMeansConfig kmeans;
};

/// End-to-end embedding-based clusterer.
class EmbedClusterer {
 public:
  explicit EmbedClusterer(EmbedClusterConfig config = {})
      : config_(std::move(config)) {}

  const EmbedClusterConfig& config() const { return config_; }
  EmbedClusterConfig* mutable_config() { return &config_; }

  /// Embeds the graph and clusters the nodes. Returns one cluster id per
  /// node, or kInvalidArgument when the configuration is unusable (zero
  /// embedding dimensions, skip-gram window or walk length). Recomputed
  /// from scratch at each call (the recursive self-improving loop of
  /// Algorithm 1 calls this once per round, with the newly predicted edges
  /// present in `g`). An optional RunContext bounds the walk / training /
  /// clustering stages; when it trips mid-pipeline the call still succeeds
  /// with a full-length (possibly degenerate) assignment and
  /// last_interrupted() reports the truncation so callers can fall back
  /// (VadaLink degrades to feature-blocking-only for the round). An
  /// optional multi-thread `pool` parallelizes walks, skip-gram training
  /// and k-means (see the stage headers for each stage's determinism
  /// contract). `metrics` (nullable) flows into every stage and wraps them
  /// in walks / skipgram / kmeans spans nested under the caller's current
  /// span.
  Result<std::vector<uint32_t>> Cluster(const graph::PropertyGraph& g,
                                        const RunContext* run_ctx = nullptr,
                                        ThreadPool* pool = nullptr,
                                        MetricsRegistry* metrics = nullptr);

  /// Embeddings of the last Cluster() call (empty before any call).
  const EmbeddingMatrix& last_embedding() const { return embedding_; }
  const KMeansResult& last_kmeans() const { return kmeans_; }
  /// True when the last Cluster() was cut short by its RunContext.
  bool last_interrupted() const { return interrupted_; }

 private:
  EmbedClusterConfig config_;
  EmbeddingMatrix embedding_;
  KMeansResult kmeans_;
  bool interrupted_ = false;
};

}  // namespace vadalink::embed
