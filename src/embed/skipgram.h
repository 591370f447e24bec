// Skip-gram with negative sampling (word2vec SGNS, Mikolov et al. 2013)
// trained over node2vec walks: nodes play the role of words, walks the role
// of sentences. Produces the neighbourhood-preserving node embeddings the
// paper's first-level clustering operates on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_context.h"

namespace vadalink::embed {

struct SkipGramConfig {
  size_t dimensions = 64;
  /// Largest context distance; each position draws its window uniformly
  /// from [1, window]. Must be >= 1.
  size_t window = 5;
  size_t negatives = 5;       // negative samples per positive pair
  size_t epochs = 2;
  double initial_lr = 0.025;
  double min_lr = 0.0001;
  /// Exponent of the unigram distribution for negative sampling.
  double unigram_power = 0.75;
  uint64_t seed = 7;
};

/// Dense row-major embedding matrix: row v = vector of node v.
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(size_t nodes, size_t dims)
      : nodes_(nodes), dims_(dims), data_(nodes * dims, 0.0f) {}

  size_t node_count() const { return nodes_; }
  size_t dimensions() const { return dims_; }
  float* row(size_t v) { return data_.data() + v * dims_; }
  const float* row(size_t v) const { return data_.data() + v * dims_; }

  /// Cosine similarity between two rows (0 if either is a zero vector).
  double Cosine(size_t a, size_t b) const;

  /// Euclidean distance between two rows.
  double Distance(size_t a, size_t b) const;

 private:
  size_t nodes_ = 0;
  size_t dims_ = 0;
  std::vector<float> data_;
};

/// Trains SGNS embeddings over walks covering node ids [0, node_count).
/// Precondition: config.window >= 1 (0 would divide by zero drawing the
/// dynamic window; PipelineOptions::Validate and EmbedClusterer::Cluster
/// reject it). An optional RunContext is polled once per walk per epoch;
/// when it trips, training stops cooperatively and the partially trained
/// (still usable) embeddings are returned.
///
/// Each (center, context) pair trains as one batch: its targets (the
/// context, then the negatives in draw order) are drawn first, their dot
/// products are taken together for each run of distinct targets, and the
/// row updates go 4 floats at a time. Without a multi-thread `pool`,
/// training is sequential and byte-identical to one-target-at-a-time
/// SGNS: every dot product is still summed in ascending dimension order in
/// its own double, and the updates are element-wise.
///
/// With a multi-thread `pool`, epochs train hogwild-style (Niu et al.
/// 2011): walk chunks update the shared matrices concurrently through
/// relaxed atomics, each chunk sampling from its own ChunkSeed-derived
/// RNG and stepping the lr schedule from its walk's sequential position.
/// Lossy concurrent updates make the parallel result run-to-run
/// nondeterministic (SGNS quality is tolerant to this).
///
/// `metrics` (nullable) receives embed.skipgram.epochs (completed
/// epochs) and embed.skipgram.positions (walk positions trained by
/// completed epochs).
EmbeddingMatrix TrainSkipGram(const std::vector<std::vector<uint32_t>>& walks,
                              size_t node_count, const SkipGramConfig& config,
                              const RunContext* run_ctx = nullptr,
                              ThreadPool* pool = nullptr,
                              MetricsRegistry* metrics = nullptr);

}  // namespace vadalink::embed
