// node2vec biased random walks (Grover & Leskovec, KDD 2016) — the walk
// generator behind #GraphEmbedClust (Section 4.1 of the paper).
//
// Walks are second-order: the transition from `cur` after arriving from
// `prev` weights each neighbour x by  w(cur,x) * bias, with bias 1/p if
// x == prev (return), 1 if x is adjacent to prev (BFS-like), and 1/q
// otherwise (DFS-like). The graph is traversed as undirected, matching the
// reference implementation's treatment of ownership edges.
#pragma once

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/run_context.h"
#include "graph/property_graph.h"

namespace vadalink::embed {

struct WalkConfig {
  size_t walk_length = 20;
  size_t walks_per_node = 8;
  double p = 1.0;  // return parameter
  double q = 1.0;  // in-out parameter
  /// Edge property to use as transition weight; unset/absent weights are 1.
  std::string weight_property = "w";
  uint64_t seed = 42;
};

/// Undirected weighted adjacency snapshot of a property graph, with sorted
/// neighbour arrays for O(log d) adjacency tests.
class WalkGraph {
 public:
  WalkGraph(const graph::PropertyGraph& g, const std::string& weight_property);

  size_t node_count() const { return adj_.size(); }
  const std::vector<uint32_t>& neighbors(uint32_t v) const { return adj_[v]; }
  const std::vector<double>& weights(uint32_t v) const { return wgt_[v]; }
  bool HasEdge(uint32_t a, uint32_t b) const;

 private:
  std::vector<std::vector<uint32_t>> adj_;  // sorted
  std::vector<std::vector<double>> wgt_;    // aligned with adj_
};

/// Generates node2vec walks; each walk is a sequence of node ids. Isolated
/// nodes yield length-1 walks (their id alone). An optional RunContext is
/// polled between walks (one work unit each); when it trips, generation
/// stops cooperatively and the walks produced so far are returned.
///
/// Each of the walks_per_node rounds visits every node once, in an order
/// shuffled by Rng(config.seed). The walk from `start` in round `r` draws
/// from its own Rng(ChunkSeed(seed, r, start)), the visits run over chunks
/// of `pool` (inline on a null or 1-thread pool), and the walks are
/// appended in visit order. The output therefore depends only on the
/// graph and the config, never on the thread count or the grain.
///
/// `metrics` (nullable) receives the embed.walks.generated counter and
/// the embed.walk.length histogram, both counted in visit order outside
/// the workers.
std::vector<std::vector<uint32_t>> GenerateWalks(
    const WalkGraph& graph, const WalkConfig& config,
    const RunContext* run_ctx = nullptr, ThreadPool* pool = nullptr,
    MetricsRegistry* metrics = nullptr);

}  // namespace vadalink::embed
