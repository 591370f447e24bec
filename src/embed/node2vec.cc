#include "embed/node2vec.h"

#include <algorithm>

namespace vadalink::embed {

WalkGraph::WalkGraph(const graph::PropertyGraph& g,
                     const std::string& weight_property) {
  const size_t n = g.node_count();
  adj_.resize(n);
  wgt_.resize(n);

  // Collect undirected (neighbour, weight) pairs, then sort and merge
  // parallel edges by weight sum.
  std::vector<std::vector<std::pair<uint32_t, double>>> tmp(n);
  g.ForEachEdge([&](graph::EdgeId e) {
    uint32_t a = g.edge_src(e), b = g.edge_dst(e);
    if (a == b) return;  // self-loops do not contribute to walks
    const graph::PropertyValue& wp = g.GetEdgeProperty(e, weight_property);
    double w = wp.is_numeric() ? wp.AsNumber() : 1.0;
    if (w <= 0.0) w = 1e-9;
    tmp[a].push_back({b, w});
    tmp[b].push_back({a, w});
  });
  for (size_t v = 0; v < n; ++v) {
    auto& pairs = tmp[v];
    std::sort(pairs.begin(), pairs.end());
    adj_[v].reserve(pairs.size());
    wgt_[v].reserve(pairs.size());
    for (const auto& [u, w] : pairs) {
      if (!adj_[v].empty() && adj_[v].back() == u) {
        wgt_[v].back() += w;  // merge parallel edges
      } else {
        adj_[v].push_back(u);
        wgt_[v].push_back(w);
      }
    }
  }
}

bool WalkGraph::HasEdge(uint32_t a, uint32_t b) const {
  const auto& nbrs = adj_[a];
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

namespace {

// One biased walk from `start`, drawing every step from `rng`; `bias` is a
// caller-owned scratch buffer so hot loops do not reallocate.
std::vector<uint32_t> WalkFrom(const WalkGraph& graph,
                               const WalkConfig& config, uint32_t start,
                               Rng& rng, std::vector<double>& bias) {
  std::vector<uint32_t> walk{start};
  if (graph.neighbors(start).empty()) return walk;
  walk.reserve(config.walk_length);
  uint32_t prev = start;
  // First step: plain weighted choice.
  {
    const auto& w = graph.weights(start);
    size_t pick = rng.WeightedIndex(w);
    walk.push_back(graph.neighbors(start)[pick]);
  }
  while (walk.size() < config.walk_length) {
    uint32_t cur = walk.back();
    const auto& nbrs = graph.neighbors(cur);
    if (nbrs.empty()) break;
    const auto& w = graph.weights(cur);
    bias.resize(nbrs.size());
    for (size_t i = 0; i < nbrs.size(); ++i) {
      uint32_t x = nbrs[i];
      double factor;
      if (x == prev) {
        factor = 1.0 / config.p;
      } else if (graph.HasEdge(prev, x)) {
        factor = 1.0;
      } else {
        factor = 1.0 / config.q;
      }
      bias[i] = w[i] * factor;
    }
    size_t pick = rng.WeightedIndex(bias);
    prev = cur;
    walk.push_back(nbrs[pick]);
  }
  return walk;
}

}  // namespace

std::vector<std::vector<uint32_t>> GenerateWalks(const WalkGraph& graph,
                                                 const WalkConfig& config,
                                                 const RunContext* run_ctx,
                                                 ThreadPool* pool,
                                                 MetricsRegistry* metrics) {
  const size_t n = graph.node_count();
  std::vector<std::vector<uint32_t>> walks;
  walks.reserve(n * config.walks_per_node);
  MetricsCounter* walk_counter =
      metrics ? metrics->Counter("embed.walks.generated") : nullptr;
  MetricsHistogram* length_hist =
      metrics ? metrics->Histogram("embed.walk.length") : nullptr;

  // Node visit order is shuffled per round, as in the reference
  // implementation, so early-stopping effects do not bias low node ids.
  Rng order_rng(config.seed);
  std::vector<uint32_t> order(n);
  for (uint32_t v = 0; v < n; ++v) order[v] = v;
  for (size_t round = 0; round < config.walks_per_node; ++round) {
    order_rng.Shuffle(&order);
    // One slot per visit; each walk draws from its own (seed, round,
    // start) stream, so no walk depends on how the visits are chunked.
    std::vector<std::vector<uint32_t>> round_walks(n);
    Status st = ParallelFor(
        pool, n, 0, run_ctx, [&](size_t begin, size_t end, size_t) {
          std::vector<double> bias;  // reused across the chunk's walks
          for (size_t i = begin; i < end; ++i) {
            VL_RETURN_NOT_OK(ConsumeRunWork(run_ctx, 1));
            Rng rng(ChunkSeed(config.seed, round, order[i]));
            round_walks[i] = WalkFrom(graph, config, order[i], rng, bias);
          }
          return Status::OK();
        });
    // Appended and counted in visit order, outside the workers. A slot a
    // governor trip cut off stays empty (a walk holds at least its start).
    for (std::vector<uint32_t>& w : round_walks) {
      if (w.empty()) continue;
      if (walk_counter != nullptr) walk_counter->Increment();
      if (length_hist != nullptr) length_hist->Record(w.size());
      walks.push_back(std::move(w));
    }
    if (!st.ok()) return walks;  // cooperative stop: partial walks
  }
  return walks;
}

}  // namespace vadalink::embed
