// embed/: alias sampling, node2vec walks, skip-gram training, k-means.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "embed/alias_sampler.h"
#include "embed/embed_clusterer.h"
#include "embed/kmeans.h"
#include "embed/node2vec.h"
#include "embed/skipgram.h"
#include "gen/register_simulator.h"

namespace vadalink::embed {
namespace {

// ---- alias sampler ------------------------------------------------------------

TEST(AliasSamplerTest, EmptyAndZeroWeights) {
  EXPECT_TRUE(AliasSampler(std::vector<double>{}).empty());
  EXPECT_TRUE(AliasSampler(std::vector<double>{0.0, 0.0}).empty());
}

TEST(AliasSamplerTest, MatchesDistribution) {
  AliasSampler sampler({1.0, 2.0, 7.0});
  Rng rng(11);
  std::map<size_t, size_t> counts;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) ++counts[sampler.Sample(&rng)];
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.2, 0.01);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.7, 0.01);
}

TEST(AliasSamplerTest, SingleOutcome) {
  AliasSampler sampler({5.0});
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sampler.Sample(&rng), 0u);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({1.0, 0.0, 1.0});
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) EXPECT_NE(sampler.Sample(&rng), 1u);
}

// ---- walks ----------------------------------------------------------------------

graph::PropertyGraph PathGraph(size_t n) {
  graph::PropertyGraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode("N");
  for (size_t i = 0; i + 1 < n; ++i) {
    auto e = g.AddEdge(static_cast<graph::NodeId>(i),
                       static_cast<graph::NodeId>(i + 1), "E");
    g.SetEdgeProperty(e.value(), "w", 1.0);
  }
  return g;
}

TEST(WalkGraphTest, UndirectedView) {
  auto g = PathGraph(3);
  WalkGraph wg(g, "w");
  EXPECT_EQ(wg.neighbors(1).size(), 2u);  // sees both 0 and 2
  EXPECT_TRUE(wg.HasEdge(1, 0));
  EXPECT_TRUE(wg.HasEdge(0, 1));
  EXPECT_FALSE(wg.HasEdge(0, 2));
}

TEST(WalkGraphTest, SelfLoopsIgnored) {
  graph::PropertyGraph g;
  auto a = g.AddNode("N");
  auto e = g.AddEdge(a, a, "E");
  g.SetEdgeProperty(e.value(), "w", 1.0);
  WalkGraph wg(g, "w");
  EXPECT_TRUE(wg.neighbors(a).empty());
}

TEST(WalkGraphTest, ParallelEdgesMerged) {
  graph::PropertyGraph g;
  auto a = g.AddNode("N"), b = g.AddNode("N");
  auto e1 = g.AddEdge(a, b, "E");
  g.SetEdgeProperty(e1.value(), "w", 0.3);
  auto e2 = g.AddEdge(a, b, "E");
  g.SetEdgeProperty(e2.value(), "w", 0.2);
  WalkGraph wg(g, "w");
  ASSERT_EQ(wg.neighbors(a).size(), 1u);
  EXPECT_NEAR(wg.weights(a)[0], 0.5, 1e-12);
}

TEST(GenerateWalksTest, CountAndLength) {
  auto g = PathGraph(10);
  WalkGraph wg(g, "w");
  WalkConfig cfg;
  cfg.walk_length = 5;
  cfg.walks_per_node = 3;
  auto walks = GenerateWalks(wg, cfg);
  EXPECT_EQ(walks.size(), 30u);
  for (const auto& w : walks) {
    EXPECT_GE(w.size(), 1u);
    EXPECT_LE(w.size(), 5u);
    // Consecutive nodes must be adjacent.
    for (size_t i = 0; i + 1 < w.size(); ++i) {
      EXPECT_TRUE(wg.HasEdge(w[i], w[i + 1]));
    }
  }
}

TEST(GenerateWalksTest, IsolatedNodesSingletonWalks) {
  graph::PropertyGraph g;
  g.AddNode("N");
  g.AddNode("N");
  WalkGraph wg(g, "w");
  WalkConfig cfg;
  cfg.walks_per_node = 2;
  auto walks = GenerateWalks(wg, cfg);
  EXPECT_EQ(walks.size(), 4u);
  for (const auto& w : walks) EXPECT_EQ(w.size(), 1u);
}

TEST(GenerateWalksTest, Deterministic) {
  auto g = PathGraph(8);
  WalkGraph wg(g, "w");
  WalkConfig cfg;
  cfg.seed = 77;
  auto a = GenerateWalks(wg, cfg);
  auto b = GenerateWalks(wg, cfg);
  EXPECT_EQ(a, b);
}

TEST(GenerateWalksTest, ReturnParameterBiasesBacktracking) {
  // With tiny p, walks should revisit the previous node very often on a
  // path graph; with huge p, almost never.
  auto g = PathGraph(30);
  WalkGraph wg(g, "w");
  auto backtrack_rate = [&](double p) {
    WalkConfig cfg;
    cfg.p = p;
    cfg.q = 1.0;
    cfg.walk_length = 10;
    cfg.walks_per_node = 5;
    cfg.seed = 5;
    auto walks = GenerateWalks(wg, cfg);
    size_t backtracks = 0, steps = 0;
    for (const auto& w : walks) {
      for (size_t i = 2; i < w.size(); ++i) {
        ++steps;
        if (w[i] == w[i - 2]) ++backtracks;
      }
    }
    return steps == 0 ? 0.0 : static_cast<double>(backtracks) / steps;
  };
  EXPECT_GT(backtrack_rate(0.05), backtrack_rate(20.0) + 0.2);
}

// ---- skip-gram ------------------------------------------------------------------

graph::PropertyGraph TwoCliques(size_t k) {
  // Two k-cliques joined by a single bridge edge.
  graph::PropertyGraph g;
  for (size_t i = 0; i < 2 * k; ++i) g.AddNode("N");
  auto connect = [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      for (size_t j = i + 1; j < hi; ++j) {
        auto e = g.AddEdge(static_cast<graph::NodeId>(i),
                           static_cast<graph::NodeId>(j), "E");
        g.SetEdgeProperty(e.value(), "w", 1.0);
      }
    }
  };
  connect(0, k);
  connect(k, 2 * k);
  auto e = g.AddEdge(0, static_cast<graph::NodeId>(k), "E");
  g.SetEdgeProperty(e.value(), "w", 0.1);
  return g;
}

// Average cosine similarity of node pairs within a TwoCliques(k) clique
// (first) and across the two cliques (second).
std::pair<double, double> CliqueCosines(const EmbeddingMatrix& emb,
                                        size_t k) {
  double intra = 0, inter = 0;
  size_t ni = 0, nx = 0;
  for (size_t a = 0; a < 2 * k; ++a) {
    for (size_t b = a + 1; b < 2 * k; ++b) {
      bool same = (a < k) == (b < k);
      double c = emb.Cosine(a, b);
      if (same) {
        intra += c;
        ++ni;
      } else {
        inter += c;
        ++nx;
      }
    }
  }
  return {intra / ni, inter / nx};
}

TEST(SkipGramTest, CommunityStructureInEmbedding) {
  const size_t k = 6;
  auto g = TwoCliques(k);
  WalkGraph wg(g, "w");
  WalkConfig wc;
  wc.walk_length = 12;
  wc.walks_per_node = 20;
  wc.seed = 3;
  auto walks = GenerateWalks(wg, wc);
  SkipGramConfig sc;
  sc.dimensions = 16;
  sc.epochs = 3;
  sc.seed = 3;
  auto emb = TrainSkipGram(walks, g.node_count(), sc);

  // Average intra-clique cosine similarity should exceed inter-clique.
  auto [intra, inter] = CliqueCosines(emb, k);
  EXPECT_GT(intra, inter + 0.1);
}

TEST(SkipGramTest, ShapesAndDeterminism) {
  auto g = PathGraph(5);
  WalkGraph wg(g, "w");
  auto walks = GenerateWalks(wg, WalkConfig{});
  SkipGramConfig sc;
  sc.dimensions = 8;
  auto a = TrainSkipGram(walks, g.node_count(), sc);
  auto b = TrainSkipGram(walks, g.node_count(), sc);
  EXPECT_EQ(a.node_count(), 5u);
  EXPECT_EQ(a.dimensions(), 8u);
  for (size_t d = 0; d < 8; ++d) {
    EXPECT_FLOAT_EQ(a.row(2)[d], b.row(2)[d]);
  }
}

// The one-target-at-a-time scalar trainer that TrainSkipGram's sequential
// path ran before its per-pair batch kernel, copied verbatim (RNG order
// included): threads = 1 training must match it byte for byte.
double ReferenceSigmoid(double x) {
  if (x > 8.0) return 1.0;
  if (x < -8.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

void ReferenceTrainOneWalk(const std::vector<uint32_t>& walk, float* in_data,
                           float* out_data, size_t dims,
                           const SkipGramConfig& config,
                           const AliasSampler& negative_table, Rng& rng,
                           std::vector<float>& grad, size_t& step,
                           size_t total_steps) {
  for (size_t i = 0; i < walk.size(); ++i) {
    double progress = static_cast<double>(step++) / total_steps;
    double lr = config.initial_lr * (1.0 - progress);
    if (lr < config.min_lr) lr = config.min_lr;

    size_t reduced = 1 + rng.UniformU64(config.window);
    size_t lo = i >= reduced ? i - reduced : 0;
    size_t hi = std::min(walk.size(), i + reduced + 1);
    uint32_t center = walk[i];
    float* v_in = in_data + static_cast<size_t>(center) * dims;

    for (size_t j = lo; j < hi; ++j) {
      if (j == i) continue;
      uint32_t context = walk[j];
      std::fill(grad.begin(), grad.end(), 0.0f);

      for (size_t s = 0; s <= config.negatives; ++s) {
        uint32_t target;
        double label;
        if (s == 0) {
          target = context;
          label = 1.0;
        } else {
          target = static_cast<uint32_t>(negative_table.Sample(&rng));
          if (target == context) continue;
          label = 0.0;
        }
        float* v_out = out_data + static_cast<size_t>(target) * dims;
        double dot = 0.0;
        for (size_t d = 0; d < dims; ++d) {
          dot += v_in[d] * v_out[d];
        }
        double g = (label - ReferenceSigmoid(dot)) * lr;
        for (size_t d = 0; d < dims; ++d) {
          float vo = v_out[d];
          grad[d] += static_cast<float>(g) * vo;
          v_out[d] = vo + static_cast<float>(g) * v_in[d];
        }
      }
      for (size_t d = 0; d < dims; ++d) {
        v_in[d] = v_in[d] + grad[d];
      }
    }
  }
}

EmbeddingMatrix ReferenceTrainSkipGram(
    const std::vector<std::vector<uint32_t>>& walks, size_t node_count,
    const SkipGramConfig& config) {
  const size_t dims = config.dimensions;
  EmbeddingMatrix in(node_count, dims);
  std::vector<float> out(node_count * dims, 0.0f);

  Rng rng(config.seed);
  for (size_t v = 0; v < node_count; ++v) {
    float* r = in.row(v);
    for (size_t d = 0; d < dims; ++d) {
      r[d] = static_cast<float>((rng.UniformDouble() - 0.5) / dims);
    }
  }

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
  size_t step = 0;
  std::vector<float> grad(dims);
  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& walk : walks) {
      ReferenceTrainOneWalk(walk, in.row(0), out.data(), dims, config,
                            negative_table, rng, grad, step, total_steps);
    }
  }
  return in;
}

TEST(SkipGramTest, ThreadsOneMatchesScalarReferenceByteForByte) {
  // PathGraph(5): five nodes, so repeated negatives and negatives equal to
  // the context are common. The register: a realistic id spread.
  auto path = PathGraph(5);
  gen::RegisterConfig rc;
  rc.persons = 200;
  rc.companies = 150;
  rc.seed = 11;
  auto reg = gen::GenerateRegister(rc).graph;
  WalkConfig reg_walks;
  reg_walks.walks_per_node = 2;
  struct Case {
    const char* name;
    const graph::PropertyGraph* g;
    WalkConfig walk;
  };
  for (const Case& c : {Case{"path5", &path, WalkConfig{}},
                        Case{"register200", &reg, reg_walks}}) {
    auto walks = GenerateWalks(WalkGraph(*c.g, "w"), c.walk);
    for (size_t dims : {64, 7, 1}) {
      for (size_t negatives : {0, 5, 9}) {
        for (size_t window : {1, 5}) {
          SCOPED_TRACE(std::string(c.name) + " dims=" + std::to_string(dims) +
                       " negatives=" + std::to_string(negatives) +
                       " window=" + std::to_string(window));
          SkipGramConfig sc;
          sc.dimensions = dims;
          sc.negatives = negatives;
          sc.window = window;
          auto got = TrainSkipGram(walks, c.g->node_count(), sc);
          auto want = ReferenceTrainSkipGram(walks, c.g->node_count(), sc);
          ASSERT_EQ(got.node_count(), want.node_count());
          ASSERT_EQ(got.dimensions(), want.dimensions());
          EXPECT_EQ(std::memcmp(got.row(0), want.row(0),
                                got.node_count() * dims * sizeof(float)),
                    0);
        }
      }
    }
  }
}

TEST(ParallelSkipGramTest, HogwildTrainingKeepsCommunityStructure) {
  // Four threads, an odd width (7, not a multiple of the vector width) and
  // 9 negatives over 12 nodes, so concurrent chunks update shared rows.
  const size_t k = 6;
  auto g = TwoCliques(k);
  WalkConfig wc;
  wc.walk_length = 12;
  wc.walks_per_node = 20;
  wc.seed = 3;
  auto walks = GenerateWalks(WalkGraph(g, "w"), wc);
  SkipGramConfig sc;
  sc.dimensions = 7;
  sc.negatives = 9;
  sc.epochs = 3;
  sc.seed = 3;
  ThreadPool pool(4);
  auto emb = TrainSkipGram(walks, g.node_count(), sc, nullptr, &pool);
  ASSERT_EQ(emb.node_count(), 2 * k);
  ASSERT_EQ(emb.dimensions(), 7u);
  for (size_t v = 0; v < 2 * k; ++v) {
    for (size_t d = 0; d < 7; ++d) EXPECT_TRUE(std::isfinite(emb.row(v)[d]));
  }
  auto [intra, inter] = CliqueCosines(emb, k);
  EXPECT_GT(intra, inter + 0.1);
}

TEST(EmbeddingMatrixTest, CosineAndDistance) {
  EmbeddingMatrix m(2, 2);
  m.row(0)[0] = 1.0f;
  m.row(1)[1] = 2.0f;
  EXPECT_NEAR(m.Cosine(0, 1), 0.0, 1e-6);
  EXPECT_NEAR(m.Distance(0, 1), std::sqrt(5.0), 1e-6);
  EXPECT_NEAR(m.Cosine(0, 0), 1.0, 1e-6);
}

// ---- k-means ---------------------------------------------------------------------

TEST(KMeansTest, SeparatesObviousClusters) {
  EmbeddingMatrix m(40, 2);
  Rng rng(19);
  for (size_t i = 0; i < 40; ++i) {
    double cx = i < 20 ? 0.0 : 10.0;
    m.row(i)[0] = static_cast<float>(cx + rng.Normal() * 0.1);
    m.row(i)[1] = static_cast<float>(rng.Normal() * 0.1);
  }
  KMeansConfig cfg;
  cfg.k = 2;
  auto res = KMeans(m, cfg);
  EXPECT_EQ(res.k_effective, 2u);
  std::set<uint32_t> first, second;
  for (size_t i = 0; i < 20; ++i) first.insert(res.assignment[i]);
  for (size_t i = 20; i < 40; ++i) second.insert(res.assignment[i]);
  EXPECT_EQ(first.size(), 1u);
  EXPECT_EQ(second.size(), 1u);
  EXPECT_NE(*first.begin(), *second.begin());
}

TEST(KMeansTest, KCappedAtPoints) {
  EmbeddingMatrix m(3, 2);
  KMeansConfig cfg;
  cfg.k = 10;
  auto res = KMeans(m, cfg);
  EXPECT_EQ(res.k_effective, 3u);
}

TEST(KMeansTest, EmptyInput) {
  EmbeddingMatrix m;
  auto res = KMeans(m, KMeansConfig{});
  EXPECT_TRUE(res.assignment.empty());
}

TEST(KMeansTest, MoreClustersThanDistinctPointsTerminates) {
  // 8 points but only 2 distinct locations with k = 6: most clusters go
  // empty every iteration. The deterministic farthest-point reseed must
  // terminate (no RNG walk, no freeze) and return a valid assignment.
  EmbeddingMatrix m(8, 2);
  for (size_t i = 0; i < 8; ++i) {
    m.row(i)[0] = i < 4 ? 0.0f : 5.0f;
    m.row(i)[1] = 0.0f;
  }
  KMeansConfig cfg;
  cfg.k = 6;
  cfg.max_iterations = 50;
  auto res = KMeans(m, cfg);
  EXPECT_EQ(res.k_effective, 6u);
  EXPECT_EQ(res.assignment.size(), 8u);
  for (uint32_t c : res.assignment) EXPECT_LT(c, res.k_effective);
  EXPECT_GT(res.empty_reseeds, 0u);
  EXPECT_LE(res.iterations, cfg.max_iterations);
  // Two distinct locations -> a perfect clustering has zero inertia.
  EXPECT_DOUBLE_EQ(res.inertia, 0.0);
}

TEST(KMeansTest, ReseedIsDeterministic) {
  EmbeddingMatrix m(8, 2);
  Rng rng(31);
  for (size_t i = 0; i < 8; ++i) {
    m.row(i)[0] = static_cast<float>(i % 3);
    m.row(i)[1] = static_cast<float>(rng.UniformDouble(0, 0.01));
  }
  KMeansConfig cfg;
  cfg.k = 7;
  auto a = KMeans(m, cfg);
  auto b = KMeans(m, cfg);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.empty_reseeds, b.empty_reseeds);
  EXPECT_DOUBLE_EQ(a.inertia, b.inertia);
}

TEST(KMeansTest, PublishesMetrics) {
  EmbeddingMatrix m(20, 2);
  Rng rng(5);
  for (size_t i = 0; i < 20; ++i) {
    m.row(i)[0] = static_cast<float>(rng.UniformDouble(0, 10));
    m.row(i)[1] = static_cast<float>(rng.UniformDouble(0, 10));
  }
  KMeansConfig cfg;
  cfg.k = 4;
  MetricsRegistry metrics;
  auto res = KMeans(m, cfg, nullptr, nullptr, &metrics);
  EXPECT_EQ(metrics.CounterValue("embed.kmeans.iterations"), res.iterations);
  EXPECT_DOUBLE_EQ(metrics.GaugeValue("embed.kmeans.inertia"), res.inertia);
  EXPECT_DOUBLE_EQ(metrics.GaugeValue("embed.kmeans.k_effective"),
                   static_cast<double>(res.k_effective));
}

TEST(KMeansTest, InertiaDecreasesWithMoreClusters) {
  EmbeddingMatrix m(60, 3);
  Rng rng(23);
  for (size_t i = 0; i < 60; ++i) {
    for (size_t d = 0; d < 3; ++d) {
      m.row(i)[d] = static_cast<float>(rng.UniformDouble(0, 10));
    }
  }
  KMeansConfig c2;
  c2.k = 2;
  KMeansConfig c8;
  c8.k = 8;
  EXPECT_GT(KMeans(m, c2).inertia, KMeans(m, c8).inertia);
}

// ---- end-to-end clusterer ----------------------------------------------------------

TEST(EmbedClustererTest, AssignsEveryNode) {
  auto g = TwoCliques(5);
  EmbedClusterConfig cfg;
  cfg.kmeans.k = 2;
  cfg.skipgram.dimensions = 16;
  cfg.walk.walks_per_node = 10;
  EmbedClusterer clusterer(cfg);
  auto assignment_r = clusterer.Cluster(g);
  ASSERT_TRUE(assignment_r.ok()) << assignment_r.status().ToString();
  const auto& assignment = *assignment_r;
  ASSERT_EQ(assignment.size(), g.node_count());
  for (uint32_t c : assignment) EXPECT_LT(c, 2u);
  EXPECT_EQ(clusterer.last_embedding().node_count(), g.node_count());
}

TEST(EmbedClustererTest, ZeroWindowIsInvalidArgument) {
  gen::RegisterConfig rc;
  rc.persons = 30;
  rc.companies = 20;
  auto g = gen::GenerateRegister(rc).graph;
  EmbedClusterConfig cfg;
  cfg.skipgram.window = 0;
  EmbedClusterer clusterer(cfg);
  auto assignment = clusterer.Cluster(g);
  EXPECT_EQ(assignment.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vadalink::embed
