// Thread-count matrix: the pipeline stages produce the documented outputs
// at threads in {1, 2, 8} — identical walks, k-means results and
// committed links at every thread count, and graceful governor trips
// under parallelism.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "company/family.h"
#include "core/knowledge_graph.h"
#include "core/pipeline_options.h"
#include "core/vada_link.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "embed/kmeans.h"
#include "embed/node2vec.h"
#include "gen/register_simulator.h"
#include "linkage/bayes.h"
#include "linkage/blocking.h"
#include "tests/paper_fixtures.h"

namespace vadalink {
namespace {

using Edge = std::tuple<graph::NodeId, graph::NodeId, std::string>;

std::vector<Edge> EdgeList(const graph::PropertyGraph& g) {
  std::vector<Edge> out;
  g.ForEachEdge([&](graph::EdgeId e) {
    out.emplace_back(g.edge_src(e), g.edge_dst(e), g.edge_label(e));
  });
  return out;
}

graph::PropertyGraph SmallRegister(uint64_t seed = 7) {
  gen::RegisterConfig cfg;
  cfg.persons = 60;
  cfg.companies = 30;
  cfg.seed = seed;
  return gen::GenerateRegister(cfg).graph;
}

// ---- PipelineOptions -------------------------------------------------------

TEST(ParallelPipelineOptionsTest, DefaultsValidateAndFlowIntoStages) {
  core::PipelineOptions opts;
  EXPECT_TRUE(opts.Validate().ok());
  opts.parallel.threads = 8;
  opts.parallel.grain = 32;
  EXPECT_TRUE(opts.Validate().ok());
  // The shared ParallelOptions wins over whatever augment.parallel says.
  opts.augment.parallel.threads = 2;
  core::AugmentConfig effective = opts.EffectiveAugment();
  EXPECT_EQ(effective.parallel.threads, 8u);
  EXPECT_EQ(effective.parallel.grain, 32u);
}

TEST(ParallelPipelineOptionsTest, ValidateIsTheSingleRejectionPoint) {
  core::PipelineOptions opts;
  opts.parallel.threads = 100000;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  opts = core::PipelineOptions{};
  opts.augment.embedding.skipgram.dimensions = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  opts = core::PipelineOptions{};
  opts.augment.embedding.walk.walk_length = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  // A zero window would reach Rng::UniformU64(0), a division by zero.
  opts = core::PipelineOptions{};
  opts.augment.embedding.skipgram.window = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  opts = core::PipelineOptions{};
  opts.augment.max_rounds = 0;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);

  opts = core::PipelineOptions{};
  opts.augment.embed_deadline_fraction = 1.5;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
}

// ---- Augment ---------------------------------------------------------------

TEST(ParallelMatrixTest, AugmentCommittedLinksIdenticalAcrossThreadCounts) {
  // With the (hogwild, nondeterministic) embedding stage disabled, the
  // committed links are documented to be identical at every thread count.
  std::vector<std::vector<Edge>> results;
  std::vector<size_t> links_added;
  for (size_t threads : {1, 2, 8}) {
    auto g = SmallRegister();
    core::PipelineOptions opts;
    opts.parallel.threads = threads;
    opts.augment.max_rounds = 2;
    opts.augment.use_embedding = false;
    ASSERT_TRUE(opts.Validate().ok());
    auto vl = core::MakeDefaultVadaLink(opts.EffectiveAugment());
    auto stats = vl.Augment(&g);
    ASSERT_TRUE(stats.ok()) << "threads=" << threads << ": "
                            << stats.status().ToString();
    results.push_back(EdgeList(g));
    links_added.push_back(stats->links_added);
  }
  EXPECT_GT(links_added[0], 0u);
  EXPECT_EQ(results[0], results[1]) << "threads=1 vs threads=2";
  EXPECT_EQ(results[0], results[2]) << "threads=1 vs threads=8";
  EXPECT_EQ(links_added[0], links_added[1]);
  EXPECT_EQ(links_added[0], links_added[2]);
}

TEST(ParallelMatrixTest, AugmentWithEmbeddingSmokeAtEightThreads) {
  auto g = SmallRegister();
  const size_t nodes_before = g.node_count();
  core::PipelineOptions opts;
  opts.parallel.threads = 8;
  opts.augment.max_rounds = 1;
  opts.augment.embedding.skipgram.dimensions = 8;
  opts.augment.embedding.skipgram.epochs = 1;
  opts.augment.embedding.walk.walks_per_node = 2;
  opts.augment.embedding.kmeans.k = 4;
  ASSERT_TRUE(opts.Validate().ok());
  auto vl = core::MakeDefaultVadaLink(opts.EffectiveAugment());
  auto stats = vl.Augment(&g);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rounds, 1u);
  EXPECT_FALSE(stats->truncated);
  EXPECT_EQ(g.node_count(), nodes_before);  // augmentation only adds edges
}

// ---- node2vec walks --------------------------------------------------------

TEST(ParallelMatrixTest, GenerateWalksIdenticalAtEveryPool) {
  auto g = SmallRegister();
  embed::WalkGraph wg(g, "w");
  embed::WalkConfig cfg;
  cfg.walks_per_node = 3;
  cfg.walk_length = 12;
  cfg.p = 0.5;
  cfg.q = 2.0;
  auto inline_walks = embed::GenerateWalks(wg, cfg);
  ASSERT_EQ(inline_walks.size(), 3u * g.node_count());
  ThreadPool pool2(2), pool8(8), pool4_grain7(4, /*default_grain=*/7);
  for (ThreadPool* pool : {&pool2, &pool8, &pool4_grain7}) {
    EXPECT_EQ(inline_walks, embed::GenerateWalks(wg, cfg, nullptr, pool))
        << "threads=" << pool->thread_count()
        << " grain=" << pool->default_grain();
  }
}

// ---- k-means ---------------------------------------------------------------

// Random but fixed embedding: 300 points in 3 Gaussian-ish blobs.
embed::EmbeddingMatrix BlobMatrix() {
  embed::EmbeddingMatrix m(300, 16);
  Rng rng(123);
  for (size_t v = 0; v < m.node_count(); ++v) {
    double center = static_cast<double>(v % 3) * 4.0;
    for (size_t d = 0; d < m.dimensions(); ++d) {
      m.row(v)[d] =
          static_cast<float>(center + rng.UniformDouble(-0.5, 0.5));
    }
  }
  return m;
}

// 60 points on only 4 distinct positions: with k = 8, Lloyd iteration
// leaves clusters empty and exercises the farthest-point reseed.
embed::EmbeddingMatrix DuplicateMatrix() {
  embed::EmbeddingMatrix m(60, 4);
  for (size_t v = 0; v < m.node_count(); ++v) {
    for (size_t d = 0; d < m.dimensions(); ++d) {
      m.row(v)[d] = static_cast<float>((v % 4) * (d + 1));
    }
  }
  return m;
}

// A copy of the sequential k-means that ran without a pool before every
// pool ran one chunked path (only the metrics, the RunContext and the
// pooled branches are left out). The pooled KMeans must match it bit for
// bit.
embed::KMeansResult ReferenceKMeans(const embed::EmbeddingMatrix& matrix,
                                    const embed::KMeansConfig& config) {
  auto SqDist = [](const float* x, const double* c, size_t dims) {
    double s = 0.0;
    for (size_t d = 0; d < dims; ++d) {
      double diff = static_cast<double>(x[d]) - c[d];
      s += diff * diff;
    }
    return s;
  };
  embed::KMeansResult res;
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
    // Update distances to the nearest chosen centroid.
    const double* last = centroids.data() + (c - 1) * dims;
    double total = 0.0;
    for (size_t v = 0; v < n; ++v) {
      double d2 = SqDist(matrix.row(v), last, dims);
      if (d2 < min_sq[v]) min_sq[v] = d2;
      total += min_sq[v];
    }
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
  std::vector<double> dists(n, 0.0);
  double prev_inertia = std::numeric_limits<double>::max();
  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    res.iterations = iter + 1;
    double inertia = 0.0;
    std::fill(counts.begin(), counts.end(), 0);
    std::fill(sums.begin(), sums.end(), 0.0);
    auto assign_point = [&](size_t v, size_t* cnts, double* sms,
                            double* inert) {
      double best = std::numeric_limits<double>::max();
      uint32_t best_c = 0;
      for (size_t c = 0; c < k; ++c) {
        double d2 = SqDist(matrix.row(v), centroids.data() + c * dims, dims);
        if (d2 < best) {
          best = d2;
          best_c = static_cast<uint32_t>(c);
        }
      }
      res.assignment[v] = best_c;
      dists[v] = best;
      *inert += best;
      ++cnts[best_c];
      double* sum = sms + best_c * dims;
      const float* row = matrix.row(v);
      for (size_t d = 0; d < dims; ++d) sum[d] += row[d];
    };
    for (size_t v = 0; v < n; ++v) {
      assign_point(v, counts.data(), sums.data(), &inertia);
    }
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
  return res;
}

// Bitwise equality, doubles included.
void ExpectSameKMeans(const embed::KMeansResult& want,
                      const embed::KMeansResult& got,
                      const std::string& label) {
  EXPECT_EQ(want.assignment, got.assignment) << label;
  EXPECT_EQ(want.iterations, got.iterations) << label;
  EXPECT_EQ(want.empty_reseeds, got.empty_reseeds) << label;
  EXPECT_EQ(std::bit_cast<uint64_t>(want.inertia),
            std::bit_cast<uint64_t>(got.inertia))
      << label << ": inertia " << want.inertia << " vs " << got.inertia;
  ASSERT_EQ(want.centroids.size(), got.centroids.size()) << label;
  EXPECT_EQ(0, std::memcmp(want.centroids.data(), got.centroids.data(),
                           want.centroids.size() * sizeof(double)))
      << label << ": centroids differ";
}

TEST(ParallelMatrixTest, KMeansMatchesTheSequentialReferenceAtEveryPool) {
  struct Case {
    const char* name;
    embed::EmbeddingMatrix matrix;
    size_t k;
  };
  std::vector<Case> cases;
  cases.push_back({"blobs k=3", BlobMatrix(), 3});
  cases.push_back({"blobs k=7", BlobMatrix(), 7});
  cases.push_back({"duplicates k=8", DuplicateMatrix(), 8});
  ThreadPool pool2(2), pool8(8), pool4_grain7(4, /*default_grain=*/7);
  size_t reseeds = 0;
  for (const Case& c : cases) {
    embed::KMeansConfig cfg;
    cfg.k = c.k;
    const embed::KMeansResult want = ReferenceKMeans(c.matrix, cfg);
    reseeds += want.empty_reseeds;
    ExpectSameKMeans(want, embed::KMeans(c.matrix, cfg),
                     std::string(c.name) + " no pool");
    for (ThreadPool* pool : {&pool2, &pool8, &pool4_grain7}) {
      ExpectSameKMeans(want, embed::KMeans(c.matrix, cfg, nullptr, pool),
                       std::string(c.name) + " threads=" +
                           std::to_string(pool->thread_count()) +
                           " grain=" + std::to_string(pool->default_grain()));
    }
  }
  EXPECT_GT(reseeds, 0u);  // the reseed path ran
}

TEST(ParallelMatrixTest, KMeansIdenticalForMultiThreadPools) {
  const embed::EmbeddingMatrix m = BlobMatrix();
  embed::KMeansConfig cfg;
  cfg.k = 3;
  ThreadPool pool2(2), pool8(8);
  auto r2 = embed::KMeans(m, cfg, nullptr, &pool2);
  auto r8 = embed::KMeans(m, cfg, nullptr, &pool8);
  EXPECT_EQ(r2.assignment, r8.assignment);
  EXPECT_EQ(r2.inertia, r8.inertia);
  EXPECT_EQ(r2.iterations, r8.iterations);
  // Repeated runs without a pool agree too.
  auto s1 = embed::KMeans(m, cfg);
  auto s2 = embed::KMeans(m, cfg);
  EXPECT_EQ(s1.assignment, s2.assignment);
  EXPECT_EQ(s1.assignment.size(), 300u);
}

// ---- blocking + pair scoring ----------------------------------------------

TEST(ParallelMatrixTest, BlockingIdenticalAcrossThreadCounts) {
  auto g = SmallRegister();
  linkage::Blocker blocker(linkage::BlockingConfig{
      .keys = {"city", "last_name"}, .max_blocks = 16});
  auto seq = blocker.BlockAll(g);
  ASSERT_TRUE(seq.ok());
  ThreadPool pool2(2), pool8(8);
  for (ThreadPool* pool : {&pool2, &pool8}) {
    auto par = blocker.BlockAll(g, nullptr, pool);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(*seq, *par) << "threads=" << pool->thread_count();
  }
}

TEST(ParallelMatrixTest, ScorePairsIdenticalAcrossThreadCounts) {
  auto g = SmallRegister();
  linkage::BayesLinkClassifier classifier(company::DefaultPersonSchema());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  auto persons = g.NodesWithLabel("Person");
  for (size_t i = 0; i + 1 < persons.size(); ++i) {
    pairs.emplace_back(persons[i], persons[i + 1]);
  }
  auto seq = classifier.ScorePairs(g, pairs);
  ASSERT_TRUE(seq.ok());
  ASSERT_EQ(seq->size(), pairs.size());
  ThreadPool pool2(2), pool8(8);
  for (ThreadPool* pool : {&pool2, &pool8}) {
    auto par = classifier.ScorePairs(g, pairs, nullptr, pool);
    ASSERT_TRUE(par.ok()) << par.status().ToString();
    EXPECT_EQ(*seq, *par) << "threads=" << pool->thread_count();
  }
}

// ---- reasoning engine ------------------------------------------------------

TEST(ParallelMatrixTest, EngineFactSetIdenticalAcrossThreadCounts) {
  const std::string rules = R"(
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
    tc(X,Y), Y > X, D = Y - X -> span(X,Y,D).
  )";
  auto run = [&](size_t threads) {
    datalog::Catalog catalog;
    datalog::Database db(&catalog);
    Rng rng(99);
    for (int i = 0; i < 120; ++i) {
      int64_t a = rng.UniformInt(0, 59), b = rng.UniformInt(0, 59);
      EXPECT_TRUE(db.InsertByName(
                        "e", {datalog::Value::Int(a), datalog::Value::Int(b)})
                      .ok());
    }
    auto program = datalog::ParseProgram(rules, &catalog);
    EXPECT_TRUE(program.ok());
    ParallelOptions popts;
    popts.threads = threads;
    auto pool = MakeThreadPool(popts);
    datalog::EngineOptions opts;
    opts.pool = pool.get();
    datalog::Engine engine(&db, opts);
    Status st = engine.Run(*program);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::set<std::string> out;
    for (const char* pred : {"tc", "span"}) {
      for (datalog::RowRef t : db.Scan(pred)) {
        std::string s = std::string(pred) + "(";
        for (size_t i = 0; i < t.size(); ++i) {
          s += t[i].ToString(catalog.symbols) + ",";
        }
        out.insert(s);
      }
    }
    return out;
  };
  auto facts1 = run(1);
  EXPECT_GT(facts1.size(), 120u);
  EXPECT_EQ(facts1, run(2));
  EXPECT_EQ(facts1, run(8));
}

// ---- governor trips under parallelism -------------------------------------

TEST(ParallelCancellationTest, AugmentTruncatesGracefullyUnderThreads) {
  auto g = SmallRegister();
  core::PipelineOptions opts;
  opts.parallel.threads = 8;
  opts.augment.max_rounds = 3;
  opts.augment.use_embedding = false;
  auto vl = core::MakeDefaultVadaLink(opts.EffectiveAugment());
  RunContext ctx;
  ctx.set_work_budget(25);  // trips mid-pairwise-stage
  auto stats = vl.Augment(&g, &ctx);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->interrupt.code(), StatusCode::kResourceExhausted);
}

TEST(ParallelCancellationTest, ReasonSurfacesBudgetTripUnderThreads) {
  auto fixture = vadalink::testing::Figure1();
  core::KnowledgeGraph kg;
  ParallelOptions popts;
  popts.threads = 8;
  kg.set_parallel(popts);
  *kg.mutable_graph() = fixture.graph();
  ASSERT_TRUE(kg.AddRules(core::ControlProgram()).ok());
  RunContext ctx;
  ctx.set_work_budget(2);
  auto stats = kg.Reason(&ctx);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kResourceExhausted);
}

TEST(ParallelCancellationTest, ReasonHonoursPreCancelledContext) {
  auto fixture = vadalink::testing::Figure1();
  core::KnowledgeGraph kg;
  ParallelOptions popts;
  popts.threads = 4;
  kg.set_parallel(popts);
  *kg.mutable_graph() = fixture.graph();
  ASSERT_TRUE(kg.AddRules(core::ControlProgram()).ok());
  RunContext ctx;
  ctx.RequestCancel();
  auto stats = kg.Reason(&ctx);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace vadalink
