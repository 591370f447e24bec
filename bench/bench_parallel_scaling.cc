// Speedup vs thread count for the five parallelised hot paths: node2vec
// walk generation, hogwild skip-gram training, k-means assignment,
// candidate-pair scoring, and the engine's rule matching.
//
// Every path but skip-gram runs one chunked code path at every thread
// count (inline on the caller at threads = 1), so each speedup compares
// the same code with the same output; skip-gram runs sequentially at
// threads = 1 and hogwild above it.
//
// Emits a JSON document (stdout, one line) mapping each path to seconds
// and speedup per thread count, e.g.
//
//   { "hardware_concurrency": 8,
//     "paths": [ { "name": "node2vec_walks",
//                  "points": [ {"seconds": 1.9, "speedup": 1,
//                               "threads": 1}, ... ] }, ... ] }
//
// Run on a multi-core box; the acceptance target is >= 2.5x at 8 threads
// on at least two paths. `bench_parallel_scaling --threads 1,2,4,8`
// overrides the default thread list.
//
// `--metrics-json FILE` reuses the pipeline's MetricsRegistry: every stage
// call above runs with the registry attached (so the document carries the
// same counters/histograms a production run would), and each measured
// point is fed into the span tree as bench/<path>/t<threads>. Timings are
// included (a bench document is all about wall clock).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/timer.h"
#include "company/family.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "embed/kmeans.h"
#include "embed/node2vec.h"
#include "embed/skipgram.h"
#include "gen/barabasi_albert.h"
#include "gen/register_simulator.h"
#include "linkage/bayes.h"

using namespace vadalink;

namespace {

constexpr int kRepeats = 3;  // best-of to damp scheduler noise

/// Best-of-kRepeats wall time of fn(pool) with a pool of `threads`.
template <typename Fn>
double TimeWithThreads(size_t threads, const Fn& fn) {
  ParallelOptions opts;
  opts.threads = threads;
  auto pool = MakeThreadPool(opts);  // nullptr at threads = 1
  double best = -1.0;
  for (int r = 0; r < kRepeats; ++r) {
    WallTimer timer;
    fn(pool.get());
    double s = timer.ElapsedSeconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best;
}

struct Point {
  size_t threads;
  double seconds;
};

/// One path's entry of the stdout document: seconds and speedup over the
/// first point, per thread count.
Json PathJson(const char* name, const std::vector<Point>& points) {
  double baseline = points.empty() ? 1.0 : points.front().seconds;
  Json list = Json::MakeArray();
  for (const Point& p : points) {
    Json j = Json::MakeObject();
    j.Set("threads", Json::Int(static_cast<int64_t>(p.threads)));
    j.Set("seconds", Json::Double(p.seconds));
    j.Set("speedup",
          Json::Double(p.seconds > 0.0 ? baseline / p.seconds : 0.0));
    list.Append(std::move(j));
  }
  Json path = Json::MakeObject();
  path.Set("name", Json::Str(name));
  path.Set("points", std::move(list));
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::string metrics_json;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts.clear();
      for (const char* p = argv[i + 1]; *p != '\0';) {
        thread_counts.push_back(static_cast<size_t>(std::strtoul(p, nullptr, 10)));
        p = std::strchr(p, ',');
        if (p == nullptr) break;
        ++p;
      }
    }
    if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_json = argv[i + 1];
    }
  }
  MetricsRegistry registry;
  MetricsRegistry* metrics = metrics_json.empty() ? nullptr : &registry;

  // --- shared fixtures ------------------------------------------------------
  gen::BarabasiAlbertConfig ba;
  ba.nodes = 4000;
  ba.edges_per_node = 4;
  ba.seed = 7;
  auto ba_graph = gen::GenerateBarabasiAlbert(ba);
  embed::WalkGraph walk_graph(ba_graph, "w");
  embed::WalkConfig walk_cfg;
  walk_cfg.walk_length = 30;
  walk_cfg.walks_per_node = 10;

  auto walks = embed::GenerateWalks(walk_graph, walk_cfg);
  embed::SkipGramConfig sg_cfg;
  sg_cfg.dimensions = 64;
  sg_cfg.epochs = 1;

  embed::EmbeddingMatrix points_matrix(20000, 32);
  {
    Rng rng(11);
    for (size_t v = 0; v < points_matrix.node_count(); ++v) {
      for (size_t d = 0; d < points_matrix.dimensions(); ++d) {
        points_matrix.row(v)[d] = static_cast<float>(rng.UniformDouble(
            static_cast<double>(v % 8), static_cast<double>(v % 8) + 1.0));
      }
    }
  }
  embed::KMeansConfig km_cfg;
  km_cfg.k = 16;
  km_cfg.max_iterations = 20;

  gen::RegisterConfig reg;
  reg.persons = 1500;
  reg.companies = 1000;
  reg.seed = 21;
  auto reg_data = gen::GenerateRegister(reg);
  linkage::BayesLinkClassifier classifier(company::DefaultPersonSchema());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (size_t i = 0; i < reg_data.persons.size(); ++i) {
    for (size_t j = i + 1; j < i + 40 && j < reg_data.persons.size(); ++j) {
      pairs.emplace_back(reg_data.persons[i], reg_data.persons[j]);
    }
  }

  const std::string tc_rules = R"(
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
  )";

  // --- measurements ---------------------------------------------------------
  std::vector<Point> walk_pts, sg_pts, km_pts, score_pts, engine_pts;
  for (size_t t : thread_counts) {
    walk_pts.push_back({t, TimeWithThreads(t, [&](ThreadPool* pool) {
      auto w = embed::GenerateWalks(walk_graph, walk_cfg, nullptr, pool,
                                    metrics);
      if (w.size() != ba_graph.node_count() * walk_cfg.walks_per_node) {
        std::fprintf(stderr, "walk count mismatch\n");
      }
    })});
    sg_pts.push_back({t, TimeWithThreads(t, [&](ThreadPool* pool) {
      auto emb =
          embed::TrainSkipGram(walks, ba_graph.node_count(), sg_cfg, nullptr,
                               pool, metrics);
      volatile float sink = emb.row(0)[0];
      (void)sink;
    })});
    km_pts.push_back({t, TimeWithThreads(t, [&](ThreadPool* pool) {
      auto r = embed::KMeans(points_matrix, km_cfg, nullptr, pool, metrics);
      volatile double sink = r.inertia;
      (void)sink;
    })});
    score_pts.push_back({t, TimeWithThreads(t, [&](ThreadPool* pool) {
      auto scores = classifier.ScorePairs(reg_data.graph, pairs, nullptr,
                                          pool, metrics);
      if (!scores.ok() || scores->size() != pairs.size()) {
        std::fprintf(stderr, "scoring failed\n");
      }
    })});
    engine_pts.push_back({t, TimeWithThreads(t, [&](ThreadPool* pool) {
      datalog::Catalog catalog;
      datalog::Database db(&catalog);
      Rng rng(5);
      for (int i = 0; i < 1200; ++i) {
        (void)db.InsertByName("e", {datalog::Value::Int(rng.UniformInt(0, 399)),
                                    datalog::Value::Int(rng.UniformInt(0, 399))});
      }
      auto program = datalog::ParseProgram(tc_rules, &catalog);
      datalog::EngineOptions opts;
      opts.pool = pool;
      opts.metrics = metrics;
      datalog::Engine engine(&db, opts);
      Status st = engine.Run(*program);
      if (!st.ok()) std::fprintf(stderr, "%s\n", st.ToString().c_str());
    })});
  }

  // --- JSON -----------------------------------------------------------------
  Json paths = Json::MakeArray();
  paths.Append(PathJson("node2vec_walks", walk_pts));
  paths.Append(PathJson("skipgram_training", sg_pts));
  paths.Append(PathJson("kmeans_assignment", km_pts));
  paths.Append(PathJson("pair_scoring", score_pts));
  paths.Append(PathJson("engine_delta_joins", engine_pts));
  Json doc = Json::MakeObject();
  doc.Set("hardware_concurrency",
          Json::Int(std::thread::hardware_concurrency()));
  doc.Set("paths", std::move(paths));
  std::printf("%s\n", doc.Dump().c_str());

  if (metrics != nullptr) {
    // Feed the measured points into the same span tree the pipeline uses,
    // then emit the one stable-schema document (timings on: a bench
    // document is all about wall clock).
    auto record = [&](const char* name, const std::vector<Point>& pts) {
      for (const Point& p : pts) {
        registry.RecordSpan(
            "bench/" + std::string(name) + "/t" + std::to_string(p.threads),
            static_cast<uint64_t>(p.seconds * 1e6), nullptr);
      }
    };
    record("node2vec_walks", walk_pts);
    record("skipgram_training", sg_pts);
    record("kmeans_assignment", km_pts);
    record("pair_scoring", score_pts);
    record("engine_delta_joins", engine_pts);
    MetricsJsonOptions json_opts;
    json_opts.include_timings = true;
    if (Status st = WriteJsonFile(metrics_json, registry.ToJson(json_opts));
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
