// A4 — microbenchmarks of the embedding substrate: node2vec walk
// generation, skip-gram training, k-means clustering.
#include <benchmark/benchmark.h>

#include "embed/embed_clusterer.h"
#include "embed/kmeans.h"
#include "embed/node2vec.h"
#include "embed/skipgram.h"
#include "gen/barabasi_albert.h"
#include "gen/register_simulator.h"

using namespace vadalink;
using namespace vadalink::embed;

namespace {

graph::PropertyGraph MakeGraph(size_t n, size_t m) {
  gen::BarabasiAlbertConfig ba;
  ba.nodes = n;
  ba.edges_per_node = m;
  ba.seed = 7;
  return gen::GenerateBarabasiAlbert(ba);
}

void BM_WalkGeneration(benchmark::State& state) {
  auto g = MakeGraph(state.range(0), 4);
  WalkGraph wg(g, "w");
  WalkConfig cfg;
  cfg.walk_length = 20;
  cfg.walks_per_node = 4;
  size_t steps = 0;
  for (auto _ : state) {
    auto walks = GenerateWalks(wg, cfg);
    for (const auto& w : walks) steps += w.size();
    benchmark::DoNotOptimize(walks.size());
  }
  state.counters["steps/s"] = benchmark::Counter(
      static_cast<double>(steps), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_WalkGeneration)->Arg(1000)->Arg(5000);

// Trains on `walks` once per iteration; positions/s (walk positions trained,
// all epochs) is the kernel's throughput independent of graph size.
void TrainAndCount(benchmark::State& state,
                   const std::vector<std::vector<uint32_t>>& walks,
                   size_t node_count, const SkipGramConfig& sc) {
  size_t per_call = 0;
  for (const auto& w : walks) per_call += w.size();
  per_call *= sc.epochs;
  size_t positions = 0;
  for (auto _ : state) {
    auto emb = TrainSkipGram(walks, node_count, sc);
    benchmark::DoNotOptimize(emb.row(0)[0]);
    positions += per_call;
  }
  state.counters["positions/s"] = benchmark::Counter(
      static_cast<double>(positions), benchmark::Counter::kIsRate);
}

void BM_SkipGramTraining(benchmark::State& state) {
  auto g = MakeGraph(state.range(0), 4);
  WalkGraph wg(g, "w");
  WalkConfig wc;
  wc.walk_length = 20;
  wc.walks_per_node = 4;
  auto walks = GenerateWalks(wg, wc);
  SkipGramConfig sc;
  sc.dimensions = 64;
  sc.epochs = 1;
  TrainAndCount(state, walks, g.node_count(), sc);
}
BENCHMARK(BM_SkipGramTraining)->Arg(1000)->Arg(5000);

// What one Augment round trains on: a 500-person / 375-company register
// with the CLI-default walk and skip-gram settings.
void BM_SkipGramTrainingRegister(benchmark::State& state) {
  gen::RegisterConfig rc;
  rc.persons = 500;
  rc.companies = 375;
  auto g = gen::GenerateRegister(rc).graph;
  auto walks = GenerateWalks(WalkGraph(g, "w"), WalkConfig{});
  TrainAndCount(state, walks, g.node_count(), SkipGramConfig{});
}
BENCHMARK(BM_SkipGramTrainingRegister)->Unit(benchmark::kMillisecond);

void BM_KMeansClustering(benchmark::State& state) {
  auto g = MakeGraph(2000, 4);
  WalkGraph wg(g, "w");
  WalkConfig wc;
  wc.walks_per_node = 2;
  auto walks = GenerateWalks(wg, wc);
  SkipGramConfig sc;
  sc.dimensions = 64;
  sc.epochs = 1;
  auto emb = TrainSkipGram(walks, g.node_count(), sc);
  KMeansConfig kc;
  kc.k = state.range(0);
  for (auto _ : state) {
    auto res = KMeans(emb, kc);
    benchmark::DoNotOptimize(res.inertia);
  }
}
BENCHMARK(BM_KMeansClustering)->Arg(4)->Arg(16)->Arg(64);

void BM_EndToEndClusterer(benchmark::State& state) {
  auto g = MakeGraph(state.range(0), 2);
  EmbedClusterConfig cfg;
  cfg.walk.walks_per_node = 4;
  cfg.skipgram.dimensions = 32;
  cfg.skipgram.epochs = 1;
  cfg.kmeans.k = 8;
  EmbedClusterer clusterer(cfg);
  for (auto _ : state) {
    auto assignment = clusterer.Cluster(g);
    benchmark::DoNotOptimize(assignment.ok() ? assignment->size() : 0);
  }
}
BENCHMARK(BM_EndToEndClusterer)->Arg(1000)->Arg(3000);

}  // namespace

BENCHMARK_MAIN();
