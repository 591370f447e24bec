// Cross-layer tests of the run-budget governor: deadline expiry mid-chase,
// budget exhaustion in the engine / embedding stages / path enumeration,
// graceful degradation of the Augment loop and cancellation mid-round.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "company/family.h"
#include "company/ownership.h"
#include "core/vada_link.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "embed/kmeans.h"
#include "embed/node2vec.h"
#include "gen/register_simulator.h"
#include "linkage/bayes.h"
#include "tests/paper_fixtures.h"

namespace vadalink {
namespace {

using ::vadalink::testing::Figure1;

// Transitive closure over a short chain: enough derivations to need a few
// fixpoint iterations, small enough to run instantly when unlimited.
Result<datalog::Program> ChainProgram(datalog::Catalog* catalog,
                                      datalog::Database* db,
                                      int chain_length) {
  for (int i = 0; i < chain_length; ++i) {
    EXPECT_TRUE(db->InsertByName("e", {datalog::Value::Int(i),
                                       datalog::Value::Int(i + 1)}).ok());
  }
  return datalog::ParseProgram(R"(
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
  )", catalog);
}

// ---- datalog engine --------------------------------------------------------

TEST(GovernorEngineTest, ExpiredDeadlineAbortsMidFixpoint) {
  datalog::Catalog catalog;
  datalog::Database db(&catalog);
  auto program = ChainProgram(&catalog, &db, 20);
  ASSERT_TRUE(program.ok());

  RunContext ctx;
  ctx.set_deadline(RunContext::Clock::now() - std::chrono::seconds(1));
  datalog::EngineOptions options;
  options.run_ctx = &ctx;
  datalog::Engine engine(&db, options);
  Status st = engine.Run(*program);
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  // The chase stopped before reaching the 20*21/2 tc fixpoint.
  EXPECT_LT(db.Scan("tc").size(), 210u);
}

TEST(GovernorEngineTest, WorkBudgetAbortsWithResourceExhausted) {
  datalog::Catalog catalog;
  datalog::Database db(&catalog);
  auto program = ChainProgram(&catalog, &db, 20);
  ASSERT_TRUE(program.ok());

  RunContext ctx;
  ctx.set_work_budget(5);  // one unit per derived fact
  datalog::EngineOptions options;
  options.run_ctx = &ctx;
  datalog::Engine engine(&db, options);
  Status st = engine.Run(*program);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_GE(ctx.work_used(), 5u);
  EXPECT_LT(db.Scan("tc").size(), 210u);
}

TEST(GovernorEngineTest, UnlimitedContextReachesFixpoint) {
  datalog::Catalog catalog;
  datalog::Database db(&catalog);
  auto program = ChainProgram(&catalog, &db, 20);
  ASSERT_TRUE(program.ok());

  RunContext ctx;  // no limits set
  datalog::EngineOptions options;
  options.run_ctx = &ctx;
  datalog::Engine engine(&db, options);
  ASSERT_TRUE(engine.Run(*program).ok());
  EXPECT_EQ(db.Scan("tc").size(), 210u);
  EXPECT_EQ(ctx.work_used(), 210u);  // charged per derived fact
}

// ---- embedding stages ------------------------------------------------------

TEST(GovernorEmbedTest, Node2VecBudgetTruncatesWalks) {
  auto b = Figure1();
  embed::WalkGraph wg(b.graph(), "w");
  embed::WalkConfig cfg;
  cfg.walks_per_node = 4;
  RunContext ctx;
  ctx.set_work_budget(3);  // one unit per walk
  auto walks = embed::GenerateWalks(wg, cfg, &ctx);
  EXPECT_EQ(walks.size(), 3u);
  EXPECT_EQ(ctx.CheckNow().code(), StatusCode::kResourceExhausted);
  // Unlimited reference: every node contributes walks_per_node walks.
  auto all = embed::GenerateWalks(wg, cfg);
  EXPECT_EQ(all.size(), 4u * b.graph().node_count());
}

TEST(GovernorEmbedTest, KMeansBudgetInterruptsLloyd) {
  embed::EmbeddingMatrix m(32, 4);
  for (size_t v = 0; v < 32; ++v) {
    for (size_t d = 0; d < 4; ++d) {
      m.row(v)[d] = static_cast<float>((v * 7 + d * 13) % 11);
    }
  }
  embed::KMeansConfig cfg;
  cfg.k = 4;
  cfg.tolerance = 0.0;  // would iterate to max_iterations
  RunContext ctx;
  ctx.set_work_budget(2);  // one unit per Lloyd iteration
  auto res = embed::KMeans(m, cfg, &ctx);
  EXPECT_TRUE(res.interrupted);
  EXPECT_LE(res.iterations, 2u);
  EXPECT_EQ(res.assignment.size(), 32u);  // still full-length
}

// ---- ownership path enumeration -------------------------------------------

TEST(GovernorOwnershipTest, PathCapSetsTruncatedFlag) {
  auto b = Figure1();
  auto cg = company::CompanyGraph::FromPropertyGraph(b.graph()).value();
  company::OwnershipConfig cfg;
  cfg.max_paths = 2;
  company::OwnershipStats stats;
  auto phi = company::AccumulatedOwnershipSimplePaths(cg, b.id("P1"), cfg,
                                                      &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_TRUE(stats.interrupt.ok());  // plain cap, not a governor trip
  EXPECT_LE(stats.paths_expanded, 2u);

  // Unlimited enumeration is complete and says so.
  company::OwnershipStats full;
  auto phi_full = company::AccumulatedOwnershipSimplePaths(
      cg, b.id("P1"), company::OwnershipConfig{}, &full);
  EXPECT_FALSE(full.truncated);
  EXPECT_GE(phi_full.size(), phi.size());
}

TEST(GovernorOwnershipTest, RunContextTripRecordsInterrupt) {
  auto b = Figure1();
  auto cg = company::CompanyGraph::FromPropertyGraph(b.graph()).value();
  RunContext ctx;
  ctx.set_work_budget(1);  // one unit per expanded path
  company::OwnershipStats stats;
  company::AccumulatedOwnershipSimplePaths(cg, b.id("P1"), {}, &stats, &ctx);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.interrupt.code(), StatusCode::kResourceExhausted);
}

// ---- the Augment loop ------------------------------------------------------

TEST(GovernorAugmentTest, ExpiredDeadlineStopsBeforeFirstRound) {
  auto b = Figure1();
  auto vl = core::MakeDefaultVadaLink();
  RunContext ctx;
  ctx.set_deadline(RunContext::Clock::now() - std::chrono::seconds(1));
  auto stats = vl.Augment(&b.graph(), &ctx);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();  // graceful
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->interrupt.code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(stats->deadline_hits, 1u);
  EXPECT_EQ(stats->rounds, 0u);
  EXPECT_EQ(stats->links_added, 0u);
}

TEST(GovernorAugmentTest, PairBudgetKeepsCommittedLinks) {
  auto b = Figure1();
  core::AugmentConfig cfg;
  cfg.use_embedding = false;
  cfg.use_blocking = false;  // one block: pairwise comparisons guaranteed
  auto vl = core::MakeDefaultVadaLink(cfg);
  RunContext ctx;
  ctx.set_work_budget(0);  // first compared pair trips
  auto stats = vl.Augment(&b.graph(), &ctx);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->interrupt.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats->rounds, 1u);
}

TEST(GovernorAugmentTest, PairBudgetTripMidBlockKeepsTheComparedPrefix) {
  gen::RegisterConfig reg;
  reg.persons = 40;
  reg.companies = 10;
  reg.seed = 3;
  graph::PropertyGraph g = gen::GenerateRegister(reg).graph;

  // Blocking and embedding off: one block of every node in id order, so
  // the pairs are compared in (i, j) order. The reference accepts pairs
  // with its own FamilyCandidate on the untouched graph.
  core::FamilyCandidate family(
      linkage::BayesLinkClassifier(company::DefaultPersonSchema()));
  std::vector<std::pair<size_t, core::PredictedLink>> accepted;
  size_t pair_index = 0;
  for (graph::NodeId i = 0; i < g.node_count(); ++i) {
    for (graph::NodeId j = i + 1; j < g.node_count(); ++j, ++pair_index) {
      if (auto link = family.TestPair(g, i, j)) {
        accepted.emplace_back(pair_index, *link);
      }
    }
  }
  ASSERT_GE(accepted.size(), 2u);
  // Trip right after the middle accepted pair: accepted pairs lie on both
  // sides of the trip, inside the one block.
  const size_t budget = accepted[accepted.size() / 2].first + 1;
  ASSERT_LT(budget, pair_index);

  using Link = std::tuple<graph::NodeId, graph::NodeId, std::string>;
  std::set<Link> expected;
  for (const auto& [index, link] : accepted) {
    if (index >= budget) break;
    const char* label = core::LinkClassName(link.cls);
    if (g.FindEdge(link.x, link.y, label) == graph::kInvalidEdge) {
      expected.emplace(link.x, link.y, label);
    }
  }
  ASSERT_FALSE(expected.empty());

  core::AugmentConfig cfg;
  cfg.use_embedding = false;
  cfg.use_blocking = false;
  auto vl = core::MakeDefaultVadaLink(cfg);
  RunContext ctx;
  ctx.set_work_budget(budget);  // one unit per compared pair
  auto edge_set = [](const graph::PropertyGraph& graph) {
    std::set<Link> out;
    graph.ForEachEdge([&](graph::EdgeId e) {
      out.emplace(graph.edge_src(e), graph.edge_dst(e),
                  std::string(graph.edge_label(e)));
    });
    return out;
  };
  const std::set<Link> before = edge_set(g);
  auto stats = vl.Augment(&g, &ctx);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->interrupt.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(stats->rounds, 1u);
  EXPECT_EQ(stats->pairs_compared, budget);

  std::set<Link> committed;
  for (const Link& link : edge_set(g)) {
    if (!before.contains(link)) committed.insert(link);
  }
  EXPECT_EQ(committed, expected);
  EXPECT_EQ(stats->links_added, expected.size());
}

TEST(GovernorAugmentTest, EmbedBudgetDegradesRoundToBlockingOnly) {
  // Reference: the paper's use_embedding=false ablation.
  auto ablation_graph = Figure1();
  core::AugmentConfig ablation_cfg;
  ablation_cfg.use_embedding = false;
  auto ablation_vl = core::MakeDefaultVadaLink(ablation_cfg);
  auto ablation = ablation_vl.Augment(&ablation_graph.graph());
  ASSERT_TRUE(ablation.ok());

  // Embedding enabled, but a 1-unit stage budget trips instantly: every
  // round must degrade to exactly the ablation behaviour.
  auto b = Figure1();
  core::AugmentConfig cfg;
  cfg.use_embedding = true;
  cfg.embed_work_budget = 1;
  auto vl = core::MakeDefaultVadaLink(cfg);
  auto stats = vl.Augment(&b.graph());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->degraded_rounds, stats->rounds);
  EXPECT_GE(stats->degraded_rounds, 1u);
  EXPECT_FALSE(stats->truncated);  // the *run* was never limited
  EXPECT_EQ(stats->links_added, ablation->links_added);
  EXPECT_EQ(b.graph().edge_count(), ablation_graph.graph().edge_count());
}

// Global candidate that proposes one fresh (per-call) link and requests
// cancellation during its second round, mid-candidate-stage.
class CancellingCandidate : public core::Candidate {
 public:
  explicit CancellingCandidate(RunContext* ctx) : ctx_(ctx) {}
  const char* name() const override { return "cancelling"; }
  bool is_pairwise() const override { return false; }
  Result<std::vector<core::PredictedLink>> RunGlobal(
      const graph::PropertyGraph& g) override {
    (void)g;
    ++calls_;
    if (calls_ == 2) ctx_->RequestCancel();
    // A new pair each round keeps the loop from converging on its own.
    return std::vector<core::PredictedLink>{
        {0, static_cast<graph::NodeId>(1 + calls_),
         core::LinkClass::kControl, 1.0}};
  }
  int calls() const { return calls_; }

 private:
  RunContext* ctx_;
  int calls_ = 0;
};

TEST(GovernorAugmentTest, CancellationMidRoundPreservesEarlierRounds) {
  auto b = Figure1();
  RunContext ctx;
  core::AugmentConfig cfg;
  cfg.use_embedding = false;
  cfg.max_rounds = 10;
  core::VadaLink vl(cfg);
  auto candidate = std::make_unique<CancellingCandidate>(&ctx);
  CancellingCandidate* raw = candidate.get();
  vl.AddCandidate(std::move(candidate));

  auto stats = vl.Augment(&b.graph(), &ctx);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(raw->calls(), 2);
  EXPECT_EQ(stats->rounds, 2u);  // round 3 never starts
  EXPECT_TRUE(stats->truncated);
  EXPECT_EQ(stats->interrupt.code(), StatusCode::kCancelled);
  // Both committed links survive: round 1's, and round 2's up to the trip.
  EXPECT_NE(b.graph().FindEdge(0, 2, "Control"), graph::kInvalidEdge);
  EXPECT_NE(b.graph().FindEdge(0, 3, "Control"), graph::kInvalidEdge);
}

}  // namespace
}  // namespace vadalink
