// datalog/: the space-bounded streaming chase (EngineOptions::streaming,
// DESIGN.md section 13) — delta eviction, the evictability analysis, the
// labeled-null pattern memo, and the invariant everything else hangs off:
// the answer set of a streaming run is byte-identical to the full chase
// at every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "gen/barabasi_albert.h"

namespace vadalink::datalog {
namespace {

std::multiset<std::string> Render(const std::string& pred,
                                  const Database& db,
                                  const Catalog& catalog) {
  std::multiset<std::string> out;
  uint32_t p = catalog.predicates.Lookup(pred);
  if (p == UINT32_MAX) return out;
  for (RowRef row : db.Scan(p)) {
    std::string line = pred;
    for (size_t i = 0; i < row.size(); ++i) {
      line += "|" + row[i].ToString(catalog.symbols);
    }
    out.insert(std::move(line));
  }
  return out;
}

/// One chase over a fresh database seeded from a BA ownership graph;
/// returns the rendered `output_pred` facts — for streaming runs the
/// union of rows streamed through the sink and rows still resident.
struct ChaseOutcome {
  std::multiset<std::string> answers;
  EngineStats stats;
  size_t total_facts = 0;
};

ChaseOutcome ChaseGraph(const graph::PropertyGraph& g,
                        const std::string& rules,
                        const std::string& output_pred, bool streaming,
                        size_t threads) {
  ChaseOutcome out;
  Catalog catalog;
  Database db(&catalog);
  core::MappingOptions map_opts;
  map_opts.predicates = core::DomainPredicates();
  EXPECT_TRUE(core::LoadGraphFacts(g, &db, map_opts).ok());
  auto program = ParseProgram(rules, &catalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  ParallelOptions par;
  par.threads = threads;
  auto pool = MakeThreadPool(par);
  const uint32_t out_pred = catalog.predicates.Intern(output_pred);
  EngineOptions opts;
  opts.pool = pool.get();
  opts.streaming = streaming;
  if (streaming) {
    opts.evict_sink = [&](uint32_t pred, const Value* vals, size_t n) {
      if (pred != out_pred) return;
      std::string line = output_pred;
      for (size_t i = 0; i < n; ++i) {
        line += "|" + vals[i].ToString(catalog.symbols);
      }
      out.answers.insert(std::move(line));
    };
  }
  Engine engine(&db, opts);
  Status st = engine.Run(*program);
  EXPECT_TRUE(st.ok()) << st.ToString();
  out.stats = engine.stats();
  out.total_facts = db.TotalFacts();
  for (const std::string& line : Render(output_pred, db, catalog)) {
    out.answers.insert(line);
  }
  return out;
}

graph::PropertyGraph TestGraph(size_t nodes, size_t m, uint64_t seed) {
  gen::BarabasiAlbertConfig ba;
  ba.nodes = nodes;
  ba.edges_per_node = m;
  ba.seed = seed;
  return gen::GenerateBarabasiAlbert(ba);
}

TEST(StreamingChaseTest, ControlAnswersIdenticalAcrossModesAndThreads) {
  auto g = TestGraph(300, 2, 11);
  const std::string rules = core::ControlProgram(0.3);
  ChaseOutcome full1 = ChaseGraph(g, rules, "control", false, 1);
  ChaseOutcome full4 = ChaseGraph(g, rules, "control", false, 4);
  ChaseOutcome str1 = ChaseGraph(g, rules, "control", true, 1);
  ChaseOutcome str4 = ChaseGraph(g, rules, "control", true, 4);

  ASSERT_FALSE(full1.answers.empty());
  EXPECT_EQ(full1.answers, full4.answers);
  // The streaming answer set — sunk rows plus resident rows — is the full
  // chase's, byte for byte, and each output row is seen exactly once
  // (multiset equality rules out a row both sunk and re-derived).
  EXPECT_EQ(str1.answers, full1.answers);
  EXPECT_EQ(str4.answers, full1.answers);

  // Null-free program: the logical fact count matches exactly, storage
  // was actually released, and the peak never exceeds the full chase's.
  EXPECT_EQ(str1.total_facts, full1.total_facts);
  EXPECT_GT(str1.stats.evicted_rows, 0u);
  EXPECT_LT(str1.stats.peak_resident_facts, full1.stats.peak_resident_facts);
  EXPECT_EQ(str1.stats.memo_queries, 0u);  // no nulls anywhere
  EXPECT_EQ(full1.stats.evicted_rows, 0u);
}

TEST(StreamingChaseTest, CloseLinkPinsTwiceReadAggregateHead) {
  auto g = TestGraph(200, 1, 5);
  const std::string rules = core::CloseLinkProgram(0.05, 8);
  ChaseOutcome full = ChaseGraph(g, rules, "closelink", false, 1);
  ChaseOutcome str = ChaseGraph(g, rules, "closelink", true, 1);
  ASSERT_FALSE(full.answers.empty());
  EXPECT_EQ(str.answers, full.answers);
  EXPECT_EQ(str.total_facts, full.total_facts);
  // walk evicts; accown (read twice by the common-third-party rule) must
  // not — the evictability analysis keeps every row a future join can
  // still reach.
  EXPECT_GT(str.stats.evicted_rows, 0u);
}

TEST(StreamingChaseTest, NonEvictablePredicateStaysFullyResident) {
  // p is read twice in one rule body (self-join): no delta window covers
  // both occurrences, so the analysis must refuse to evict p even though
  // every read is otherwise delta-shaped.
  Catalog catalog;
  Database db(&catalog);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db.InsertByName("e", {Value::Int(i), Value::Int(i + 1)})
                    .ok());
  }
  auto program = ParseProgram(R"(
    e(X,Y) -> p(X,Y).
    p(X,Y), e(Y,Z) -> p(X,Z).
    p(X,Y), p(Y,Z) -> meet(X,Z).
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  EngineOptions opts;
  opts.streaming = true;
  Engine engine(&db, opts);
  ASSERT_TRUE(engine.Run(*program).ok());
  // p pinned, meet (read by nobody) evicted.
  EXPECT_EQ(db.relation(catalog.predicates.Lookup("p"))->first_resident(),
            0u);
  EXPECT_GT(engine.stats().evicted_rows, 0u);
  EXPECT_GT(
      db.relation(catalog.predicates.Lookup("meet"))->first_resident(), 0u);
}

TEST(StreamingChaseTest, PatternMemoCollapsesIsomorphicNullFirings) {
  auto g = TestGraph(250, 2, 7);
  // Warded existential cascade: one null officer per company, propagated
  // down ownership; the audit rule's frontier is the bare null, so every
  // firing after the first is isomorphic to it.
  const std::string rules = R"(
    company(X) -> officer(X, N).
    officer(X, N), own(X, Y, W) -> officer(Y, N).
    officer(X, N) -> audit(N, M).
    officer(X, N) -> overseen(X).
    @output("overseen").
  )";
  ChaseOutcome full = ChaseGraph(g, rules, "overseen", false, 1);
  ChaseOutcome str = ChaseGraph(g, rules, "overseen", true, 1);
  ASSERT_FALSE(full.answers.empty());
  // The ground answer set is untouched by memoization...
  EXPECT_EQ(str.answers, full.answers);
  // ...while isomorphic audit firings collapse to the first one.
  EXPECT_GT(str.stats.memo_queries, 0u);
  EXPECT_EQ(str.stats.memo_hits + 1, str.stats.memo_queries);
  EXPECT_LT(str.total_facts, full.total_facts);
  // The full chase consults no memo.
  EXPECT_EQ(full.stats.memo_queries, 0u);
}

TEST(StreamingChaseTest, ProvenanceTracingDisablesEviction) {
  Catalog catalog;
  Database db(&catalog);
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(db.InsertByName("e", {Value::Int(i), Value::Int(i + 1)})
                    .ok());
  }
  auto program = ParseProgram(R"(
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  EngineOptions opts;
  opts.streaming = true;
  opts.trace_provenance = true;  // an Explain tree needs its premise rows
  Engine engine(&db, opts);
  ASSERT_TRUE(engine.Run(*program).ok());
  EXPECT_EQ(engine.stats().evicted_rows, 0u);
  EXPECT_FALSE(db.HasEvicted());
  std::string why = engine.Explain(catalog.predicates.Lookup("tc"),
                                   {Value::Int(0), Value::Int(2)});
  EXPECT_NE(why.find("tc"), std::string::npos);
}

TEST(StreamingChaseTest, QueryGoalStaysResidentUnderStreaming) {
  auto g = TestGraph(300, 2, 11);
  const std::string rules = core::ControlProgram(0.3);

  auto run_query = [&](bool streaming) {
    Catalog catalog;
    Database db(&catalog);
    core::MappingOptions map_opts;
    map_opts.predicates = core::DomainPredicates();
    EXPECT_TRUE(core::LoadGraphFacts(g, &db, map_opts).ok());
    auto program = ParseProgram(rules, &catalog);
    EXPECT_TRUE(program.ok());
    auto goal = ParseQueryGoal("control(X, Y)", &catalog);
    EXPECT_TRUE(goal.ok());
    EngineOptions opts;
    opts.streaming = streaming;
    Engine engine(&db, opts);
    auto rep = engine.Query(*program, *goal);
    EXPECT_TRUE(rep.ok()) << rep.status().ToString();
    std::vector<std::string> out;
    for (const auto& t : rep->answers) {
      std::string line;
      for (const Value& v : t) line += "|" + v.ToString(catalog.symbols);
      out.push_back(std::move(line));
    }
    std::sort(out.begin(), out.end());
    return out;
  };

  // The goal predicate is pinned resident, so Query under streaming
  // returns the complete answer set even though other predicates evict.
  auto full_answers = run_query(false);
  auto streaming_answers = run_query(true);
  ASSERT_FALSE(full_answers.empty());
  EXPECT_EQ(streaming_answers, full_answers);
}

TEST(StreamingChaseTest, MemoryMetricsPublished) {
  Catalog catalog;
  Database db(&catalog);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(db.InsertByName("e", {Value::Int(i), Value::Int(i + 1)})
                    .ok());
  }
  auto program = ParseProgram(R"(
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  MetricsRegistry metrics;
  EngineOptions opts;
  opts.streaming = true;
  opts.metrics = &metrics;
  Engine engine(&db, opts);
  ASSERT_TRUE(engine.Run(*program).ok());
  const EngineStats& stats = engine.stats();
  EXPECT_EQ(metrics.GaugeValue("engine.memory.peak_resident_facts"),
            static_cast<double>(stats.peak_resident_facts));
  EXPECT_EQ(metrics.CounterValue("engine.memory.evicted_rows"),
            stats.evicted_rows);
  EXPECT_GT(stats.evicted_rows, 0u);
}

}  // namespace
}  // namespace vadalink::datalog
