// Goal-directed evaluation: the magic-set rewrite (datalog/magic.h), the
// demand dataflow analysis (datalog/dataflow.h) and Engine::Query. The
// correctness bar throughout: Query(goal) returns exactly the
// goal-matching subset of the full-saturation fact set, at every thread
// count, whether the rewrite applied or reported a fallback.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "company/company_graph.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/magic.h"
#include "datalog/parser.h"
#include "gen/barabasi_albert.h"

namespace vadalink {
namespace {

using datalog::Catalog;
using datalog::Database;
using datalog::Engine;
using datalog::EngineOptions;
using datalog::MagicResult;
using datalog::MagicRewrite;
using datalog::ParseProgram;
using datalog::ParseQueryGoal;
using datalog::Program;
using datalog::QueryGoal;
using datalog::QueryReport;
using datalog::Value;

using Tuples = std::vector<std::vector<Value>>;

graph::PropertyGraph TestGraph(size_t nodes, size_t edges_per_node,
                               uint64_t seed) {
  gen::BarabasiAlbertConfig ba;
  ba.nodes = nodes;
  ba.edges_per_node = edges_per_node;
  ba.seed = seed;
  return gen::GenerateBarabasiAlbert(ba);
}

std::unique_ptr<ThreadPool> PoolFor(size_t threads) {
  ParallelOptions po;
  po.threads = threads;
  return MakeThreadPool(po);  // nullptr for 1 thread = sequential path
}

/// Full saturation, then the goal-matching subset, sorted.
Tuples SaturationSubset(const graph::PropertyGraph& g,
                        const std::string& rules, const std::string& goal,
                        size_t threads) {
  Catalog catalog;
  Database db(&catalog);
  EXPECT_TRUE(core::LoadGraphFacts(g, &db).ok());
  auto program = ParseProgram(rules, &catalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto parsed_goal = ParseQueryGoal(goal, &catalog);
  EXPECT_TRUE(parsed_goal.ok()) << parsed_goal.status().ToString();
  auto pool = PoolFor(threads);
  EngineOptions opts;
  opts.pool = pool.get();
  Engine engine(&db, opts);
  EXPECT_TRUE(engine.Run(*program).ok());
  Tuples out;
  for (datalog::RowRef row : db.Scan(parsed_goal->atom.predicate)) {
    std::vector<Value> tuple = row.ToTuple();
    if (GoalMatches(*parsed_goal, tuple)) out.push_back(std::move(tuple));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Tuples QueryAnswers(const graph::PropertyGraph& g, const std::string& rules,
                    const std::string& goal, size_t threads,
                    QueryReport* report_out = nullptr) {
  Catalog catalog;
  Database db(&catalog);
  EXPECT_TRUE(core::LoadGraphFacts(g, &db).ok());
  auto program = ParseProgram(rules, &catalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto parsed_goal = ParseQueryGoal(goal, &catalog);
  EXPECT_TRUE(parsed_goal.ok()) << parsed_goal.status().ToString();
  auto pool = PoolFor(threads);
  EngineOptions opts;
  opts.pool = pool.get();
  Engine engine(&db, opts);
  auto report = engine.Query(*program, *parsed_goal);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  if (!report.ok()) return {};
  if (report_out != nullptr) *report_out = *report;
  return report->answers;
}

/// A node with at least one outgoing ownership edge (a query source that
/// actually exercises the recursion).
int64_t SomeSource(const graph::PropertyGraph& g) {
  auto cg = company::CompanyGraph::FromPropertyGraph(g);
  if (!cg.ok()) return 0;
  for (graph::NodeId n = 0; n < cg->node_count(); ++n) {
    if (!cg->holdings(n).empty()) return static_cast<int64_t>(n);
  }
  return 0;
}

// ---------------------------------------------------------------------------
// ParseQueryGoal

TEST(ParseQueryGoal, AtomWithConstantsAndVariables) {
  Catalog cat;
  auto goal = ParseQueryGoal("control(7, X)", &cat);
  ASSERT_TRUE(goal.ok());
  EXPECT_EQ(cat.predicates.Name(goal->atom.predicate), "control");
  ASSERT_EQ(goal->atom.args.size(), 2u);
  EXPECT_FALSE(goal->atom.args[0].is_var());
  EXPECT_EQ(goal->atom.args[0].constant, Value::Int(7));
  EXPECT_TRUE(goal->atom.args[1].is_var());
  EXPECT_EQ(goal->var_names[goal->atom.args[1].var], "X");
  EXPECT_EQ(goal->ToString(cat), "control(7, X)");
}

TEST(ParseQueryGoal, RejectsNonAtoms) {
  Catalog cat;
  EXPECT_FALSE(ParseQueryGoal("a(X), b(X)", &cat).ok());
  EXPECT_FALSE(ParseQueryGoal("not p(X)", &cat).ok());
  EXPECT_FALSE(ParseQueryGoal("p(X) -> q(X)", &cat).ok());
  EXPECT_FALSE(ParseQueryGoal("", &cat).ok());
}

// ---------------------------------------------------------------------------
// GoalMatches

TEST(GoalMatches, ExactValueEquality) {
  Catalog cat;
  auto goal = ParseQueryGoal("p(1, X)", &cat);
  ASSERT_TRUE(goal.ok());
  EXPECT_TRUE(GoalMatches(*goal, {Value::Int(1), Value::Int(9)}));
  EXPECT_FALSE(GoalMatches(*goal, {Value::Int(2), Value::Int(9)}));
  // Engine joins use exact value identity (1 != 1.0); the goal filter
  // must agree, or query answers and the saturation subset could differ.
  EXPECT_FALSE(GoalMatches(*goal, {Value::Double(1.0), Value::Int(9)}));
  EXPECT_FALSE(GoalMatches(*goal, {Value::Int(1)}));
}

// ---------------------------------------------------------------------------
// Rewrite structure on the paper programs

TEST(MagicRewrite, ControlProgramRewrites) {
  Catalog cat;
  auto program = ParseProgram(core::ControlProgram(), &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("control(3, X)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_TRUE(res.rewritten);
  EXPECT_TRUE(res.fallback_reason.empty());
  EXPECT_GE(res.magic_rules, 1u);
  EXPECT_GE(res.adornments, 2u);  // control^bf and ctrl^bf at least
  // Every original rule is goal-relevant here; the win is the guards.
  EXPECT_EQ(res.rules_pruned, 0u);
  EXPECT_GT(res.program.rules.size(), program->rules.size());
  // The seed fact for the goal's own demand is appended to the facts.
  ASSERT_EQ(res.program.facts.size(), program->facts.size() + 1);
  EXPECT_EQ(res.program.facts.back().args.size(), 1u);
  EXPECT_EQ(res.program.facts.back().args[0].constant, Value::Int(3));
}

TEST(MagicRewrite, CloseLinkMutuallyRecursiveAdornments) {
  Catalog cat;
  auto program = ParseProgram(core::CloseLinkProgram(0.2, 8), &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("closelink(5, Y)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_TRUE(res.rewritten) << res.fallback_reason;
  // The symmetry rule closelink(X,Y) -> closelink(Y,X) makes the bf and
  // fb adornments demand each other; walk is explored both forward (from
  // the bound first argument) and backward (toward the bound second
  // argument of accown). That is at least: closelink^bf, closelink^fb,
  // accown^bff, accown^fbf, walk^bfff, walk^fbff.
  EXPECT_GE(res.adornments, 6u);
  bool has_bf = false;
  bool has_fb = false;
  for (size_t p = 0; p < cat.predicates.size(); ++p) {
    const std::string& name = cat.predicates.Name(static_cast<uint32_t>(p));
    has_bf |= name == "__magic_closelink_bf";
    has_fb |= name == "__magic_closelink_fb";
  }
  EXPECT_TRUE(has_bf);
  EXPECT_TRUE(has_fb);
}

// ---------------------------------------------------------------------------
// Fallback gates

TEST(MagicRewrite, ExistentialRulesFallBack) {
  // Labeled-null identity depends on enumeration order; guarding an
  // existential rule could change which nulls exist.
  Catalog cat;
  auto program = ParseProgram(R"(
    own(1, 2, 5).
    own(X, Y, W) -> glink(L, X, Y).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("glink(L, 1, Y)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_NE(res.fallback_reason.find("existential"), std::string::npos)
      << res.fallback_reason;
  EXPECT_EQ(res.fallback_code, "existential_in_kept_rule");
}

TEST(MagicRewrite, MultiHeadGoalFallsBackToFullCone) {
  // Every rule of the paper's input-promotion program is multi-head:
  // guarding one head would starve the other, so the goal predicate is
  // pinned to full evaluation of its (pruned) cone.
  Catalog cat;
  auto program = ParseProgram(core::InputPromotionProgram(), &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("gedgetype(L, \"pers_share\")", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_NE(res.fallback_reason.find("in full"), std::string::npos)
      << res.fallback_reason;
  EXPECT_EQ(res.fallback_code, "needs_full");
}

TEST(MagicRewrite, NegationInsideGoalSccFallsBack) {
  // Negation through the goal's own recursive component. (The engine
  // would reject this program as unstratifiable anyway; the rewrite must
  // still name the construct rather than produce a bogus program.)
  Catalog cat;
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3).
    e(X, Y), not p(Y) -> p(X).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("p(1)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_NE(res.fallback_reason.find("negation"), std::string::npos)
      << res.fallback_reason;
  // The goal itself is read under negation, so the dataflow analysis
  // pins it to full evaluation before the SCC walk even runs.
  EXPECT_EQ(res.fallback_code, "needs_full");
}

TEST(MagicRewrite, NegationThroughMutualRecursionFallsBack) {
  // The goal is never negated itself, but its recursive component reads
  // a sibling predicate under negation. The dataflow needs_full marking
  // closes downward through rule bodies, so the negated sibling drags the
  // goal to full evaluation before the SCC walk can issue its own code;
  // "negation_in_goal_scc" stays as a defensive backstop behind it.
  Catalog cat;
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3).
    e(X, Y) -> q(X, Y).
    q(X, Y), e(Y, Z), not r(X, Z) -> q(X, Z).
    q(X, Y) -> r(Y, X).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("q(1, X)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_EQ(res.fallback_code, "needs_full");
}

TEST(MagicRewrite, StratifiedNegationOutsideGoalSccRewrites) {
  // `bad` sits below the goal's component and is only read negatively:
  // the rewrite keeps it (and its cone) at full evaluation instead of
  // falling back, and the guarded recursion still answers exactly.
  const std::string rules = R"(
    seed(X) -> bad(X).
    e(X, Y), not bad(Y) -> reach(X, Y).
    reach(X, Y), e(Y, Z), not bad(Z) -> reach(X, Z).
  )";
  const std::string facts = R"(
    seed(4).
    e(1, 2). e(2, 3). e(3, 4). e(2, 5). e(5, 6). e(7, 8).
  )";
  Catalog cat;
  auto program = ParseProgram(facts + rules, &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("reach(1, X)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_TRUE(res.rewritten) << res.fallback_reason;

  // Run both modes and compare the goal subset.
  auto run_answers = [&](bool query_mode) {
    Catalog c;
    Database db(&c);
    auto prog = ParseProgram(facts + rules, &c);
    EXPECT_TRUE(prog.ok());
    auto parsed_goal = ParseQueryGoal("reach(1, X)", &c);
    EXPECT_TRUE(parsed_goal.ok());
    Engine engine(&db, {});
    Tuples out;
    if (query_mode) {
      auto report = engine.Query(*prog, *parsed_goal);
      EXPECT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_TRUE(report->rewritten) << report->fallback_reason;
      return report->answers;
    }
    EXPECT_TRUE(engine.Run(*prog).ok());
    for (datalog::RowRef row : db.Scan(parsed_goal->atom.predicate)) {
      std::vector<Value> tuple = row.ToTuple();
      if (GoalMatches(*parsed_goal, tuple)) out.push_back(std::move(tuple));
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  Tuples query = run_answers(true);
  Tuples saturation = run_answers(false);
  EXPECT_EQ(query, saturation);
  EXPECT_FALSE(query.empty());
}

TEST(MagicRewrite, NonMonotoneAggregateGuardFallsBack) {
  // The running msum value escapes through a downward guard (S < 10):
  // whether some running value is below a bound depends on enumeration
  // order, so the rewrite must refuse.
  Catalog cat;
  auto program = ParseProgram(R"(
    own(1, 2, 4). own(1, 3, 5).
    own(X, Y, W), S = msum(W, <Y>) -> total(X, S).
    total(X, S), S < 10 -> small(X).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("small(1)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_NE(res.fallback_reason.find("non-monotone"), std::string::npos)
      << res.fallback_reason;
  EXPECT_EQ(res.fallback_code, "aggregate_escape");
}

TEST(MagicRewrite, GoalCarryingAggregateValueFallsBack) {
  // The goal itself enumerates running aggregate values.
  Catalog cat;
  auto program = ParseProgram(R"(
    own(1, 2, 4). own(1, 3, 5).
    own(X, Y, W), S = msum(W, <Y>) -> total(X, S).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("total(1, S)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_NE(res.fallback_reason.find("running aggregate"), std::string::npos)
      << res.fallback_reason;
  EXPECT_EQ(res.fallback_code, "aggregate_escape");
}

TEST(MagicRewrite, FallbackCodeSurfacesInQueryReportAndMetrics) {
  // The slug must ride the whole way: MagicResult -> QueryReport ->
  // one engine.query.fallback.<code> counter an operator can alert on,
  // instead of a free-text reason that only shows up in logs.
  Catalog cat;
  Database db(&cat);
  auto program = ParseProgram(R"(
    own(1, 2, 4). own(1, 3, 5).
    own(X, Y, W), S = msum(W, <Y>) -> total(X, S).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("total(1, S)", &cat);
  ASSERT_TRUE(goal.ok());
  MetricsRegistry metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  Engine engine(&db, opts);
  auto report = engine.Query(*program, *goal);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->rewritten);
  EXPECT_EQ(report->fallback_code, "aggregate_escape");
  EXPECT_FALSE(report->answers.empty());
  EXPECT_EQ(metrics.CounterValue("engine.query.fallbacks"), 1u);
  EXPECT_EQ(
      metrics.CounterValue("engine.query.fallback.aggregate_escape"), 1u);

  // A goal the rewrite handles increments neither counter.
  auto ok_goal = ParseQueryGoal("own(1, Y, W)", &cat);
  ASSERT_TRUE(ok_goal.ok());
  auto ok_report = engine.Query(*program, *ok_goal);
  ASSERT_TRUE(ok_report.ok()) << ok_report.status().ToString();
  EXPECT_TRUE(ok_report->fallback_code.empty());
  EXPECT_EQ(metrics.CounterValue("engine.query.fallbacks"), 1u);
  EXPECT_EQ(
      metrics.CounterValue("engine.query.fallback.aggregate_escape"), 1u);
}

TEST(MagicRewrite, MonotoneThresholdGuardIsAccepted) {
  // The same program with an upward guard (S >= 9) rewrites: for an
  // increasing aggregate, "some running value >= t" is equivalent to
  // "the final value >= t".
  Catalog cat;
  auto program = ParseProgram(R"(
    own(1, 2, 4). own(1, 3, 5).
    own(X, Y, W), S = msum(W, <Y>) -> total(X, S).
    total(X, S), S >= 9 -> big(X).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("big(1)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_TRUE(res.rewritten) << res.fallback_reason;
}

TEST(MagicRewrite, AllFreeGoalPrunesOnly) {
  Catalog cat;
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3). f(1, 2).
    e(X, Y) -> p(X, Y).
    f(X, Y) -> q(X, Y).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("p(X, Y)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_FALSE(res.rewritten);
  EXPECT_TRUE(res.fallback_reason.empty());  // no demand, not a fallback
  EXPECT_TRUE(res.fallback_code.empty());
  // The q rule is irrelevant to p and dropped.
  EXPECT_EQ(res.rules_pruned, 1u);
  EXPECT_EQ(res.program.rules.size(), 1u);
}

TEST(MagicRewrite, ConstantConflictPrunesUnreachableRules) {
  // Demand on path's first position is {1}; the special-hub rule can only
  // produce first argument 7 and is pruned by the value-set analysis.
  Catalog cat;
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3). hub(9).
    e(X, Y) -> path(X, Y).
    special(X, Y) -> path(X, Y).
    hub(Y) -> special(7, Y).
  )",
                              &cat);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("path(1, X)", &cat);
  ASSERT_TRUE(goal.ok());
  MagicResult res = MagicRewrite(*program, &cat, *goal);
  EXPECT_TRUE(res.rewritten) << res.fallback_reason;
  EXPECT_EQ(res.dataflow.rules_pruned_conflict, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end exactness: query == saturation subset, all thread counts

struct ExactnessCase {
  const char* name;
  std::string rules;
  std::string goal_pred;
  size_t nodes;
  size_t edges_per_node;
  uint64_t seed;
};

class QueryExactness : public ::testing::TestWithParam<ExactnessCase> {};

TEST_P(QueryExactness, MatchesSaturationSubsetAtEveryThreadCount) {
  const ExactnessCase& c = GetParam();
  graph::PropertyGraph g = TestGraph(c.nodes, c.edges_per_node, c.seed);
  std::string goal =
      c.goal_pred + "(" + std::to_string(SomeSource(g)) + ", X)";
  Tuples reference = SaturationSubset(g, c.rules, goal, 1);
  for (size_t threads : {size_t{1}, size_t{8}}) {
    EXPECT_EQ(SaturationSubset(g, c.rules, goal, threads), reference)
        << c.name << " saturation, threads=" << threads;
    QueryReport report;
    EXPECT_EQ(QueryAnswers(g, c.rules, goal, threads, &report), reference)
        << c.name << " query, threads=" << threads;
    EXPECT_TRUE(report.rewritten) << c.name << ": " << report.fallback_reason;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperPrograms, QueryExactness,
    ::testing::Values(
        ExactnessCase{"control", core::ControlProgram(), "control", 120, 2,
                      3},
        ExactnessCase{"closelink", core::CloseLinkProgram(0.2, 6),
                      "closelink", 60, 1, 17}),
    [](const ::testing::TestParamInfo<ExactnessCase>& info) {
      return info.param.name;
    });

TEST(QueryExactness, GroundGoalAndEmptyAnswer) {
  graph::PropertyGraph g = TestGraph(80, 2, 5);
  // A fully ground goal: either one tuple or none, and the query agrees
  // with saturation either way.
  std::string rules = core::ControlProgram();
  Tuples all = SaturationSubset(g, rules, "control(0, X)", 1);
  std::string ground_goal =
      all.empty() ? "control(0, 1)"
                  : "control(0, " + all[0][1].ToString(datalog::SymbolTable{}) +
                        ")";
  Tuples sat = SaturationSubset(g, rules, ground_goal, 1);
  EXPECT_EQ(QueryAnswers(g, rules, ground_goal, 1), sat);
}

TEST(EngineOptionsQueryGoal, RunRoutesThroughQuery) {
  graph::PropertyGraph g = TestGraph(100, 2, 3);
  Catalog catalog;
  Database db(&catalog);
  ASSERT_TRUE(core::LoadGraphFacts(g, &db).ok());
  auto program = ParseProgram(core::ControlProgram(), &catalog);
  ASSERT_TRUE(program.ok());
  std::string goal_text =
      "control(" + std::to_string(SomeSource(g)) + ", X)";
  auto goal = ParseQueryGoal(goal_text, &catalog);
  ASSERT_TRUE(goal.ok());
  Engine engine(&db, {});
  ASSERT_TRUE(engine.Query(*program, *goal).ok());
  // The database holds the goal-matching control facts...
  Tuples via_run;
  for (datalog::RowRef row : db.Scan(goal->atom.predicate)) {
    std::vector<Value> tuple = row.ToTuple();
    if (GoalMatches(*goal, tuple)) via_run.push_back(std::move(tuple));
  }
  std::sort(via_run.begin(), via_run.end());
  EXPECT_EQ(via_run, SaturationSubset(g, core::ControlProgram(), goal_text,
                                      1));
}

TEST(QueryReportMetrics, DerivesFewerFactsThanSaturation) {
  graph::PropertyGraph g = TestGraph(200, 2, 3);
  std::string goal =
      "control(" + std::to_string(SomeSource(g)) + ", X)";
  // Saturation work measure.
  Catalog catalog;
  Database db(&catalog);
  ASSERT_TRUE(core::LoadGraphFacts(g, &db).ok());
  auto program = ParseProgram(core::ControlProgram(), &catalog);
  ASSERT_TRUE(program.ok());
  Engine engine(&db, {});
  ASSERT_TRUE(engine.Run(*program).ok());
  size_t saturation_facts = engine.stats().facts_derived;

  QueryReport report;
  QueryAnswers(g, core::ControlProgram(), goal, 1, &report);
  EXPECT_TRUE(report.rewritten);
  EXPECT_LT(report.facts_derived, saturation_facts);
}

}  // namespace
}  // namespace vadalink
