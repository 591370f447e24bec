// datalog/analysis/cost.h: the static cost & termination analysis and its
// three consumers — the analyzer's VL04x/VL05x lints, the engine's
// cold-relation selectivity priors and the Engine::Query cost admission
// gate (DESIGN.md section 14). Also the satellite lattice edge cases of
// the demand dataflow (datalog/dataflow.h) and the harmful-variable
// masks on multi-head rules (datalog/analysis/harmful.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "datalog/analysis/analyzer.h"
#include "datalog/analysis/cost.h"
#include "datalog/analysis/harmful.h"
#include "datalog/dataflow.h"
#include "datalog/engine.h"
#include "datalog/magic.h"
#include "datalog/parser.h"

namespace vadalink::datalog {
namespace {

using analysis::AnalysisReport;
using analysis::AnalyzeCost;
using analysis::AnalyzeHarmfulVariables;
using analysis::AnalyzeProgram;
using analysis::AnalyzerOptions;
using analysis::CostOptions;
using analysis::CostReport;
using analysis::Diagnostic;
using analysis::kCostCap;
using analysis::SccGrowth;

class CostTest : public ::testing::Test {
 protected:
  Catalog catalog;
  Program program_;

  CostReport Cost(const std::string& src, const CostOptions& options = {}) {
    auto program = ParseProgram(src, &catalog);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    return AnalyzeCost(program_, catalog, options);
  }

  uint32_t Pred(const std::string& name) const {
    uint32_t id = catalog.predicates.Lookup(name);
    EXPECT_NE(id, UINT32_MAX) << name;
    return id;
  }

  static const Diagnostic* Find(const AnalysisReport& report,
                                const std::string& code) {
    for (const Diagnostic& d : report.diagnostics) {
      if (d.code == code) return &d;
    }
    return nullptr;
  }

  static size_t CountCode(const AnalysisReport& report,
                          const std::string& code) {
    return static_cast<size_t>(std::count_if(
        report.diagnostics.begin(), report.diagnostics.end(),
        [&](const Diagnostic& d) { return d.code == code; }));
  }
};

// ---- cardinality intervals ------------------------------------------------

TEST_F(CostTest, EdbIntervalsFromFactsAndDefaults) {
  // e has 2 asserted facts; r has none and no defining rule, so it gets
  // the default EDB cardinality (1000); p is derived.
  auto cost = Cost(R"(
    e(1, 2). e(2, 3).
    e(X, Y), r(Y, Z) -> p(X, Z).
    @output("p").
  )");
  const auto& e = cost.predicates[Pred("e")];
  EXPECT_DOUBLE_EQ(e.lo, 2.0);
  EXPECT_DOUBLE_EQ(e.hi, 2.0);
  const auto& r = cost.predicates[Pred("r")];
  EXPECT_DOUBLE_EQ(r.lo, 1000.0);
  EXPECT_DOUBLE_EQ(r.hi, 1000.0);
  // p: greedy join picks e (2 rows) first, then r with its first column
  // bound — 1000 / sqrt(1000) matches per binding.
  const auto& p = cost.predicates[Pred("p")];
  EXPECT_DOUBLE_EQ(p.lo, 0.0);
  EXPECT_NEAR(p.hi, 63.2456, 0.01);
  EXPECT_EQ(cost.growth[Pred("p")], SccGrowth::kBounded);
  EXPECT_EQ(cost.recursive_sccs, 0u);
  // join_cost sums the intermediates: 2 (after e) + 63.25 (after r).
  EXPECT_NEAR(cost.rules[0].join_cost, 65.2456, 0.01);
  EXPECT_NEAR(cost.program_cost, cost.rules[0].join_cost, 1e-9);
}

TEST_F(CostTest, DeclaredCardinalitiesOverrideDefaults) {
  // Same program, but the caller (the engine seeds from live Relation
  // sizes) declares r at 50 rows.
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3).
    e(X, Y), r(Y, Z) -> p(X, Z).
    @output("p").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  CostOptions options;
  options.edb_cardinalities.assign(catalog.predicates.size(), -1.0);
  options.edb_cardinalities[Pred("r")] = 50.0;
  auto cost = AnalyzeCost(*program, catalog, options);
  EXPECT_DOUBLE_EQ(cost.predicates[Pred("r")].hi, 50.0);
  EXPECT_NEAR(cost.predicates[Pred("p")].hi, 14.1421, 0.01);
}

TEST_F(CostTest, NullFreeRecursionIsLinearInEdb) {
  auto cost = Cost(R"(
    e(1, 2). e(2, 3).
    e(X, Y) -> tc(X, Y).
    tc(X, Y), e(Y, Z) -> tc(X, Z).
    @output("tc").
  )");
  EXPECT_EQ(cost.growth[Pred("e")], SccGrowth::kBounded);
  EXPECT_EQ(cost.growth[Pred("tc")], SccGrowth::kLinearInEdb);
  // adom = 2 facts x arity 2 = 4; the recursion can reach adom^2 = 16.
  EXPECT_DOUBLE_EQ(cost.predicates[Pred("tc")].hi, 16.0);
  EXPECT_EQ(cost.recursive_sccs, 1u);
  EXPECT_EQ(cost.warded_only_sccs, 0u);
}

TEST_F(CostTest, NullGeneratingRecursionIsWardedOnly) {
  // company -> psc (invents P) -> entity -> company: the invented null
  // feeds back into its own component.
  auto cost = Cost(R"(
    company("c").
    company(X) -> psc(X, P).
    psc(_X, P) -> entity(P).
    entity(P) -> company(P).
    @output("psc").
  )");
  EXPECT_EQ(cost.growth[Pred("company")], SccGrowth::kWardedOnly);
  EXPECT_EQ(cost.growth[Pred("psc")], SccGrowth::kWardedOnly);
  EXPECT_DOUBLE_EQ(cost.predicates[Pred("psc")].hi, kCostCap);
  EXPECT_EQ(cost.recursive_sccs, 1u);
  EXPECT_EQ(cost.warded_only_sccs, 1u);
  ASSERT_EQ(cost.warded_only_components.size(), 1u);
  std::vector<uint32_t> members = {Pred("company"), Pred("psc"),
                                   Pred("entity")};
  std::sort(members.begin(), members.end());
  EXPECT_EQ(cost.warded_only_components[0], members);
  ASSERT_EQ(cost.warded_only_witness_rule.size(), 1u);
  EXPECT_EQ(cost.warded_only_witness_rule[0], 0u);  // the existential rule
}

TEST_F(CostTest, ExistentialOutsideRecursionStaysBounded) {
  // The invented null never feeds back: no warded-only component.
  auto cost = Cost(R"(
    company("c").
    company(X) -> psc(X, P).
    @output("psc").
  )");
  EXPECT_EQ(cost.growth[Pred("psc")], SccGrowth::kBounded);
  EXPECT_EQ(cost.warded_only_sccs, 0u);
  EXPECT_EQ(cost.recursive_sccs, 0u);
}

// ---- rule shape flags -----------------------------------------------------

TEST_F(CostTest, CartesianAndSelfJoinFlags) {
  auto cost = Cost(R"(
    a(1). b(2). e(1, 2).
    a(X), b(Y) -> p(X, Y).
    a(X), b(X) -> q(X).
    a(X), b(Y), X < Y -> s(X, Y).
    e(X, _U), e(Y, _V) -> t(X, Y).
    e(X, Y), e(Y, Z) -> u(X, Z).
    @output("p").
  )");
  EXPECT_TRUE(cost.rules[0].cartesian);       // disjoint groups
  EXPECT_FALSE(cost.rules[1].cartesian);      // shared variable
  EXPECT_FALSE(cost.rules[2].cartesian);      // comparison joins the groups
  EXPECT_TRUE(cost.rules[3].cartesian);
  EXPECT_TRUE(cost.rules[3].unbound_self_join);
  EXPECT_EQ(cost.rules[3].self_join_pred, Pred("e"));
  EXPECT_FALSE(cost.rules[4].unbound_self_join);  // chained on Y
  EXPECT_FALSE(cost.rules[0].unbound_self_join);  // distinct predicates
}

// ---- analyzer diagnostics (VL04x / VL05x) ---------------------------------

class CostLintTest : public CostTest {
 protected:
  AnalysisReport Lint(const std::string& src, AnalyzerOptions options = {}) {
    auto program = ParseProgram(src, &catalog);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    options.cost = true;
    return AnalyzeProgram(program_, catalog, options);
  }
};

TEST_F(CostLintTest, CartesianBodyIsVL040) {
  auto report = Lint(R"(
    person(X), company(Y), asset(Z) -> exposure(X, Y, Z).
    @output("exposure").
  )");
  EXPECT_FALSE(report.has_errors());
  const Diagnostic* d = Find(report, "VL040");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kWarning);
  EXPECT_EQ(d->rule_index, 0u);
  EXPECT_EQ(d->predicate, "exposure");
  EXPECT_NE(d->message.find("cartesian product"), std::string::npos);
  // 1000^3 default-cardinality bindings blow the default 1e8 budget too.
  EXPECT_NE(Find(report, "VL042"), nullptr);
}

TEST_F(CostLintTest, UnboundSelfJoinIsVL041) {
  auto report = Lint(R"(
    own(X, _A), own(Y, _B) -> copair(X, Y).
    @output("copair").
  )");
  const Diagnostic* d = Find(report, "VL041");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kWarning);
  EXPECT_EQ(d->predicate, "own");
  EXPECT_NE(d->message.find("unbound self-join"), std::string::npos);
}

TEST_F(CostLintTest, BudgetOptionControlsVL042) {
  const std::string src = R"(
    person(X), company(Y) -> pair(X, Y).
    @output("pair").
  )";
  AnalyzerOptions generous;
  generous.cost_options.rule_output_budget = 1e12;
  EXPECT_EQ(CountCode(Lint(src, generous), "VL042"), 0u);

  Catalog fresh;
  catalog = std::move(fresh);
  AnalyzerOptions tight;
  tight.cost_options.rule_output_budget = 10.0;
  auto report = Lint(src, tight);
  const Diagnostic* d = Find(report, "VL042");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("exceeds the cost budget"), std::string::npos);
}

TEST_F(CostLintTest, WardedOnlyRecursionIsVL050) {
  auto report = Lint(R"(
    company("c").
    company(X) -> psc(X, P).
    psc(_X, P) -> entity(P).
    entity(P) -> company(P).
    @output("psc").
  )");
  EXPECT_FALSE(report.has_errors());
  const Diagnostic* d = Find(report, "VL050");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, analysis::Severity::kWarning);
  EXPECT_EQ(d->rule_index, 0u);  // the witness existential rule
  EXPECT_NE(d->message.find("warded chase"), std::string::npos);
  EXPECT_NE(d->message.find("company"), std::string::npos);
  EXPECT_TRUE(d->span.known());
  // The report's summary block mirrors the analysis.
  ASSERT_TRUE(report.cost.present);
  EXPECT_EQ(report.cost.warded_only_sccs, 1u);
  EXPECT_GE(report.cost.recursive_sccs, 1u);
}

TEST_F(CostLintTest, CostPassOffByDefault) {
  auto program = ParseProgram(R"(
    person(X), company(Y), asset(Z) -> exposure(X, Y, Z).
    @output("exposure").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  auto report = AnalyzeProgram(*program, catalog);
  EXPECT_EQ(CountCode(report, "VL040"), 0u);
  EXPECT_FALSE(report.cost.present);
}

TEST_F(CostLintTest, ReportSummaryCoversEveryPredicateAndRule) {
  auto report = Lint(R"(
    e(1, 2).
    e(X, Y) -> tc(X, Y).
    tc(X, Y), e(Y, Z) -> tc(X, Z).
    @output("tc").
  )");
  ASSERT_TRUE(report.cost.present);
  EXPECT_EQ(report.cost.predicates.size(), catalog.predicates.size());
  EXPECT_EQ(report.cost.rules.size(), program_.rules.size());
  for (const auto& p : report.cost.predicates) {
    EXPECT_LE(p.lo, p.hi) << p.predicate;
    EXPECT_TRUE(p.growth == "bounded" || p.growth == "linear_in_edb" ||
                p.growth == "warded_only")
        << p.growth;
  }
  EXPECT_GT(report.cost.program_cost, 0.0);
}

TEST_F(CostLintTest, DiagnosticsAreSortedByLineColCode) {
  // Hygiene lints (pass 4) and cost lints (pass 5) interleave on the
  // source line axis; the final report must still be sorted.
  auto report = Lint(R"(
    person(X), company(Y), asset(Z) -> exposure(X, Y, Z).
    own(X, Stray), own(Y, _B) -> copair(X, Y).
    @output("exposure").
    @output("copair").
  )");
  ASSERT_GE(report.diagnostics.size(), 3u);
  for (size_t i = 1; i < report.diagnostics.size(); ++i) {
    const Diagnostic& a = report.diagnostics[i - 1];
    const Diagnostic& b = report.diagnostics[i];
    EXPECT_LE(std::tie(a.span.line, a.span.col, a.code),
              std::tie(b.span.line, b.span.col, b.code))
        << a.code << " after " << b.code;
  }
}

// ---- engine consumers -----------------------------------------------------

TEST(CostEngineTest, ColdRelationPlansUseStaticPriors) {
  Catalog catalog;
  Database db(&catalog);
  auto program = ParseProgram(R"(
    a(1). a(2).
    a(X), cold(X, Y) -> p(X, Y).
    @output("p").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  Engine engine(&db);
  ASSERT_TRUE(engine.Run(*program).ok());
  // `cold` has no rows and no index statistics; the planner must fall
  // back to the analysis's cardinality interval instead of assuming free.
  EXPECT_GE(engine.stats().cost_priors_used, 1u);
}

TEST(CostEngineTest, QueryReportCarriesEstimate) {
  Catalog catalog;
  Database db(&catalog);
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3). e(3, 4).
    e(X, Y) -> tc(X, Y).
    tc(X, Y), e(Y, Z) -> tc(X, Z).
    @output("tc").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("tc(1, X)", &catalog);
  ASSERT_TRUE(goal.ok());
  Engine engine(&db);
  auto rep = engine.Query(*program, *goal);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_GT(rep->estimated_cost, 0.0);
  EXPECT_FALSE(rep->answers.empty());
}

TEST(CostEngineTest, UnderBudgetQueryIsUnaffected) {
  Catalog catalog;
  Database db(&catalog);
  auto program = ParseProgram(R"(
    e(1, 2). e(2, 3). e(3, 4).
    e(X, Y) -> tc(X, Y).
    tc(X, Y), e(Y, Z) -> tc(X, Z).
    @output("tc").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("tc(1, X)", &catalog);
  ASSERT_TRUE(goal.ok());
  Engine engine(&db, {});
  auto rep = engine.Query(*program, *goal);
  ASSERT_TRUE(rep.ok()) << rep.status().ToString();
  EXPECT_EQ(rep->answers.size(), 3u);  // tc(1,2), tc(1,3), tc(1,4)
  EXPECT_GT(rep->estimated_cost, 0.0);
  EXPECT_LT(rep->estimated_cost, 1e18);
}

// ---- satellite: demand lattice edge cases ---------------------------------

TEST(DemandLatticeTest, ConstSetWidensToAnyPastCap) {
  // kConstSetCap = 16: sixteen distinct constants stay finite, the
  // seventeenth overflows the position to kAny.
  Demand d;
  for (int i = 0; i < 16; ++i) {
    Demand s;
    s.kind = Demand::Kind::kConsts;
    s.consts = {Value::Int(i)};
    EXPECT_TRUE(d.Join(s) || i > 0);
  }
  EXPECT_EQ(d.kind, Demand::Kind::kConsts);
  EXPECT_EQ(d.consts.size(), 16u);

  Demand overflow;
  overflow.kind = Demand::Kind::kConsts;
  overflow.consts = {Value::Int(99)};
  EXPECT_TRUE(d.Join(overflow));
  EXPECT_EQ(d.kind, Demand::Kind::kAny);
  EXPECT_TRUE(d.consts.empty());

  // kAny is absorbing: further joins change nothing.
  EXPECT_FALSE(d.Join(overflow));
}

TEST(DemandLatticeTest, DuplicateConstantsDoNotWiden) {
  Demand d;
  Demand same;
  same.kind = Demand::Kind::kConsts;
  same.consts = {Value::Int(7)};
  EXPECT_TRUE(d.Join(same));
  for (int i = 0; i < 40; ++i) {
    EXPECT_FALSE(d.Join(same));  // already admitted, no change
  }
  EXPECT_EQ(d.kind, Demand::Kind::kConsts);
  EXPECT_EQ(d.consts.size(), 1u);
  EXPECT_TRUE(d.Admits(Value::Int(7)));
  EXPECT_TRUE(d.Admits(Value::Double(7.0)));  // numeric coercion
  EXPECT_FALSE(d.Admits(Value::Int(8)));
}

TEST(DemandLatticeTest, ConstConflictPruningCoercesDuplicateConstants) {
  Catalog catalog;
  auto program = ParseProgram(R"(
    src(5).
    src(Y) -> p(1, Y).
    src(Y) -> p(2, Y).
    src(Y) -> p(1.0, Y).
    @output("p").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  auto goal = ParseQueryGoal("p(1, X)", &catalog);
  ASSERT_TRUE(goal.ok());
  DataflowResult r = AnalyzeDemand(*program, catalog, goal->atom);
  // p(2, Y) conflicts with the demand set {1}; p(1.0, Y) is admitted via
  // numeric coercion (1 and 1.0 satisfy the same demand).
  EXPECT_EQ(r.rules_pruned_conflict, 1u);
  EXPECT_TRUE(r.rule_kept[0]);
  EXPECT_FALSE(r.rule_kept[1]);
  EXPECT_TRUE(r.rule_kept[2]);
}

// ---- satellite: harmful masks on multi-head rules -------------------------

TEST(HarmfulMultiHeadTest, NullAdmittingMasksCoverEveryHead) {
  Catalog catalog;
  auto program = ParseProgram(R"(
    a(1).
    a(X) -> q(X, N), s(N).
    q(_X, N) -> t(N).
    @output("t").
  )",
                              &catalog);
  ASSERT_TRUE(program.ok());
  auto report = AnalyzeHarmfulVariables(*program, catalog);
  const uint32_t q = catalog.predicates.Lookup("q");
  const uint32_t s = catalog.predicates.Lookup("s");
  const uint32_t t = catalog.predicates.Lookup("t");
  ASSERT_NE(q, UINT32_MAX);
  ASSERT_NE(s, UINT32_MAX);
  ASSERT_NE(t, UINT32_MAX);
  // The existential N lands in BOTH heads of the multi-head rule, and
  // propagates through q's second position into t.
  ASSERT_EQ(report.null_admitting[q].size(), 2u);
  EXPECT_FALSE(report.null_admitting[q][0]);  // X comes from the EDB
  EXPECT_TRUE(report.null_admitting[q][1]);
  ASSERT_GE(report.null_admitting[s].size(), 1u);
  EXPECT_TRUE(report.null_admitting[s][0]);
  ASSERT_GE(report.null_admitting[t].size(), 1u);
  EXPECT_TRUE(report.null_admitting[t][0]);
  ASSERT_EQ(report.rules.size(), 2u);
  EXPECT_TRUE(report.rules[0].has_existential);
  EXPECT_FALSE(report.rules[1].has_existential);
}

}  // namespace
}  // namespace vadalink::datalog
