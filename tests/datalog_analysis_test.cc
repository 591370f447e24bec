// datalog/analysis: the static program analyzer — diagnostic codes, rule
// indices and source spans are a stable contract (tools/schemas/lint.json),
// so these tests pin them exactly.
#include <gtest/gtest.h>

#include <algorithm>

#include "datalog/analysis/analyzer.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "datalog/stratify.h"
#include "datalog/warded.h"

namespace vadalink::datalog::analysis {
namespace {

class AnalysisTest : public ::testing::Test {
 protected:
  Catalog catalog;

  AnalysisReport Analyze(const std::string& src) {
    auto program = ParseProgram(src, &catalog);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    program_ = std::move(program).value();
    return AnalyzeProgram(program_, catalog);
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

  Program program_;
};

// ---- wardedness (VL01x) ---------------------------------------------------

TEST_F(AnalysisTest, DangerousJoinAcrossTwoExistentialsIsVL010) {
  auto report = Analyze(R"(
    a(1).
    a(X) -> q(X, N).
    a(X) -> s(X, M).
    q(X, N), s(Y, M) -> t(N, M).
  )");
  ASSERT_TRUE(report.has_errors());
  const Diagnostic* d = Find(report, "VL010");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->rule_index, 2u);  // the join rule
  EXPECT_EQ(d->predicate, "t");
  EXPECT_NE(d->message.find("dangerous variables N, M"), std::string::npos);
  EXPECT_TRUE(d->span.known());
  EXPECT_FALSE(d->hint.empty());
}

TEST_F(AnalysisTest, WardSharingDangerousVariableIsVL011) {
  auto report = Analyze(R"(
    a(1).
    a(X) -> q(X, N).
    a(Y) -> s(Y, N).
    q(X, N), s(Y, N) -> t(X, N).
  )");
  ASSERT_TRUE(report.has_errors());
  const Diagnostic* d = Find(report, "VL011");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule_index, 2u);
  // The message names the atom the ward illegally shares N with.
  EXPECT_NE(d->message.find("N"), std::string::npos);
  EXPECT_TRUE(d->span.known());
}

TEST_F(AnalysisTest, WardedProgramHasNoWardDiagnostics) {
  auto report = Analyze(R"(
    person(1).
    person(X) -> hascompany(X, C).
    hascompany(X, C), person(X) -> owns(X, C).
  )");
  EXPECT_EQ(Find(report, "VL010"), nullptr);
  EXPECT_EQ(Find(report, "VL011"), nullptr);
  EXPECT_FALSE(report.has_errors());
}

// ---- stratification (VL02x) ----------------------------------------------

TEST_F(AnalysisTest, NegationThroughMutualRecursionIsVL020) {
  auto report = Analyze(R"(
    b(1).
    b(X), not q(X) -> p(X).
    p(X) -> q(X).
  )");
  ASSERT_TRUE(report.has_errors());
  const Diagnostic* d = Find(report, "VL020");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule_index, 0u);  // the rule holding 'not q'
  EXPECT_EQ(d->predicate, "q");
  // The cycle is spelled out, closed on its first predicate.
  EXPECT_NE(d->message.find("->"), std::string::npos);
  EXPECT_NE(d->message.find("q"), std::string::npos);
  EXPECT_NE(d->message.find("p"), std::string::npos);
  EXPECT_TRUE(d->span.known());
}

TEST_F(AnalysisTest, NegationBetweenTwoSccsIsStratifiable) {
  // Two recursive components with negation only on the bridge between
  // them: stratifiable, so no VL020.
  auto report = Analyze(R"(
    e(1,2).
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
    e(X,Y), not tc(Y,X) -> oneway(X,Y).
    oneway(X,Y) -> chain(X,Y).
    chain(X,Y), oneway(Y,Z) -> chain(X,Z).
  )");
  EXPECT_EQ(Find(report, "VL020"), nullptr);
  EXPECT_FALSE(report.has_errors());
}

TEST_F(AnalysisTest, AntiMonotoneAggregateGuardInSelfLoopIsVL021) {
  auto report = Analyze(R"(
    start(1). e(1,2). e(2,3).
    start(X) -> reach(X).
    reach(X), e(X,Y), C = mcount(<Y>), C < 10 -> reach(Y).
  )");
  const Diagnostic* d = Find(report, "VL021");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->rule_index, 1u);
  EXPECT_NE(d->message.find("mcount"), std::string::npos);
  EXPECT_NE(d->message.find("C"), std::string::npos);
  // A warning alone never fails the report.
  EXPECT_FALSE(report.has_errors());
}

TEST_F(AnalysisTest, MonotoneAggregateGuardInRecursionIsClean) {
  auto report = Analyze(R"(
    start(1). e(1,2).
    start(X) -> reach(X).
    reach(X), e(X,Y), C = mcount(<Y>), C >= 1 -> reach(Y).
  )");
  EXPECT_EQ(Find(report, "VL021"), nullptr);
}

TEST_F(AnalysisTest, AggregateOutsideRecursionIsNotVL021) {
  auto report = Analyze(R"(
    own(1, 2, 0.6).
    own(X, Y, W), S = msum(W, <X>), S < 0.5 -> minority(X, Y).
  )");
  EXPECT_EQ(Find(report, "VL021"), nullptr);
}

// ---- hygiene (VL03x) ------------------------------------------------------

TEST_F(AnalysisTest, UnusedPredicateIsVL030) {
  auto report = Analyze(R"(
    a(1).
    a(X) -> orphan(X).
    a(X) -> used(X).
    @output("used").
  )");
  const Diagnostic* d = Find(report, "VL030");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->predicate, "orphan");
  EXPECT_EQ(d->severity, Severity::kWarning);
}

TEST_F(AnalysisTest, DeadRuleIsVL031) {
  auto report = Analyze(R"(
    a(1).
    a(X) -> dead_end(X).
    dead_end(X) -> cul_de_sac(X).
    a(X) -> live(X).
    @output("live").
  )");
  // Both rules on the dead chain are flagged; the live rule is not.
  EXPECT_EQ(CountCode(report, "VL031"), 2u);
  const Diagnostic* d = Find(report, "VL031");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule_index, 0u);
}

TEST_F(AnalysisTest, NoOutputsMeansNoDeadRuleLint) {
  auto report = Analyze(R"(
    a(1).
    a(X) -> b(X).
  )");
  EXPECT_EQ(Find(report, "VL031"), nullptr);
}

TEST_F(AnalysisTest, SingletonVariableIsVL032) {
  auto report = Analyze(R"(
    e(1, 2).
    e(X, Y) -> p(X).
  )");
  const Diagnostic* d = Find(report, "VL032");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule_index, 0u);
  EXPECT_NE(d->message.find("Y"), std::string::npos);
}

TEST_F(AnalysisTest, UnderscorePrefixSuppressesVL032) {
  auto report = Analyze(R"(
    e(1, 2).
    e(X, _Y) -> p(X).
  )");
  EXPECT_EQ(Find(report, "VL032"), nullptr);
}

TEST_F(AnalysisTest, ExistentialHeadVariableIsNotASingleton) {
  auto report = Analyze(R"(
    p(1).
    p(X) -> q(X, N).
  )");
  EXPECT_EQ(Find(report, "VL032"), nullptr);
}

TEST_F(AnalysisTest, ArityConflictIsVL033) {
  auto report = Analyze(R"(
    p(1, 2).
    p(X) -> q(X).
  )");
  const Diagnostic* d = Find(report, "VL033");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->predicate, "p");
  EXPECT_NE(d->message.find("arity 1"), std::string::npos);
  EXPECT_NE(d->message.find("arity 2"), std::string::npos);
  EXPECT_TRUE(report.has_errors());
}

TEST_F(AnalysisTest, ShadowedBuiltinPredicateIsVL034) {
  auto report = Analyze(R"(
    concat(1).
    concat(X) -> p(X).
  )");
  const Diagnostic* d = Find(report, "VL034");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->predicate, "concat");
  EXPECT_EQ(d->severity, Severity::kWarning);
}

// ---- programmatically built programs (parser never sees these) ------------

TEST_F(AnalysisTest, HeadlessRuleIsVL004) {
  Program program;
  Rule rule;
  rule.var_names = {"X"};
  Literal lit;
  lit.kind = Literal::Kind::kAtom;
  lit.atom.predicate = catalog.predicates.Intern("p");
  lit.atom.args = {Term::Var(0)};
  rule.body.push_back(lit);
  program.rules.push_back(rule);
  auto report = AnalyzeProgram(program, catalog);
  const Diagnostic* d = Find(report, "VL004");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule_index, 0u);
  EXPECT_FALSE(d->span.known());  // synthesised rules have no position
}

TEST_F(AnalysisTest, VariableOnlyUnderNegationIsVL002) {
  Program program;
  Rule rule;
  rule.var_names = {"X"};
  Literal neg;
  neg.kind = Literal::Kind::kNegatedAtom;
  neg.atom.predicate = catalog.predicates.Intern("q");
  neg.atom.args = {Term::Var(0)};
  rule.body.push_back(neg);
  Atom head;
  head.predicate = catalog.predicates.Intern("p");
  head.args = {Term::Var(0)};
  rule.head.push_back(head);
  program.rules.push_back(rule);
  auto report = AnalyzeProgram(program, catalog);
  const Diagnostic* d = Find(report, "VL002");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->predicate, "q");
}

TEST_F(AnalysisTest, UnboundComparisonVariableIsVL001) {
  Program program;
  Rule rule;
  rule.var_names = {"X", "Y"};
  Literal atom;
  atom.kind = Literal::Kind::kAtom;
  atom.atom.predicate = catalog.predicates.Intern("p");
  atom.atom.args = {Term::Var(0)};
  rule.body.push_back(atom);
  Literal cmp;
  cmp.kind = Literal::Kind::kComparison;
  cmp.cmp = CmpOp::kLt;
  cmp.lhs = Expr::Var(1);  // Y is never bound
  cmp.rhs = Expr::Const(Value::Int(3));
  rule.body.push_back(cmp);
  Atom head;
  head.predicate = catalog.predicates.Intern("q");
  head.args = {Term::Var(0)};
  rule.head.push_back(head);
  program.rules.push_back(rule);
  auto report = AnalyzeProgram(program, catalog);
  const Diagnostic* d = Find(report, "VL001");
  ASSERT_NE(d, nullptr);
  EXPECT_NE(d->message.find("Y"), std::string::npos);
}

// ---- report rendering -----------------------------------------------------

TEST_F(AnalysisTest, RenderCarriesCodeRuleAndPosition) {
  auto report = Analyze(R"(
    b(1).
    b(X), not q(X) -> p(X).
    p(X) -> q(X).
  )");
  std::string text = report.Render();
  EXPECT_NE(text.find("error[VL020] rule 0"), std::string::npos);
  EXPECT_NE(text.find("line 3"), std::string::npos);
  EXPECT_NE(text.find("hint:"), std::string::npos);
}

TEST_F(AnalysisTest, JsonIsByteStableAcrossRuns) {
  const std::string src = R"(
    p(1, 2).
    p(X) -> q(X).
  )";
  auto r1 = Analyze(src);
  Catalog cat2;
  auto program2 = ParseProgram(src, &cat2);
  ASSERT_TRUE(program2.ok());
  auto r2 = AnalyzeProgram(*program2, cat2);
  EXPECT_EQ(r1.ToJson("x.vada").Dump(), r2.ToJson("x.vada").Dump());
  EXPECT_EQ(r1.ToJson("x.vada").Find("schema_version")->AsInt(), 1);
}

TEST(AnalysisReportJsonTest, ParsesBackToReportValues) {
  AnalysisReport report;
  Diagnostic error;
  error.severity = Severity::kError;
  error.code = "VL010";
  error.rule_index = 2;
  error.predicate = "p";
  error.span = SourceSpan{4, 3};
  error.message = "no \"ward\"\n";
  error.hint = "split the rule";
  report.diagnostics.push_back(error);
  Diagnostic program_level;  // a warning with no rule and no position
  program_level.code = "VL030";
  program_level.message = "unused";
  report.diagnostics.push_back(program_level);
  report.cost.present = true;
  report.cost.program_cost = 1234567.89;
  report.cost.recursive_sccs = 1;
  report.cost.warded_only_sccs = 0;
  report.cost.predicates.push_back({"tc", 0.0, 1e15, "linear_in_edb"});
  report.cost.rules.push_back({3, 0.1234567, 64.0, true, false});

  auto doc = Json::Parse(report.ToJson("x.vada").Dump());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("program")->AsString(), "x.vada");
  const Json* summary = doc->Find("summary");
  EXPECT_EQ(summary->Find("errors")->AsInt(), 1);
  EXPECT_EQ(summary->Find("warnings")->AsInt(), 1);
  EXPECT_EQ(summary->Find("diagnostics")->AsInt(), 2);
  const Json::Array& diags = doc->Find("diagnostics")->AsArray();
  ASSERT_EQ(diags.size(), 2u);
  EXPECT_EQ(diags[0].Find("severity")->AsString(), "error");
  EXPECT_EQ(diags[0].Find("code")->AsString(), "VL010");
  EXPECT_EQ(diags[0].Find("rule")->AsInt(), 2);
  EXPECT_EQ(diags[0].Find("predicate")->AsString(), "p");
  EXPECT_EQ(diags[0].Find("line")->AsInt(), 4);
  EXPECT_EQ(diags[0].Find("col")->AsInt(), 3);
  EXPECT_EQ(diags[0].Find("message")->AsString(), error.message);
  EXPECT_EQ(diags[0].Find("hint")->AsString(), "split the rule");
  EXPECT_EQ(diags[1].Find("severity")->AsString(), "warning");
  EXPECT_EQ(diags[1].Find("rule")->AsInt(), -1);
  EXPECT_EQ(diags[1].Find("line")->AsInt(), 0);

  // Cost figures carry 6 significant digits.
  const Json* cost = doc->Find("cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->Find("program_cost")->AsDouble(), 1234570.0);
  EXPECT_EQ(cost->Find("recursive_sccs")->AsInt(), 1);
  EXPECT_EQ(cost->Find("warded_only_sccs")->AsInt(), 0);
  const Json& pred = cost->Find("predicates")->AsArray().at(0);
  EXPECT_EQ(pred.Find("predicate")->AsString(), "tc");
  EXPECT_EQ(pred.Find("lo")->AsDouble(), 0.0);
  EXPECT_EQ(pred.Find("hi")->AsDouble(), 1e15);
  EXPECT_EQ(pred.Find("growth")->AsString(), "linear_in_edb");
  const Json& rule = cost->Find("rules")->AsArray().at(0);
  EXPECT_EQ(rule.Find("rule")->AsInt(), 3);
  EXPECT_EQ(rule.Find("join_cost")->AsDouble(), 0.123457);
  EXPECT_EQ(rule.Find("output_rows")->AsDouble(), 64.0);
  EXPECT_TRUE(rule.Find("cartesian")->AsBool());
  EXPECT_FALSE(rule.Find("unbound_self_join")->AsBool());
  EXPECT_NE(report.ToJson("x.vada").Dump().find("\"join_cost\":0.123457,"),
            std::string::npos);
}

TEST_F(AnalysisTest, CleanProgramHasEmptyReport) {
  auto report = Analyze(R"(
    e(1,2).
    e(X,Y) -> tc(X,Y).
    tc(X,Y), e(Y,Z) -> tc(X,Z).
    @output("tc").
  )");
  EXPECT_TRUE(report.diagnostics.empty());
  EXPECT_EQ(report.Render(), "");
}

// ---- engine pre-flight ----------------------------------------------------

class PreflightTest : public ::testing::Test {
 protected:
  Catalog catalog;
  Database db{&catalog};
};

TEST_F(PreflightTest, UnwardedProgramFailsRunNamingTheRule) {
  auto program = ParseProgram(R"(
    a(1).
    a(X) -> q(X, N).
    a(X) -> s(X, M).
    q(X, N), s(Y, M) -> t(N, M).
  )", &catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(&db);
  Status st = engine.Run(*program);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("pre-flight"), std::string::npos);
  EXPECT_NE(st.message().find("VL010"), std::string::npos);
  EXPECT_NE(st.message().find("rule 2"), std::string::npos);
}

TEST_F(PreflightTest, UnstratifiableProgramFailsRunNamingTheCycle) {
  auto program = ParseProgram(R"(
    b(1).
    b(X), not q(X) -> p(X).
    p(X) -> q(X).
  )", &catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(&db);
  Status st = engine.Run(*program);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("VL020"), std::string::npos);
  EXPECT_NE(st.message().find("->"), std::string::npos);
}

TEST_F(PreflightTest, PreflightOffDefersToRuntimeChecks) {
  auto program = ParseProgram(R"(
    p(1, 2).
    p(X) -> q(X).
  )", &catalog);
  ASSERT_TRUE(program.ok());
  EngineOptions opts;
  opts.preflight = false;
  Engine engine(&db, opts);
  Status st = engine.Run(*program);
  // Still rejected, but by the runtime arity check, not the analyzer.
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message().find("pre-flight"), std::string::npos);
}

TEST_F(PreflightTest, WarningsDoNotBlockRunAndReachMetrics) {
  auto program = ParseProgram(R"(
    e(1, 2).
    e(X, Y) -> p(X).
  )", &catalog);
  ASSERT_TRUE(program.ok());
  MetricsRegistry metrics;
  EngineOptions opts;
  opts.metrics = &metrics;
  Engine engine(&db, opts);
  ASSERT_TRUE(engine.Run(*program).ok());
  // The singleton-variable warning (VL032) was counted, not fatal.
  EXPECT_GE(metrics.CounterValue("analysis.warnings"), 1u);
  EXPECT_EQ(metrics.CounterValue("analysis.diag.VL032"), 1u);
}

}  // namespace
}  // namespace vadalink::datalog::analysis
