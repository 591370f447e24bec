// core/: the KnowledgeGraph facade (Figure 3 architecture) end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>

#include "company/family.h"
#include "core/knowledge_graph.h"
#include "core/link_functions.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/parser.h"
#include "gen/register_simulator.h"
#include "tests/paper_fixtures.h"

namespace vadalink::core {
namespace {

using ::vadalink::testing::Figure1;

TEST(KnowledgeGraphTest, ReasonMaterialisesControlEdges) {
  auto fixture = Figure1();
  KnowledgeGraph kg;
  *kg.mutable_graph() = fixture.graph();
  ASSERT_TRUE(kg.AddRules(ControlProgram()).ok());
  EXPECT_EQ(kg.rule_count(), 4u);

  auto stats = kg.Reason();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->facts_after, stats->facts_before);
  EXPECT_EQ(stats->links_materialised, 8u);  // Figure 1 control edges
  EXPECT_EQ(kg.Query("control").size(), 8u);

  // Edges really are in the graph now, flagged as predicted.
  graph::EdgeId e = kg.graph().FindEdge(fixture.id("P1"), fixture.id("C"),
                                        "Control");
  ASSERT_NE(e, graph::kInvalidEdge);
  EXPECT_TRUE(kg.graph().GetEdgeProperty(e, "predicted").AsBool());
}

TEST(KnowledgeGraphTest, ExplainDerivedFact) {
  auto fixture = Figure1();
  KnowledgeGraph kg;
  *kg.mutable_graph() = fixture.graph();
  ASSERT_TRUE(kg.AddRules(ControlProgram()).ok());
  ASSERT_TRUE(kg.Reason().ok());
  std::string why =
      kg.Explain("control", {KnowledgeGraph::Int(fixture.id("P2")),
                             KnowledgeGraph::Int(fixture.id("I"))});
  EXPECT_NE(why.find("control("), std::string::npos);
  EXPECT_NE(why.find("rule"), std::string::npos);
}

TEST(KnowledgeGraphTest, WardednessOfPaperPrograms) {
  KnowledgeGraph kg;
  ASSERT_TRUE(kg.AddRules(ControlProgram()).ok());
  ASSERT_TRUE(kg.AddRules(FamilyControlProgram()).ok());
  ASSERT_TRUE(kg.AddRules(InputPromotionProgram()).ok());
  EXPECT_TRUE(kg.CheckWardedness().warded);
}

TEST(KnowledgeGraphTest, BadRulesRejectedEagerly) {
  KnowledgeGraph kg;
  Status st = kg.AddRules("p(X) -> ");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_EQ(kg.rule_count(), 0u);
}

TEST(KnowledgeGraphTest, CustomFunctionAvailable) {
  KnowledgeGraph kg;
  auto n = kg.mutable_graph()->AddNode("Company");
  kg.mutable_graph()->SetNodeProperty(n, "name", "acme");
  kg.RegisterFunction(
      "double_it", [](datalog::FunctionContext&,
                      const std::vector<datalog::Value>& args)
                       -> Result<datalog::Value> {
        return datalog::Value::Int(args[0].AsInt() * 2);
      });
  ASSERT_TRUE(kg.AddRules("company(X), Y = #double_it(X) -> d(Y).").ok());
  ASSERT_TRUE(kg.Reason().ok());
  auto tuples = kg.Query("d");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0][0].AsInt(), static_cast<int64_t>(n) * 2);
}

TEST(KnowledgeGraphTest, ReReasonSeesGraphMutations) {
  // The reinforcement loop of the paper: links added by a first reasoning
  // round become extensional facts of the next.
  auto fixture = Figure1();
  KnowledgeGraph kg;
  *kg.mutable_graph() = fixture.graph();
  ASSERT_TRUE(kg.AddRules(ControlProgram()).ok());
  // A rule over the generic edge encoding, so the rules read what the
  // mutation below adds (only mentioned predicates are extracted).
  ASSERT_TRUE(kg.AddRules("link(E, X, Y, W), edgetype(E, \"PartnerOf\") -> "
                          "household(X, Y).")
                  .ok());
  auto first = kg.Reason();
  ASSERT_TRUE(first.ok());
  size_t first_facts = first->facts_before;
  EXPECT_TRUE(kg.Query("household").empty());

  // Mutate the extensional component: the family edge makes P1 and P2 a
  // household, and a second reasoning round starts from more facts.
  kg.mutable_graph()
      ->AddEdge(fixture.id("P1"), fixture.id("P2"), "PartnerOf")
      .value();
  auto second = kg.Reason();
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->facts_before, first_facts);
  EXPECT_EQ(second->links_materialised, 0u);  // control edges already there
  EXPECT_EQ(kg.Query("household").size(), 1u);
}

// ---- program-driven and delta extraction ----------------------------------

/// A relation as sorted rows rendered exactly (doubles to 17 significant
/// digits, symbols by name), so fact bases over two catalogs compare.
std::vector<std::string> Rows(datalog::RelationScan scan,
                              const datalog::Catalog& cat) {
  std::vector<std::string> rows;
  for (datalog::RowRef t : scan) {
    std::string row;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i].is_double()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", t[i].AsDouble());
        row += buf;
      } else {
        row += t[i].ToString(cat.symbols);
      }
      row += ' ';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// The live edges as sorted "src dst label" lines.
std::vector<std::string> EdgeList(const graph::PropertyGraph& g) {
  std::vector<std::string> edges;
  g.ForEachEdge([&](graph::EdgeId e) {
    edges.push_back(std::to_string(g.edge_src(e)) + " " +
                    std::to_string(g.edge_dst(e)) + " " + g.edge_label(e));
  });
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// A paper program and the relations its rules derive.
struct ProgramCase {
  const char* name;
  std::string rules;
  std::vector<std::string> derived;
};

/// Each reads a different part of the mapping: control the domain
/// encoding's company/person/voting, close links own and company, family
/// links the generic nodetype/nodefeature.
std::vector<ProgramCase> PaperPrograms() {
  return {{"control", ControlProgram(), {"ctrl", "control"}},
          {"closelink", CloseLinkProgram(), {"walk", "accown", "closelink"}},
          {"familylink", FamilyLinkProgram(), {"partnerof"}}};
}

datalog::ExternalFn LinkProbability() {
  return MakeLinkProbabilityFn(
      linkage::BayesLinkClassifier(company::DefaultPersonSchema()));
}

/// A KG over a copy of `g` running `rules`.
std::unique_ptr<KnowledgeGraph> MakeKg(const graph::PropertyGraph& g,
                                       const std::string& rules) {
  auto kg = std::make_unique<KnowledgeGraph>();
  *kg->mutable_graph() = g;
  kg->RegisterFunction("linkprobability", LinkProbability());
  EXPECT_TRUE(kg->AddRules(rules).ok());
  return kg;
}

gen::RegisterData Register200() {
  gen::RegisterConfig rc;
  rc.persons = 200;
  rc.companies = 150;
  rc.seed = 11;
  return gen::GenerateRegister(rc);
}

/// Appends one round's delta: two persons whose properties copy existing
/// persons' (so family links find them), a company, and shareholdings
/// among new and old nodes, one of them bare ownership (own, no voting).
void AppendRound(const gen::RegisterData& data, int round,
                 graph::PropertyGraph* g) {
  auto clone = [&](graph::NodeId of) {
    graph::NodeId n = g->AddNode(g->node_label(of));
    for (const auto& [k, v] : g->node_properties(of)) {
      g->SetNodeProperty(n, k, v);
    }
    return n;
  };
  auto share = [&](graph::NodeId src, graph::NodeId dst, double w) {
    graph::EdgeId e = g->AddEdge(src, dst, "Shareholding").value();
    g->SetEdgeProperty(e, "w", w);
    return e;
  };
  const auto r = static_cast<size_t>(round);
  const graph::NodeId p1 = clone(data.persons[7 * r + 3]);
  const graph::NodeId p2 = clone(data.persons[7 * r + 4]);
  const graph::NodeId c = clone(data.companies[r]);
  share(p1, c, 0.6);
  share(c, data.companies[5 * r + 1], 0.35);
  share(data.companies[10 + r], c, 0.3);
  share(data.persons[r], data.companies[2], 0.3);
  share(p2, data.companies[20 + r], 0.55);
  graph::EdgeId bare = share(p2, data.companies[30 + r], 0.4);
  g->SetEdgeProperty(bare, "right", "bare_ownership");
}

/// Every relation `rules` derives, and the edge list, of `kg` equal
/// those of a fresh KG reasoning over a copy of `graph`.
void ExpectEqualsFresh(const KnowledgeGraph& kg,
                       const graph::PropertyGraph& graph,
                       const ProgramCase& pc) {
  auto fresh = MakeKg(graph, pc.rules);
  ASSERT_TRUE(fresh->Reason().ok());
  for (const std::string& pred : pc.derived) {
    EXPECT_EQ(Rows(kg.Query(pred), kg.catalog()),
              Rows(fresh->Query(pred), fresh->catalog()))
        << pred;
  }
  EXPECT_EQ(EdgeList(kg.graph()), EdgeList(fresh->graph()));
}

TEST(KnowledgeGraphTest, IncrementalRoundsEqualFreshReason) {
  const gen::RegisterData data = Register200();
  for (const ProgramCase& pc : PaperPrograms()) {
    SCOPED_TRACE(pc.name);
    auto kg = MakeKg(data.graph, pc.rules);
    ASSERT_TRUE(kg->Reason().ok());
    // Three incremental rounds, then a full Reason on the same KG, which
    // must start over from a fresh watermark and link cursor.
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE("round " + std::to_string(round));
      const size_t answers_before = kg->Query(pc.derived.back()).size();
      AppendRound(data, round, kg->mutable_graph());
      // The fresh KG starts from the same graph: the delta plus every
      // link the incremental KG has materialised so far.
      const graph::PropertyGraph before = kg->graph();
      auto stats = round < 3 ? kg->ReasonIncremental() : kg->Reason();
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_GT(kg->Query(pc.derived.back()).size(), answers_before);
      ExpectEqualsFresh(*kg, before, pc);
    }
  }
}

TEST(KnowledgeGraphTest, IncrementalRunExtractsWhatNewRulesMention) {
  // The close-link rules read own/3, which the control rules do not: the
  // incremental run after AddRules must extract it over the whole graph,
  // not just past the watermark.
  const gen::RegisterData data = Register200();
  auto kg = MakeKg(data.graph, ControlProgram());
  ASSERT_TRUE(kg->Reason().ok());
  EXPECT_TRUE(kg->Query("own").empty());
  ASSERT_TRUE(kg->AddRules(CloseLinkProgram()).ok());
  AppendRound(data, 0, kg->mutable_graph());
  const graph::PropertyGraph before = kg->graph();
  auto stats = kg->ReasonIncremental();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectEqualsFresh(*kg, before,
                    {"both", ControlProgram() + CloseLinkProgram(),
                     {"own", "control", "closelink"}});
}

TEST(KnowledgeGraphTest, LinksStoredInOneRoundAreExtractedInTheNext) {
  // A rule over the generic edge encoding: the Control edges Reason()
  // materialised are facts of the next incremental run, as they are of a
  // fresh KG over the same graph.
  const gen::RegisterData data = Register200();
  const ProgramCase pc{"controledge",
                       ControlProgram() +
                           "link(E, X, Y, W), edgetype(E, \"Control\") -> "
                           "controledge(X, Y).\n",
                       {"control", "controledge"}};
  auto kg = MakeKg(data.graph, pc.rules);
  ASSERT_TRUE(kg->Reason().ok());
  EXPECT_TRUE(kg->Query("controledge").empty());
  AppendRound(data, 0, kg->mutable_graph());
  const graph::PropertyGraph before = kg->graph();
  ASSERT_TRUE(kg->ReasonIncremental().ok());
  EXPECT_FALSE(kg->Query("controledge").empty());
  ExpectEqualsFresh(*kg, before, pc);
}

TEST(KnowledgeGraphTest, ExtractsOnlyThePredicatesTheRulesMention) {
  const gen::RegisterData data = Register200();
  auto control = MakeKg(data.graph, ControlProgram());
  ASSERT_TRUE(control->Reason().ok());
  EXPECT_FALSE(control->Query("company").empty());
  EXPECT_FALSE(control->Query("voting").empty());
  EXPECT_TRUE(control->Query("own").empty());
  EXPECT_TRUE(control->Query("nodefeature").empty());
  EXPECT_TRUE(control->Query("link").empty());

  auto family = MakeKg(data.graph, FamilyLinkProgram());
  ASSERT_TRUE(family->Reason().ok());
  EXPECT_FALSE(family->Query("nodefeature").empty());
  EXPECT_TRUE(family->Query("voting").empty());
}

TEST(KnowledgeGraphTest, DerivedFactsEqualARunOverEveryMappedFact) {
  const gen::RegisterData data = Register200();
  for (const ProgramCase& pc : PaperPrograms()) {
    SCOPED_TRACE(pc.name);
    auto kg = MakeKg(data.graph, pc.rules);
    auto stats = kg->Reason();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    datalog::Catalog cat;
    datalog::Database db(&cat);
    auto loaded = LoadGraphFacts(data.graph, &db);  // all ten predicates
    ASSERT_TRUE(loaded.ok());
    EXPECT_LT(stats->facts_before, *loaded);
    auto program = datalog::ParseProgram(pc.rules, &cat);
    ASSERT_TRUE(program.ok());
    datalog::Engine engine(&db);
    engine.functions()->Register("linkprobability", LinkProbability());
    ASSERT_TRUE(engine.Run(*program).ok());
    for (const std::string& pred : pc.derived) {
      EXPECT_FALSE(db.Scan(pred).empty()) << pred;
      EXPECT_EQ(Rows(kg->Query(pred), kg->catalog()), Rows(db.Scan(pred), cat))
          << pred;
    }
  }
}

TEST(KnowledgeGraphTest, QueryBeforeReasonIsEmpty) {
  KnowledgeGraph kg;
  EXPECT_TRUE(kg.Query("anything").empty());
  EXPECT_NE(kg.Explain("p", {}).find("Reason()"), std::string::npos);
}

}  // namespace
}  // namespace vadalink::core
