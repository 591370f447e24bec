// graph/: property values, property graph, analytics, CSV I/O, subgraphs.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "graph/graph_algorithms.h"
#include "graph/graph_io.h"
#include "graph/property_graph.h"
#include "graph/subgraph.h"

namespace vadalink::graph {
namespace {

// ---- PropertyValue ----------------------------------------------------------

TEST(PropertyValueTest, TypesAndAccessors) {
  PropertyValue null_v;
  EXPECT_TRUE(null_v.is_null());
  PropertyValue b(true);
  EXPECT_TRUE(b.is_bool());
  EXPECT_TRUE(b.AsBool());
  PropertyValue i(int64_t{42});
  EXPECT_TRUE(i.is_int());
  EXPECT_EQ(i.AsInt(), 42);
  EXPECT_TRUE(i.is_numeric());
  PropertyValue d(2.5);
  EXPECT_TRUE(d.is_double());
  EXPECT_DOUBLE_EQ(d.AsNumber(), 2.5);
  PropertyValue s("hello");
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(s.AsString(), "hello");
}

TEST(PropertyValueTest, EncodeDecodeRoundTrip) {
  for (const PropertyValue& v :
       {PropertyValue(), PropertyValue(true), PropertyValue(false),
        PropertyValue(int64_t{-17}), PropertyValue(0.125),
        PropertyValue("ciao mondo")}) {
    auto back = PropertyValue::Decode(v.Encode());
    ASSERT_TRUE(back.ok()) << v.Encode();
    EXPECT_EQ(*back, v);
  }
}

TEST(PropertyValueTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(PropertyValue::Decode("x").ok());
  EXPECT_FALSE(PropertyValue::Decode("i:abc").ok());
  EXPECT_FALSE(PropertyValue::Decode("q:1").ok());
  EXPECT_FALSE(PropertyValue::Decode("d:1.2.3").ok());
}

TEST(PropertyValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(PropertyValue("a").Hash(), PropertyValue("a").Hash());
  EXPECT_NE(PropertyValue(int64_t{1}).Hash(), PropertyValue(1.0).Hash());
}

// ---- PropertyGraph ----------------------------------------------------------

TEST(PropertyGraphTest, AddNodesAndEdges) {
  PropertyGraph g;
  NodeId a = g.AddNode("Person");
  NodeId b = g.AddNode("Company");
  auto e = g.AddEdge(a, b, "Shareholding");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(g.node_count(), 2u);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.edge_src(*e), a);
  EXPECT_EQ(g.edge_dst(*e), b);
  EXPECT_EQ(g.node_label(a), "Person");
  EXPECT_EQ(g.out_degree(a), 1u);
  EXPECT_EQ(g.in_degree(b), 1u);
}

TEST(PropertyGraphTest, EdgeToInvalidNodeFails) {
  PropertyGraph g;
  NodeId a = g.AddNode("N");
  EXPECT_FALSE(g.AddEdge(a, 99, "E").ok());
  EXPECT_FALSE(g.AddEdge(99, a, "E").ok());
}

TEST(PropertyGraphTest, Properties) {
  PropertyGraph g;
  NodeId a = g.AddNode("N");
  g.SetNodeProperty(a, "name", "acme");
  g.SetNodeProperty(a, "year", int64_t{1999});
  EXPECT_EQ(g.GetNodeProperty(a, "name").AsString(), "acme");
  EXPECT_EQ(g.GetNodeProperty(a, "year").AsInt(), 1999);
  EXPECT_TRUE(g.GetNodeProperty(a, "missing").is_null());
  EXPECT_TRUE(g.HasNodeProperty(a, "name"));
  EXPECT_FALSE(g.HasNodeProperty(a, "missing"));
}

TEST(PropertyGraphTest, RemoveEdge) {
  PropertyGraph g;
  NodeId a = g.AddNode("N"), b = g.AddNode("N");
  EdgeId e1 = g.AddEdge(a, b, "E").value();
  EdgeId e2 = g.AddEdge(b, a, "E").value();
  ASSERT_TRUE(g.RemoveEdge(e1).ok());
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.IsValidEdge(e1));
  EXPECT_TRUE(g.IsValidEdge(e2));
  EXPECT_TRUE(g.out_edges(a).empty());
  EXPECT_EQ(g.in_edges(a).size(), 1u);
  // Double removal fails.
  EXPECT_FALSE(g.RemoveEdge(e1).ok());
  // Iteration skips removed edges.
  size_t live = 0;
  g.ForEachEdge([&](EdgeId) { ++live; });
  EXPECT_EQ(live, 1u);
}

TEST(PropertyGraphTest, FindEdgeAndLabels) {
  PropertyGraph g;
  NodeId a = g.AddNode("Person"), b = g.AddNode("Company");
  g.AddEdge(a, b, "Owns").value();
  EXPECT_NE(g.FindEdge(a, b, "Owns"), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(a, b, "Controls"), kInvalidEdge);
  EXPECT_EQ(g.FindEdge(b, a, "Owns"), kInvalidEdge);
  EXPECT_EQ(g.NodesWithLabel("Person"), std::vector<NodeId>{a});
}

using Props = std::vector<std::pair<std::string, PropertyValue>>;

Props NodeProps(const PropertyGraph& g, NodeId n) {
  Props out;
  for (const auto& [k, v] : g.node_properties(n)) out.emplace_back(k, v);
  return out;
}

TEST(PropertyGraphTest, OverwritingAKeyKeepsOneEntry) {
  PropertyGraph g;
  NodeId a = g.AddNode("N");
  g.SetNodeProperty(a, "k", int64_t{1});
  g.SetNodeProperty(a, "k", "two");
  EXPECT_EQ(NodeProps(g, a), (Props{{"k", "two"}}));
  EXPECT_EQ(g.GetNodeProperty(a, "k").AsString(), "two");
}

TEST(PropertyGraphTest, IterationIsInFirstInsertionOrderAndYieldsEachKeyOnce) {
  PropertyGraph g;
  NodeId a = g.AddNode("N");
  NodeId b = g.AddNode("N");
  g.SetNodeProperty(a, "zeta", int64_t{1});
  g.SetNodeProperty(a, "alpha", 2.5);
  g.SetNodeProperty(a, "mu", true);
  g.SetNodeProperty(a, "alpha", 3.5);  // overwrite keeps its position
  // Another element's order is its own.
  g.SetNodeProperty(b, "mu", false);
  g.SetNodeProperty(b, "zeta", int64_t{9});
  EXPECT_EQ(NodeProps(g, a),
            (Props{{"zeta", int64_t{1}}, {"alpha", 3.5}, {"mu", true}}));
  EXPECT_EQ(NodeProps(g, b), (Props{{"mu", false}, {"zeta", int64_t{9}}}));

  EdgeId e = g.AddEdge(a, b, "E").value();
  g.SetEdgeProperty(e, "w", 0.5);
  g.SetEdgeProperty(e, "right", "usufruct");
  Props edge_props;
  for (const auto& [k, v] : g.edge_properties(e)) edge_props.emplace_back(k, v);
  EXPECT_EQ(edge_props, (Props{{"w", 0.5}, {"right", "usufruct"}}));
}

TEST(PropertyGraphTest, NeverSetKeyReadsNullAndFalse) {
  PropertyGraph g;
  NodeId a = g.AddNode("N"), b = g.AddNode("N");
  EdgeId e = g.AddEdge(a, b, "E").value();
  g.SetNodeProperty(b, "name", "acme");  // "name" is known, but not on a
  g.SetEdgeProperty(e, "w", 1.0);
  EXPECT_TRUE(g.GetNodeProperty(a, "name").is_null());
  EXPECT_FALSE(g.HasNodeProperty(a, "name"));
  EXPECT_TRUE(g.GetNodeProperty(a, "never").is_null());
  EXPECT_FALSE(g.HasNodeProperty(a, "never"));
  EXPECT_TRUE(g.GetEdgeProperty(e, "name").is_null());
  EXPECT_FALSE(g.HasEdgeProperty(e, "never"));
  EXPECT_TRUE(NodeProps(g, a).empty());
  // A key set to null is present, though it reads null.
  g.SetNodeProperty(a, "blank", PropertyValue());
  EXPECT_TRUE(g.HasNodeProperty(a, "blank"));
  EXPECT_TRUE(g.GetNodeProperty(a, "blank").is_null());
}

TEST(PropertyGraphTest, UnknownLabelFindsNothing) {
  PropertyGraph g;
  NodeId a = g.AddNode("Person"), b = g.AddNode("Company");
  g.AddEdge(a, b, "Owns").value();
  g.SetNodeProperty(a, "name", "x");
  EXPECT_EQ(g.FindEdge(a, b, "Unknown"), kInvalidEdge);
  EXPECT_TRUE(g.NodesWithLabel("Unknown").empty());
  // A property key is a known name, but no element carries it as a label.
  EXPECT_EQ(g.FindEdge(a, b, "name"), kInvalidEdge);
  EXPECT_TRUE(g.NodesWithLabel("name").empty());
  EXPECT_NE(g.FindEdge(a, b, "Owns"), kInvalidEdge);
}

TEST(PropertyGraphTest, LabelReferenceSurvivesInserts) {
  PropertyGraph g;
  NodeId a = g.AddNode("Person");
  const std::string& label = g.node_label(a);
  for (int i = 0; i < 10000; ++i) g.AddNode("L" + std::to_string(i));
  EXPECT_EQ(label, "Person");
  EXPECT_EQ(&label, &g.node_label(a));
  EXPECT_EQ(g.node_label(10000), "L9999");
}

TEST(PropertyGraphTest, CopyIsDeep) {
  PropertyGraph g;
  NodeId a = g.AddNode("Person"), b = g.AddNode("Company");
  EdgeId e = g.AddEdge(a, b, "Owns").value();
  g.SetNodeProperty(a, "name", "acme");
  g.SetEdgeProperty(e, "w", 0.4);
  const PropertyGraph copy = g;

  g.SetNodeProperty(a, "name", "changed");
  g.SetNodeProperty(a, "extra", int64_t{1});
  g.SetEdgeProperty(e, "w", 0.9);
  NodeId c = g.AddNode("Fresh");
  g.AddEdge(c, a, "Owns").value();
  ASSERT_TRUE(g.RemoveEdge(e).ok());

  EXPECT_EQ(copy.node_count(), 2u);
  EXPECT_EQ(copy.edge_count(), 1u);
  EXPECT_TRUE(copy.IsValidEdge(e));
  EXPECT_EQ(NodeProps(copy, a), (Props{{"name", "acme"}}));
  EXPECT_EQ(copy.GetEdgeProperty(e, "w").AsDouble(), 0.4);
  EXPECT_TRUE(copy.NodesWithLabel("Fresh").empty());
  EXPECT_EQ(copy.node_label(a), "Person");
  EXPECT_EQ(g.GetNodeProperty(a, "name").AsString(), "changed");
}

TEST(PropertyGraphTest, RemovedEdgeKeepsItsPropertiesReadable) {
  PropertyGraph g;
  NodeId a = g.AddNode("N"), b = g.AddNode("N");
  EdgeId e = g.AddEdge(a, b, "Shareholding").value();
  g.SetEdgeProperty(e, "w", 0.3);
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  EXPECT_FALSE(g.IsValidEdge(e));
  EXPECT_EQ(g.edge_label(e), "Shareholding");
  EXPECT_TRUE(g.HasEdgeProperty(e, "w"));
  EXPECT_EQ(g.GetEdgeProperty(e, "w").AsDouble(), 0.3);
  size_t seen = 0;
  for (const auto& [k, v] : g.edge_properties(e)) {
    EXPECT_EQ(k, "w");
    EXPECT_EQ(v.AsDouble(), 0.3);
    ++seen;
  }
  EXPECT_EQ(seen, 1u);
}

// ---- algorithms --------------------------------------------------------------

PropertyGraph Cycle(size_t n) {
  PropertyGraph g;
  for (size_t i = 0; i < n; ++i) g.AddNode("N");
  for (size_t i = 0; i < n; ++i) {
    g.AddEdge(static_cast<NodeId>(i), static_cast<NodeId>((i + 1) % n), "E")
        .value();
  }
  return g;
}

TEST(AlgorithmsTest, SccOnCycle) {
  auto g = Cycle(5);
  auto scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.count, 1u);
  EXPECT_EQ(scc.largest_size, 5u);
}

TEST(AlgorithmsTest, SccOnChain) {
  PropertyGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(1, 2, "E").value();
  g.AddEdge(2, 3, "E").value();
  auto scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.count, 4u);
  EXPECT_EQ(scc.largest_size, 1u);
}

TEST(AlgorithmsTest, SccMixed) {
  // 0 <-> 1 cycle, then 2 -> 3 chain hanging off it.
  PropertyGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(1, 0, "E").value();
  g.AddEdge(1, 2, "E").value();
  g.AddEdge(2, 3, "E").value();
  auto scc = StronglyConnectedComponents(g);
  EXPECT_EQ(scc.count, 3u);
  EXPECT_EQ(scc.largest_size, 2u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_NE(scc.component[1], scc.component[2]);
}

TEST(AlgorithmsTest, WccTwoIslands) {
  PropertyGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(2, 3, "E").value();
  auto wcc = WeaklyConnectedComponents(g);
  EXPECT_EQ(wcc.count, 3u);  // {0,1}, {2,3}, {4}
  EXPECT_EQ(wcc.largest_size, 2u);
  EXPECT_EQ(wcc.component[0], wcc.component[1]);
  EXPECT_NE(wcc.component[0], wcc.component[2]);
}

TEST(AlgorithmsTest, ClusteringCoefficientTriangle) {
  PropertyGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(1, 2, "E").value();
  g.AddEdge(2, 0, "E").value();
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 1.0);
}

TEST(AlgorithmsTest, ClusteringCoefficientStar) {
  PropertyGraph g;
  for (int i = 0; i < 5; ++i) g.AddNode("N");
  for (int leaf = 1; leaf < 5; ++leaf) g.AddEdge(0, leaf, "E").value();
  EXPECT_DOUBLE_EQ(GlobalClusteringCoefficient(g), 0.0);
}

TEST(AlgorithmsTest, ClusteringCoefficientPartial) {
  // Triangle 0-1-2 plus pendant 3 on node 0:
  // triangles=1, triples: deg(0)=3 -> 3, deg(1)=deg(2)=2 -> 1+1, deg(3)=1.
  PropertyGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(1, 2, "E").value();
  g.AddEdge(2, 0, "E").value();
  g.AddEdge(0, 3, "E").value();
  EXPECT_NEAR(GlobalClusteringCoefficient(g), 3.0 / 5.0, 1e-12);
}

TEST(AlgorithmsTest, StatsCountSelfLoops) {
  PropertyGraph g;
  NodeId a = g.AddNode("N");
  g.AddEdge(a, a, "E").value();
  auto stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.self_loops, 1u);
  EXPECT_EQ(stats.nodes, 1u);
  EXPECT_EQ(stats.edges, 1u);
}

TEST(AlgorithmsTest, DegreeHistogram) {
  PropertyGraph g;
  for (int i = 0; i < 3; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  auto hist = DegreeHistogram(g);
  ASSERT_GE(hist.size(), 2u);
  EXPECT_EQ(hist[0], 1u);  // node 2
  EXPECT_EQ(hist[1], 2u);  // nodes 0, 1
}

TEST(AlgorithmsTest, EmptyGraphStats) {
  PropertyGraph g;
  auto stats = ComputeGraphStats(g);
  EXPECT_EQ(stats.nodes, 0u);
  EXPECT_EQ(stats.scc_count, 0u);
  EXPECT_EQ(stats.clustering_coefficient, 0.0);
}

// ---- I/O ----------------------------------------------------------------------

TEST(GraphIoTest, RoundTrip) {
  PropertyGraph g;
  NodeId a = g.AddNode("Person");
  NodeId b = g.AddNode("Company");
  g.SetNodeProperty(a, "name", "Anna, \"the\" boss");
  g.SetNodeProperty(b, "year", int64_t{2001});
  EdgeId e = g.AddEdge(a, b, "Shareholding").value();
  g.SetEdgeProperty(e, "w", 0.375);

  std::string nodes = ::testing::TempDir() + "/vl_nodes.csv";
  std::string edges = ::testing::TempDir() + "/vl_edges.csv";
  ASSERT_TRUE(SaveGraphCsv(g, nodes, edges).ok());
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->node_count(), 2u);
  EXPECT_EQ(back->edge_count(), 1u);
  EXPECT_EQ(back->node_label(0), "Person");
  EXPECT_EQ(back->GetNodeProperty(0, "name").AsString(),
            "Anna, \"the\" boss");
  EXPECT_EQ(back->GetNodeProperty(1, "year").AsInt(), 2001);
  EXPECT_DOUBLE_EQ(back->GetEdgeProperty(0, "w").AsDouble(), 0.375);
}

TEST(GraphIoTest, RemovedEdgesNotPersisted) {
  PropertyGraph g;
  NodeId a = g.AddNode("N"), b = g.AddNode("N");
  EdgeId e1 = g.AddEdge(a, b, "E").value();
  g.AddEdge(b, a, "E").value();
  ASSERT_TRUE(g.RemoveEdge(e1).ok());
  std::string nodes = ::testing::TempDir() + "/vl_nodes2.csv";
  std::string edges = ::testing::TempDir() + "/vl_edges2.csv";
  ASSERT_TRUE(SaveGraphCsv(g, nodes, edges).ok());
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->edge_count(), 1u);
}

namespace {
std::string WriteTemp(const std::string& name, const std::string& content) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  return path;
}
}  // namespace

TEST(GraphIoTest, TruncatedEdgeRowNamesFileAndLine) {
  std::string nodes = WriteTemp("vl_trunc_nodes.csv", "0,Person\n1,Company\n");
  // Row 2 lost its label mid-write — the classic truncated dump.
  std::string edges = WriteTemp("vl_trunc_edges.csv", "0,0,1,Owns\n1,1,0\n");
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kParseError);
  EXPECT_NE(back.status().message().find("vl_trunc_edges.csv:2"),
            std::string::npos)
      << back.status().message();
  EXPECT_NE(back.status().message().find("truncated"), std::string::npos);
}

TEST(GraphIoTest, BadIntegerNamesFileAndLine) {
  std::string nodes =
      WriteTemp("vl_badint_nodes.csv", "0,Person\nxyz,Company\n");
  std::string edges = WriteTemp("vl_badint_edges.csv", "");
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("vl_badint_nodes.csv:2"),
            std::string::npos)
      << back.status().message();
  EXPECT_NE(back.status().message().find("'xyz'"), std::string::npos);
}

TEST(GraphIoTest, NonDenseNodeIdsNameLine) {
  std::string nodes = WriteTemp("vl_dense_nodes.csv", "0,Person\n5,Company\n");
  std::string edges = WriteTemp("vl_dense_edges.csv", "");
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find(":2"), std::string::npos)
      << back.status().message();
  EXPECT_NE(back.status().message().find("expected 1"), std::string::npos);
}

TEST(GraphIoTest, EdgeToMissingNodeNamesLine) {
  std::string nodes = WriteTemp("vl_dangling_nodes.csv", "0,Person\n");
  std::string edges = WriteTemp("vl_dangling_edges.csv", "0,0,7,Owns\n");
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("vl_dangling_edges.csv:1"),
            std::string::npos)
      << back.status().message();
}

TEST(GraphIoTest, BadPropertyCellNamesLine) {
  std::string nodes =
      WriteTemp("vl_prop_nodes.csv", "0,Person,name=s:ok\n1,Person,oops\n");
  std::string edges = WriteTemp("vl_prop_edges.csv", "");
  auto back = LoadGraphCsv(nodes, edges);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("vl_prop_nodes.csv:2"),
            std::string::npos)
      << back.status().message();
}

TEST(GraphIoTest, LoadFaultInjectionPropagates) {
  PropertyGraph g;
  g.AddNode("Person");
  std::string nodes = ::testing::TempDir() + "/vl_fault_nodes.csv";
  std::string edges = ::testing::TempDir() + "/vl_fault_edges.csv";
  ASSERT_TRUE(SaveGraphCsv(g, nodes, edges).ok());
  // The underlying csv.read_file site fires through LoadGraphCsv.
  FaultInjection::Arm("csv.read_file", {StatusCode::kIoError, "disk gone"});
  auto back = LoadGraphCsv(nodes, edges);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIoError);
  EXPECT_GE(FaultInjection::FireCount("csv.read_file"), 1u);
  FaultInjection::Reset();
  EXPECT_TRUE(LoadGraphCsv(nodes, edges).ok());
}

// ---- subgraph -------------------------------------------------------------------

TEST(SubgraphTest, InducedKeepsInternalEdges) {
  PropertyGraph g;
  for (int i = 0; i < 4; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(1, 2, "E").value();
  g.AddEdge(2, 3, "E").value();
  auto sub = InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(sub.graph.node_count(), 3u);
  EXPECT_EQ(sub.graph.edge_count(), 2u);  // 0->1, 1->2
  EXPECT_EQ(sub.original_node, (std::vector<NodeId>{0, 1, 2}));
}

TEST(SubgraphTest, BfsSampleSize) {
  auto g = Cycle(10);
  auto sub = BfsSample(g, 0, 4);
  EXPECT_EQ(sub.graph.node_count(), 4u);
}

TEST(SubgraphTest, BfsSampleWholeComponent) {
  PropertyGraph g;
  for (int i = 0; i < 6; ++i) g.AddNode("N");
  g.AddEdge(0, 1, "E").value();
  g.AddEdge(1, 2, "E").value();
  // nodes 3..5 unreachable
  auto sub = BfsSample(g, 0, 100);
  EXPECT_EQ(sub.graph.node_count(), 3u);
}

}  // namespace
}  // namespace vadalink::graph
