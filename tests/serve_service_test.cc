// serve/: ReasoningService driven directly (no TCP) — snapshot-isolated
// reads, cache/stale degradation, delta ingestion, crash containment.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/run_context.h"
#include "company/close_link.h"
#include "company/control.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/magic.h"
#include "datalog/parser.h"
#include "gen/register_simulator.h"
#include "graph/property_graph.h"
#include "serve/service.h"

namespace vadalink::serve {
namespace {

// P0 -0.6-> C1 -0.8-> C2; P3 -0.3-> C1.  P0 controls C1 (and through it
// C2); P0's integrated ownership of C2 is 0.48.
graph::PropertyGraph TinyRegister() {
  graph::PropertyGraph g;
  graph::NodeId p0 = g.AddNode("Person");
  graph::NodeId c1 = g.AddNode("Company");
  graph::NodeId c2 = g.AddNode("Company");
  graph::NodeId p3 = g.AddNode("Person");
  auto share = [&](graph::NodeId s, graph::NodeId d, double w) {
    auto e = g.AddEdge(s, d, "Shareholding").value();
    g.SetEdgeProperty(e, "w", w);
  };
  share(p0, c1, 0.6);
  share(c1, c2, 0.8);
  share(p3, c1, 0.3);
  return g;
}

constexpr char kControlRules[] = R"(
  own(X, Y, W) -> control_direct(X, Y, W).
)";

Request MakeReq(const std::string& op, Json params,
                int64_t id = 1) {
  Request req;
  req.id = Json::Int(id);
  req.op = op;
  req.params = std::move(params);
  return req;
}

Json ParseLine(const std::string& line) {
  auto v = Json::Parse(line);
  EXPECT_TRUE(v.ok()) << line;
  return v.ok() ? std::move(v).value() : Json::Null();
}

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjection::Reset(); }
  void TearDown() override { FaultInjection::Reset(); }

  /// Initialises without rules (keyed queries need none).
  void InitPlain(ServiceOptions opts = {}) {
    service_ = std::make_unique<ReasoningService>(opts, &metrics_);
    ASSERT_TRUE(service_->Init(TinyRegister(), "").ok());
  }

  MetricsRegistry metrics_;
  std::unique_ptr<ReasoningService> service_;
};

TEST_F(ServiceTest, ControlQueryAgainstSnapshot) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(0));
  Json resp = ParseLine(service_->Handle(MakeReq("control", params), nullptr));
  ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
  EXPECT_EQ(resp.Find("graph_version")->AsInt(), 1);
  // P0 controls C1 directly (0.6) and C2 through it (C1 owns 0.8).
  EXPECT_EQ(resp.Find("result")->Find("count")->AsInt(), 2);
}

TEST_F(ServiceTest, SecondIdenticalQueryIsCached) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(0));
  Json first = ParseLine(service_->Handle(MakeReq("control", params), nullptr));
  EXPECT_EQ(first.Find("cached"), nullptr);
  Json second =
      ParseLine(service_->Handle(MakeReq("control", params, 2), nullptr));
  ASSERT_NE(second.Find("cached"), nullptr);
  EXPECT_TRUE(second.Find("cached")->AsBool());
  EXPECT_EQ(second.Find("stale"), nullptr);  // current version, not stale
  // A fresh hit was computed at the current version; no separate marker.
  EXPECT_EQ(second.Find("computed_at_version"), nullptr);
  EXPECT_EQ(second.Find("result")->Dump(), first.Find("result")->Dump());
}

TEST_F(ServiceTest, ExpiredDeadlineFallsBackToStaleCachedResult) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("target", Json::Int(2));
  // Warm the cache with an unlimited request.
  Json warm = ParseLine(service_->Handle(MakeReq("ubo", params), nullptr));
  ASSERT_TRUE(warm.Find("ok")->AsBool());

  // Ingest bumps the version, so the warm entry is no longer current.
  Json delta = Json::MakeObject();
  Json nodes = Json::MakeArray();
  Json node = Json::MakeObject();
  node.Set("label", Json::Str("Company"));
  nodes.Append(node);
  delta.Set("nodes", nodes);
  Json ing = ParseLine(service_->Handle(MakeReq("ingest", delta, 2), nullptr));
  ASSERT_TRUE(ing.Find("ok")->AsBool()) << ing.Dump();
  EXPECT_EQ(service_->version(), 2u);

  // A request whose deadline already passed degrades to the cached
  // answer, explicitly flagged stale (graceful degradation, not failure).
  RunContext expired;
  expired.set_deadline(RunContext::Clock::now() -
                       std::chrono::milliseconds(1));
  Json resp =
      ParseLine(service_->Handle(MakeReq("ubo", params, 3), &expired));
  ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
  ASSERT_NE(resp.Find("stale"), nullptr);
  EXPECT_TRUE(resp.Find("stale")->AsBool());
  // graph_version is the snapshot the SERVER is at; the version the
  // cached answer was computed against rides separately, so a client can
  // tell exactly how far behind the degraded answer is.
  EXPECT_EQ(resp.Find("graph_version")->AsInt(), 2);
  ASSERT_NE(resp.Find("computed_at_version"), nullptr);
  EXPECT_EQ(resp.Find("computed_at_version")->AsInt(), 1);

  // Cold key + expired deadline: nothing to degrade to -> deterministic
  // DeadlineExceeded error.
  Json cold = Json::MakeObject();
  cold.Set("target", Json::Int(1));
  Json err = ParseLine(service_->Handle(MakeReq("ubo", cold, 4), &expired));
  ASSERT_FALSE(err.Find("ok")->AsBool());
  EXPECT_EQ(err.Find("error")->Find("code")->AsString(), "DeadlineExceeded");
}

TEST_F(ServiceTest, IngestPublishesNewVersionAndRecomputes) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(3));
  Json before =
      ParseLine(service_->Handle(MakeReq("control", params), nullptr));
  EXPECT_EQ(before.Find("result")->Find("count")->AsInt(), 0);

  // P3 buys another 0.3 of C1 -> jointly 0.6 > 0.5: P3 now controls C1.
  Json delta = Json::MakeObject();
  Json edges = Json::MakeArray();
  Json e = Json::MakeObject();
  e.Set("src", Json::Int(3));
  e.Set("dst", Json::Int(1));
  e.Set("w", Json::Double(0.3));
  edges.Append(e);
  delta.Set("edges", edges);
  Json ing = ParseLine(service_->Handle(MakeReq("ingest", delta, 2), nullptr));
  ASSERT_TRUE(ing.Find("ok")->AsBool()) << ing.Dump();
  EXPECT_EQ(ing.Find("result")->Find("graph_version")->AsInt(), 2);

  // The cache entry from version 1 is not served as current at version 2.
  Json after =
      ParseLine(service_->Handle(MakeReq("control", params, 3), nullptr));
  EXPECT_EQ(after.Find("cached"), nullptr);
  EXPECT_EQ(after.Find("graph_version")->AsInt(), 2);
  EXPECT_EQ(after.Find("result")->Find("count")->AsInt(), 2);  // C1 and C2
}

TEST_F(ServiceTest, InvalidIngestLeavesStateUntouched) {
  InitPlain();
  Json delta = Json::MakeObject();
  Json edges = Json::MakeArray();
  Json e = Json::MakeObject();
  e.Set("src", Json::Int(0));
  e.Set("dst", Json::Int(999));  // out of range
  e.Set("w", Json::Double(0.5));
  edges.Append(e);
  delta.Set("edges", edges);
  Json resp = ParseLine(service_->Handle(MakeReq("ingest", delta), nullptr));
  ASSERT_FALSE(resp.Find("ok")->AsBool());
  EXPECT_EQ(resp.Find("error")->Find("code")->AsString(), "InvalidArgument");
  EXPECT_EQ(service_->version(), 1u);  // nothing published

  // Shareholding without weight is rejected up front too.
  Json delta2 = Json::MakeObject();
  Json edges2 = Json::MakeArray();
  Json e2 = Json::MakeObject();
  e2.Set("src", Json::Int(0));
  e2.Set("dst", Json::Int(1));
  edges2.Append(e2);
  delta2.Set("edges", edges2);
  Json resp2 =
      ParseLine(service_->Handle(MakeReq("ingest", delta2, 2), nullptr));
  ASSERT_FALSE(resp2.Find("ok")->AsBool());
  EXPECT_EQ(service_->version(), 1u);

  // A Shareholding edge into a non-company node — an existing person (3)
  // or a person of the same delta (4) — is rejected before any mutation;
  // applied, it would fail every later publish.
  for (int64_t dst : {3, 4}) {
    Json delta3 = Json::MakeObject();
    Json nodes3 = Json::MakeArray();
    Json n3 = Json::MakeObject();
    n3.Set("label", Json::Str("Person"));
    nodes3.Append(n3);
    delta3.Set("nodes", nodes3);
    Json edges3 = Json::MakeArray();
    Json e3 = Json::MakeObject();
    e3.Set("src", Json::Int(0));
    e3.Set("dst", Json::Int(dst));
    e3.Set("w", Json::Double(0.4));
    edges3.Append(e3);
    delta3.Set("edges", edges3);
    Json resp3 =
        ParseLine(service_->Handle(MakeReq("ingest", delta3, 3), nullptr));
    ASSERT_FALSE(resp3.Find("ok")->AsBool()) << "dst " << dst;
    EXPECT_EQ(resp3.Find("error")->Find("code")->AsString(),
              "InvalidArgument");
    EXPECT_EQ(service_->version(), 1u);
  }

  // Nothing of the rejected deltas was applied: a valid ingest publishes
  // version 2 and its node gets the next id, 4.
  Json valid = Json::MakeObject();
  Json vnodes = Json::MakeArray();
  Json vn = Json::MakeObject();
  vn.Set("label", Json::Str("Company"));
  vnodes.Append(vn);
  valid.Set("nodes", vnodes);
  Json vedges = Json::MakeArray();
  Json ve = Json::MakeObject();
  ve.Set("src", Json::Int(3));
  ve.Set("dst", Json::Int(4));
  ve.Set("w", Json::Double(0.4));
  vedges.Append(ve);
  valid.Set("edges", vedges);
  Json ok = ParseLine(service_->Handle(MakeReq("ingest", valid, 4), nullptr));
  ASSERT_TRUE(ok.Find("ok")->AsBool()) << ok.Dump();
  EXPECT_EQ(ok.Find("result")->Find("graph_version")->AsInt(), 2);
  EXPECT_EQ(ok.Find("result")->Find("node_ids")->Dump(), "[4]");
  EXPECT_EQ(service_->version(), 2u);
}

TEST_F(ServiceTest, UnknownNodeIsNotFound) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(12345));
  Json resp = ParseLine(service_->Handle(MakeReq("control", params), nullptr));
  ASSERT_FALSE(resp.Find("ok")->AsBool());
  EXPECT_EQ(resp.Find("error")->Find("code")->AsString(), "NotFound");
}

TEST_F(ServiceTest, BadThresholdIsInvalidArgument) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("company", Json::Int(1));
  params.Set("threshold", Json::Double(1.5));
  Json resp =
      ParseLine(service_->Handle(MakeReq("closelinks", params), nullptr));
  ASSERT_FALSE(resp.Find("ok")->AsBool());
  EXPECT_EQ(resp.Find("error")->Find("code")->AsString(), "InvalidArgument");
}

TEST_F(ServiceTest, InjectedEvaluateFaultPoisonsOnlyThatRequest) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(0));
  FaultInjection::Arm("serve.evaluate",
                      {StatusCode::kInternal, "poisoned", /*skip=*/0,
                       /*max_fires=*/1});
  Json poisoned =
      ParseLine(service_->Handle(MakeReq("control", params), nullptr));
  ASSERT_FALSE(poisoned.Find("ok")->AsBool());
  EXPECT_EQ(poisoned.Find("error")->Find("code")->AsString(), "Internal");
  // The very next request succeeds — contained, not wedged.
  Json next =
      ParseLine(service_->Handle(MakeReq("control", params, 2), nullptr));
  EXPECT_TRUE(next.Find("ok")->AsBool()) << next.Dump();
}

TEST_F(ServiceTest, IngestWithRulesRecoversFromIncrementalFault) {
  ServiceOptions opts;
  service_ = std::make_unique<ReasoningService>(opts, &metrics_);
  ASSERT_TRUE(service_->Init(TinyRegister(), kControlRules).ok());
  EXPECT_EQ(service_->version(), 1u);

  // The incremental chase dies (injected) — the service contains the
  // failure by re-establishing the fixpoint with a full Reason() and
  // still publishes a correct new version.
  FaultInjection::Arm("kg.reason_incremental",
                      {StatusCode::kIoError, "chase died", /*skip=*/0,
                       /*max_fires=*/1});
  Json delta = Json::MakeObject();
  Json edges = Json::MakeArray();
  Json e = Json::MakeObject();
  e.Set("src", Json::Int(3));
  e.Set("dst", Json::Int(2));
  e.Set("w", Json::Double(0.1));
  edges.Append(e);
  delta.Set("edges", edges);
  Json resp = ParseLine(service_->Handle(MakeReq("ingest", delta), nullptr));
  ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
  ASSERT_NE(resp.Find("result")->Find("recovered"), nullptr);
  EXPECT_TRUE(resp.Find("result")->Find("recovered")->AsBool());
  EXPECT_EQ(service_->version(), 2u);
  FaultInjection::Reset();

  // Query still works against the recovered fixpoint.
  Json q = Json::MakeObject();
  q.Set("predicate", Json::Str("control_direct"));
  Json qr = ParseLine(service_->Handle(MakeReq("query", q, 2), nullptr));
  ASSERT_TRUE(qr.Find("ok")->AsBool()) << qr.Dump();
  EXPECT_EQ(qr.Find("result")->Find("count")->AsInt(), 4);  // 4 ownsd edges
}

TEST_F(ServiceTest, MetricsOpExportsRegistry) {
  InitPlain();
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(0));
  (void)service_->Handle(MakeReq("control", params), nullptr);
  Json resp =
      ParseLine(service_->Handle(MakeReq("metrics", Json::MakeObject(), 2),
                                 nullptr));
  ASSERT_TRUE(resp.Find("ok")->AsBool());
  const Json* doc = resp.Find("result")->Find("metrics");
  ASSERT_NE(doc, nullptr);
  ASSERT_TRUE(doc->is_object());
  ASSERT_NE(doc->Find("counters"), nullptr);
}

TEST_F(ServiceTest, SleepOpIsTestGated) {
  InitPlain();  // enable_test_ops defaults to false
  Json params = Json::MakeObject();
  params.Set("ms", Json::Int(1));
  Json resp = ParseLine(service_->Handle(MakeReq("sleep", params), nullptr));
  ASSERT_FALSE(resp.Find("ok")->AsBool());
  EXPECT_EQ(resp.Find("error")->Find("code")->AsString(), "Unsupported");
}

// ---- the fixpoint and compiled routes of keyed queries ---------------------

// The cache key must separate the two `control` routes: the fixpoint
// answers with sorted tuples, the compiled route in discovery order, so an
// explicit default threshold may change the result bytes for the same
// (op, node, threshold).
TEST(KeyedCacheKeyTest, ModeSuffixSeparatesEngineAndCompiledEntries) {
  std::string q = ReasoningService::KeyedCacheKey("control", 7, 0.5, true);
  std::string c = ReasoningService::KeyedCacheKey("control", 7, 0.5, false);
  EXPECT_NE(q, c);
  EXPECT_EQ(q, "control:7:0.5:q");
  EXPECT_EQ(c, "control:7:0.5:c");
}

TEST_F(ServiceTest, EngineQueryModeMatchesCompiledControlAnswers) {
  // Rules that define control/2 (the paper's Algorithm 5 at the default
  // 0.5 threshold) switch cold default-threshold `control` reads to the
  // published fixpoint; its answers are the compiled ControlledBy's.
  graph::PropertyGraph g = TinyRegister();
  auto cg = company::CompanyGraph::FromPropertyGraph(g);
  ASSERT_TRUE(cg.ok());
  ReasoningService svc(ServiceOptions{}, &metrics_);
  ASSERT_TRUE(svc.Init(g, core::ControlProgram(0.5)).ok());
  size_t controlled = 0;
  for (int64_t source = 0; source < 4; ++source) {
    Json params = Json::MakeObject();
    params.Set("source", Json::Int(source));
    Json resp = ParseLine(svc.Handle(MakeReq("control", params), nullptr));
    ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
    std::vector<int64_t> served;
    for (const Json& v : resp.Find("result")->Find("controlled")->AsArray()) {
      served.push_back(v.AsInt());
    }
    std::vector<int64_t> compiled;
    for (graph::NodeId n : company::ControlledBy(
             *cg, static_cast<graph::NodeId>(source), 0.5)) {
      compiled.push_back(static_cast<int64_t>(n));
    }
    std::sort(compiled.begin(), compiled.end());
    EXPECT_EQ(served, compiled) << "source " << source;  // ids ascending
    controlled += served.size();
  }
  EXPECT_EQ(controlled, 3u);  // P0 -> {C1, C2}, C1 -> {C2}
  // Every read was a table lookup.
  EXPECT_EQ(metrics_.CounterValue("serve.query.engine"), 4u);
}

TEST_F(ServiceTest, ExplicitThresholdPinsControlToCompiledPath) {
  ReasoningService svc(ServiceOptions{}, &metrics_);
  ASSERT_TRUE(svc.Init(TinyRegister(), core::ControlProgram(0.5)).ok());
  uint64_t engine_before = metrics_.CounterValue("serve.query.engine");
  Json params = Json::MakeObject();
  params.Set("source", Json::Int(0));
  params.Set("threshold", Json::Double(0.9));
  Json resp = ParseLine(svc.Handle(MakeReq("control", params), nullptr));
  ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
  // 0.6 < 0.9: nothing controlled at that threshold, and the engine route
  // (whose rules encode 0.5) was not consulted.
  EXPECT_EQ(resp.Find("result")->Find("count")->AsInt(), 0);
  EXPECT_EQ(metrics_.CounterValue("serve.query.engine"), engine_before);
}

TEST_F(ServiceTest, QueryModeServesCloseLinksIdentically) {
  // Cold `closelinks` reads run the goal-directed CloseLinksOf; they must
  // answer exactly the whole-graph AllCloseLinks edges involving the key,
  // in the same order.
  graph::PropertyGraph g = TinyRegister();
  auto cg = company::CompanyGraph::FromPropertyGraph(g);
  ASSERT_TRUE(cg.ok());
  const std::vector<company::CloseLinkEdge> all =
      company::AllCloseLinks(*cg, company::CloseLinkConfig{});
  using Link = std::tuple<int64_t, int64_t, std::string, int64_t>;
  InitPlain();
  size_t links = 0;
  for (int64_t c = 0; c < 4; ++c) {
    Json params = Json::MakeObject();
    params.Set("company", Json::Int(c));
    Json resp =
        ParseLine(service_->Handle(MakeReq("closelinks", params), nullptr));
    ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
    std::vector<Link> served;
    for (const Json& l : resp.Find("result")->Find("links")->AsArray()) {
      const Json* via = l.Find("via");
      served.emplace_back(l.Find("x")->AsInt(), l.Find("y")->AsInt(),
                          l.Find("reason")->AsString(),
                          via == nullptr ? -1 : via->AsInt());
    }
    std::vector<Link> expected;
    for (const company::CloseLinkEdge& e : all) {
      if (static_cast<int64_t>(e.x) != c && static_cast<int64_t>(e.y) != c) {
        continue;
      }
      expected.emplace_back(
          e.x, e.y,
          e.reason == company::CloseLinkReason::kDirectOwnership
              ? "ownership"
              : "common_third_party",
          e.via == graph::kInvalidNode ? -1 : static_cast<int64_t>(e.via));
    }
    EXPECT_EQ(served, expected) << "company " << c;
    EXPECT_EQ(resp.Find("result")->Find("count")->AsInt(),
              static_cast<int64_t>(expected.size()));
    links += served.size();
  }
  EXPECT_EQ(links, 2u);  // C1-C2, read once from each end
}

// ---- the fixpoint route against a fresh goal-directed query ----------------

/// The computation cold default-threshold `control` reads used to run per
/// request: the graph's facts loaded into a fresh database, then
/// Engine::Query(control(source, X)) over the rules. The control program
/// reads only company/1, person/1 and voting/3, so only the domain
/// encoding is loaded (the generic one is most of the load time).
std::vector<int64_t> QueryControlled(const graph::PropertyGraph& g,
                                     const std::string& rules,
                                     int64_t source) {
  datalog::Catalog cat;
  datalog::Database db(&cat);
  core::MappingOptions mapping;
  mapping.predicates = core::DomainPredicates();
  EXPECT_TRUE(core::LoadGraphFacts(g, &db, mapping).ok());
  auto program = datalog::ParseProgram(rules, &cat);
  auto goal = datalog::ParseQueryGoal(
      "control(" + std::to_string(source) + ", X)", &cat);
  EXPECT_TRUE(program.ok() && goal.ok());
  datalog::Engine engine(&db, {});
  auto report = engine.Query(*program, *goal);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  std::vector<int64_t> ids;
  if (!report.ok()) return ids;
  for (const auto& tuple : report->answers) {
    if (tuple.size() == 2 && tuple[1].is_int()) ids.push_back(tuple[1].AsInt());
  }
  return ids;
}

/// One ingest edge as protocol JSON.
Json EdgeJson(int64_t src, int64_t dst, double w) {
  Json e = Json::MakeObject();
  e.Set("src", Json::Int(src));
  e.Set("dst", Json::Int(dst));
  e.Set("w", Json::Double(w));
  return e;
}

class FixpointServiceTest : public ServiceTest {
 protected:
  /// Every node's default-threshold `control` response must equal the
  /// fresh query over `mirror_` (the service's graph, rebuilt from the
  /// same deltas): ids, their order and the count.
  void ExpectEveryNodeMatches(const std::string& when) {
    for (size_t n = 0; n < mirror_.node_count(); ++n) {
      Json params = Json::MakeObject();
      params.Set("source", Json::Int(static_cast<int64_t>(n)));
      Json resp =
          ParseLine(service_->Handle(MakeReq("control", params), nullptr));
      ASSERT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
      ASSERT_EQ(resp.Find("cached"), nullptr) << when;
      std::vector<int64_t> got;
      for (const Json& v : resp.Find("result")->Find("controlled")->AsArray()) {
        got.push_back(v.AsInt());
      }
      std::vector<int64_t> want =
          QueryControlled(mirror_, rules_, static_cast<int64_t>(n));
      ASSERT_EQ(got, want) << when << ": source " << n;
      ASSERT_EQ(resp.Find("result")->Find("count")->AsInt(),
                static_cast<int64_t>(want.size()))
          << when << ": source " << n;
    }
  }

  /// Sends `delta` and applies the same nodes and Shareholding edges to
  /// the mirror; returns the ingest's result object.
  Json Ingest(const Json& delta) {
    Json resp = ParseLine(service_->Handle(MakeReq("ingest", delta), nullptr));
    EXPECT_TRUE(resp.Find("ok")->AsBool()) << resp.Dump();
    if (const Json* nodes = delta.Find("nodes")) {
      for (const Json& n : nodes->AsArray()) {
        mirror_.AddNode(n.Find("label")->AsString());
      }
    }
    if (const Json* edges = delta.Find("edges")) {
      for (const Json& e : edges->AsArray()) {
        auto id = mirror_.AddEdge(
            static_cast<graph::NodeId>(e.Find("src")->AsInt()),
            static_cast<graph::NodeId>(e.Find("dst")->AsInt()),
            "Shareholding");
        EXPECT_TRUE(id.ok());
        if (id.ok()) mirror_.SetEdgeProperty(*id, "w", e.Find("w")->AsDouble());
      }
    }
    const Json* result = resp.Find("result");
    return result != nullptr ? *result : Json::Null();
  }

  /// Facts the service's KG has offered to its fact base so far.
  uint64_t Extracted() const {
    return metrics_.CounterValue("reason.facts.extracted");
  }

  /// What the control program reads of the mirror: its company, person
  /// and voting facts.
  size_t ControlInputs() const {
    datalog::Catalog cat;
    datalog::Database db(&cat);
    core::MappingOptions mapping;
    mapping.predicates = {"company", "person", "voting"};
    auto loaded = core::LoadGraphFacts(mirror_, &db, mapping);
    EXPECT_TRUE(loaded.ok());
    return loaded.ok() ? *loaded : 0;
  }

  graph::PropertyGraph mirror_;
  std::string rules_ = core::ControlProgram(0.5);
};

TEST_F(FixpointServiceTest, ControlReadsEqualFreshGoalQueryAcrossIngests) {
  gen::RegisterConfig rc;
  rc.persons = 240;
  rc.companies = 180;
  rc.seed = 5;
  gen::RegisterData data = gen::GenerateRegister(rc);
  mirror_ = data.graph;
  service_ = std::make_unique<ReasoningService>(ServiceOptions{}, &metrics_);
  ASSERT_TRUE(service_->Init(data.graph, rules_).ok());
  ExpectEveryNodeMatches("after Init");
  EXPECT_EQ(metrics_.CounterValue("serve.query.engine"), mirror_.node_count());
  // Init extracts only what the rules read; each ingest below extracts
  // only the facts of its own delta.
  EXPECT_EQ(Extracted(), ControlInputs());

  // A new company node, bought outright by an existing person.
  const auto person = static_cast<int64_t>(data.persons.front());
  const auto new_company = static_cast<int64_t>(mirror_.node_count());
  {
    Json delta = Json::MakeObject();
    Json nodes = Json::MakeArray();
    Json node = Json::MakeObject();
    node.Set("label", Json::Str("Company"));
    nodes.Append(node);
    delta.Set("nodes", nodes);
    Json edges = Json::MakeArray();
    edges.Append(EdgeJson(person, new_company, 0.9));
    delta.Set("edges", edges);
    const uint64_t extracted = Extracted();
    Ingest(delta);
    EXPECT_EQ(Extracted(), extracted + 2);  // company(new), voting(edge)
    ExpectEveryNodeMatches("after a new company node");
  }

  // An edge that flips control: a person who controls nothing takes 0.6
  // of a company.
  int64_t buyer = -1;
  for (graph::NodeId p : data.persons) {
    if (QueryControlled(mirror_, rules_, p).empty()) {
      buyer = static_cast<int64_t>(p);
      break;
    }
  }
  ASSERT_GE(buyer, 0);
  const auto target = static_cast<int64_t>(data.companies.front());
  {
    Json delta = Json::MakeObject();
    Json edges = Json::MakeArray();
    edges.Append(EdgeJson(buyer, target, 0.6));
    delta.Set("edges", edges);
    const uint64_t extracted = Extracted();
    Ingest(delta);
    EXPECT_EQ(Extracted(), extracted + 1);  // voting(edge)
    std::vector<int64_t> now = QueryControlled(mirror_, rules_, buyer);
    EXPECT_TRUE(std::find(now.begin(), now.end(), target) != now.end());
    ExpectEveryNodeMatches("after an edge that flips control");
  }

  // A parallel holding: a second edge alongside an existing one.
  {
    graph::EdgeId existing = graph::kInvalidEdge;
    mirror_.ForEachEdge([&](graph::EdgeId e) {
      if (existing == graph::kInvalidEdge &&
          mirror_.edge_label(e) == "Shareholding" &&
          mirror_.GetEdgeProperty(e, "w").AsNumber() < 0.5) {
        existing = e;
      }
    });
    ASSERT_NE(existing, graph::kInvalidEdge);
    Json delta = Json::MakeObject();
    Json edges = Json::MakeArray();
    edges.Append(EdgeJson(static_cast<int64_t>(mirror_.edge_src(existing)),
                          static_cast<int64_t>(mirror_.edge_dst(existing)),
                          0.3));
    delta.Set("edges", edges);
    const uint64_t extracted = Extracted();
    Ingest(delta);
    EXPECT_EQ(Extracted(), extracted + 1);  // voting(edge)
    ExpectEveryNodeMatches("after a parallel holding");
  }

  // A fault-injected ingest: the incremental chase dies and the service
  // re-establishes the fixpoint with a full Reason before publishing.
  {
    FaultInjection::Arm("kg.reason_incremental",
                        {StatusCode::kIoError, "chase died", /*skip=*/0,
                         /*max_fires=*/1});
    Json delta = Json::MakeObject();
    Json edges = Json::MakeArray();
    edges.Append(EdgeJson(person, target, 0.55));
    delta.Set("edges", edges);
    const uint64_t extracted = Extracted();
    Json result = Ingest(delta);
    FaultInjection::Reset();
    // The recovery's full Reason extracts the whole graph again.
    EXPECT_EQ(Extracted(), extracted + ControlInputs());
    ASSERT_NE(result.Find("recovered"), nullptr) << result.Dump();
    EXPECT_TRUE(result.Find("recovered")->AsBool());
    EXPECT_EQ(service_->version(), 5u);
    ExpectEveryNodeMatches("after a recovered ingest");
  }
}

}  // namespace
}  // namespace vadalink::serve
