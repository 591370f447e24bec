// serve/: chaos harness. A mixed read/write workload from concurrent
// clients while probabilistic faults are armed across the accept, read,
// evaluate and incremental-reasoning sites. The invariants under fire:
//   1. every request gets exactly one response (success or structured
//      error) — nothing is silently dropped;
//   2. the server never deadlocks or dies — bounded by client read
//      timeouts, the workload always completes;
//   3. graph versions observed by a synchronous client are monotone
//      (stale-flagged degradations excepted — they announce themselves);
//   4. after the storm the server still answers health and metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "core/vadalog_programs.h"
#include "graph/property_graph.h"
#include "serve/client.h"
#include "serve/server.h"

namespace vadalink::serve {
namespace {

constexpr int kClients = 6;
constexpr int kRequestsPerClient = 40;

graph::PropertyGraph SeedGraph() {
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

// control/2 puts `control` reads on the fixpoint route, so its table is
// republished by every ingest (and every recovery) under the storm.
std::string Rules() {
  return "own(X, Y, W) -> control_direct(X, Y, W).\n" +
         core::ControlProgram(0.5);
}

// One client's slice of the storm. Returns the number of transport-level
// failures (lost responses) — the chaos invariant demands zero.
int RunClient(int client_idx, int port, std::atomic<int>* responses,
              std::atomic<int>* errors, std::atomic<int>* ingests) {
  auto conn = Client::Connect("127.0.0.1", port, /*read_timeout_ms=*/20000);
  if (!conn.ok()) return kRequestsPerClient;
  Client c = std::move(conn).value();
  int lost = 0;
  int64_t last_version = 0;
  for (int i = 0; i < kRequestsPerClient; ++i) {
    const int kind = (client_idx + i) % 6;
    Result<Json> resp = [&]() -> Result<Json> {
      switch (kind) {
        case 0: {
          Json p = Json::MakeObject();
          p.Set("source", Json::Int(0));
          return c.Call("control", p);
        }
        case 1: {
          Json p = Json::MakeObject();
          p.Set("target", Json::Int(2));
          return c.Call("ubo", p);
        }
        case 2: {
          Json p = Json::MakeObject();
          p.Set("company", Json::Int(1));
          return c.Call("closelinks", p);
        }
        case 3:
          return c.Call("health", Json::MakeObject());
        case 4: {
          // Write traffic: add a company, exercising incremental
          // reasoning and — when the armed fault fires — its recovery.
          Json node = Json::MakeObject();
          node.Set("label", Json::Str("Company"));
          Json nodes = Json::MakeArray();
          nodes.Append(node);
          Json p = Json::MakeObject();
          p.Set("nodes", nodes);
          ingests->fetch_add(1);
          return c.Call("ingest", p);
        }
        default: {
          Json p = Json::MakeObject();
          p.Set("predicate", Json::Str("control_direct"));
          return c.Call("query", p);
        }
      }
    }();
    if (!resp.ok()) {
      // Transport failure: a lost response. The one legitimate cause is
      // the injected serve.read/accept fault chain closing nothing —
      // DispatchLine always answers — so any loss is a real bug.
      ++lost;
      // The connection may be dead; reconnect so the remaining workload
      // still exercises the server.
      auto re = Client::Connect("127.0.0.1", port, 20000);
      if (!re.ok()) break;
      c = std::move(re).value();
      continue;
    }
    responses->fetch_add(1);
    const Json* ok = resp->Find("ok");
    if (ok == nullptr) {
      ++lost;
      continue;
    }
    if (!ok->AsBool()) {
      // Structured error: must carry a non-empty code.
      const Json* err = resp->Find("error");
      EXPECT_NE(err, nullptr) << resp->Dump();
      if (err != nullptr) {
        EXPECT_FALSE(err->Find("code")->AsString().empty()) << resp->Dump();
      }
      errors->fetch_add(1);
      continue;
    }
    // Monotone visibility: fresh responses never go back in time. Stale
    // degradations are exempt but must say so.
    const Json* stale = resp->Find("stale");
    const Json* version = resp->Find("graph_version");
    if (version != nullptr && (stale == nullptr || !stale->AsBool())) {
      EXPECT_GE(version->AsInt(), last_version) << resp->Dump();
      last_version = std::max(last_version, version->AsInt());
    }
    // Ingests add companies without holdings, so P0 controls C1 and C2
    // at every version.
    if (kind == 0) {
      EXPECT_EQ(resp->Find("result")->Dump(),
                R"({"controlled":[1,2],"count":2})")
          << resp->Dump();
    }
  }
  return lost;
}

TEST(ServeChaosTest, MixedWorkloadUnderArmedFaultsLosesNothing) {
  FaultInjection::Reset();
  MetricsRegistry metrics;
  ServiceOptions service_opts;
  service_opts.enable_test_ops = true;
  ServerOptions server_opts;
  server_opts.port = 0;
  server_opts.max_inflight = 3;
  server_opts.queue_depth = 16;
  server_opts.request_deadline_ms = 5000;
  Server server(service_opts, server_opts, &metrics);
  ASSERT_TRUE(server.Init(SeedGraph(), Rules()).ok());
  ASSERT_TRUE(server.Start().ok());

  // Probabilistic faults on the request path. serve.read and
  // serve.evaluate poison individual requests with structured errors;
  // kg.reason_incremental forces the ingest recovery path. The respond
  // site stays clean so "exactly one response" is checkable end to end.
  FaultInjection::Arm("serve.read",
                      {StatusCode::kIoError, "chaos: read", /*skip=*/0,
                       /*max_fires=*/std::numeric_limits<uint64_t>::max(),
                       /*probability=*/0.05, /*seed=*/11});
  FaultInjection::Arm("serve.evaluate",
                      {StatusCode::kInternal, "chaos: evaluate", 0,
                       std::numeric_limits<uint64_t>::max(), 0.10, 17});
  FaultInjection::Arm("kg.reason_incremental",
                      {StatusCode::kIoError, "chaos: incremental", 0,
                       std::numeric_limits<uint64_t>::max(), 0.25, 23});

  std::atomic<int> responses{0};
  std::atomic<int> errors{0};
  std::atomic<int> ingests{0};
  std::vector<std::thread> clients;
  std::vector<int> lost(kClients, 0);
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      lost[i] = RunClient(i, server.port(), &responses, &errors, &ingests);
    });
  }
  for (auto& t : clients) t.join();
  FaultInjection::Reset();

  // Invariant 1: every request that reached the wire got an answer.
  for (int i = 0; i < kClients; ++i) {
    EXPECT_EQ(lost[i], 0) << "client " << i << " lost responses";
  }
  EXPECT_EQ(responses.load(), kClients * kRequestsPerClient);
  // The storm actually stormed: faults fired and writes happened.
  EXPECT_GT(errors.load(), 0);
  EXPECT_GT(ingests.load(), 0);

  // Invariant 4: the server is still healthy and observable.
  auto after = Client::Connect("127.0.0.1", server.port(), 10000);
  ASSERT_TRUE(after.ok());
  auto health = after->Call("health", Json::MakeObject());
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_TRUE(health->Find("ok")->AsBool());
  // Versions advanced: ingests published monotone snapshots.
  EXPECT_GT(health->Find("graph_version")->AsInt(), 1);

  auto m = after->Call("metrics", Json::MakeObject());
  ASSERT_TRUE(m.ok());
  ASSERT_TRUE(m->Find("ok")->AsBool());
  const Json* doc = m->Find("result")->Find("metrics");
  ASSERT_NE(doc, nullptr);
  EXPECT_FALSE(doc->is_null());

  server.Stop();
}

}  // namespace
}  // namespace vadalink::serve
