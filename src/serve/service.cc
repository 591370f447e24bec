#include "serve/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <thread>

#include "common/fault_injection.h"
#include "company/close_link.h"
#include "company/control.h"
#include "company/groups.h"
#include "datalog/parser.h"

namespace vadalink::serve {

namespace {

/// Default thresholds of the keyed queries (a request may override them).
/// kControlThreshold is also the threshold of core::ControlProgram(), whose
/// control/2 fixpoint answers default-threshold `control` reads.
constexpr double kControlThreshold = 0.5;
constexpr double kUboThreshold = 0.25;
constexpr double kCloseLinkThreshold = 0.2;

/// Required integer param.
Result<int64_t> ReqInt(const Json& params, const char* name) {
  const Json* v = params.Find(name);
  if (v == nullptr || !v->is_int()) {
    return Status::InvalidArgument(std::string("missing or non-integer '") +
                                   name + "'");
  }
  return v->AsInt();
}

/// Optional threshold param with validation.
Result<double> OptThreshold(const Json& params, double fallback) {
  const Json* v = params.Find("threshold");
  if (v == nullptr) return fallback;
  if (!v->is_number()) {
    return Status::InvalidArgument("'threshold' must be a number");
  }
  double t = v->AsDouble();
  if (!(t > 0.0 && t <= 1.0)) {
    return Status::InvalidArgument("'threshold' must be in (0, 1]");
  }
  return t;
}

std::string FormatThreshold(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", t);
  return buf;
}

Status ValidateNode(const SnapshotPtr& snap, int64_t id, const char* what) {
  if (id < 0 ||
      static_cast<size_t>(id) >= snap->company_graph.node_count()) {
    return Status::NotFound(std::string(what) + " node " + std::to_string(id) +
                            " does not exist at graph version " +
                            std::to_string(snap->version));
  }
  return Status::OK();
}

}  // namespace

ReasoningService::ReasoningService(ServiceOptions options,
                                   MetricsRegistry* metrics)
    : options_(options), metrics_(metrics) {
  if (options_.cache_entries > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_entries);
  }
}

Status ReasoningService::Init(graph::PropertyGraph graph,
                              const std::string& rules_source) {
  std::lock_guard<std::mutex> lock(write_mu_);
  *kg_.mutable_graph() = std::move(graph);
  if (!rules_source.empty()) {
    VL_RETURN_NOT_OK(kg_.AddRules(rules_source));
    has_rules_ = true;
    // The fixpoint route only engages when the program actually defines
    // control/2 (a throwaway parse; AddRules already validated the
    // syntax, so this cannot fail).
    datalog::Catalog probe;
    auto parsed = datalog::ParseProgram(rules_source, &probe);
    if (parsed.ok()) {
      for (const datalog::Rule& r : parsed->rules) {
        for (const datalog::Atom& h : r.head) {
          if (probe.predicates.Name(h.predicate) == "control" &&
              h.args.size() == 2) {
            control_fixpoint_ = true;
          }
        }
      }
    }
    auto stats = kg_.Reason(nullptr, metrics_);
    if (!stats.ok()) return stats.status();
  }
  return PublishLocked();
}

Status ReasoningService::PublishLocked() {
  ScopedSpan span(metrics_, "publish");
  auto snap = std::make_shared<GraphSnapshot>();
  snap->version = next_version_;
  auto cg = company::CompanyGraph::FromPropertyGraph(kg_.graph());
  if (!cg.ok()) return cg.status();
  snap->company_graph = std::move(cg).value();
  if (control_fixpoint_) {
    for (datalog::RowRef row : kg_.Query("control")) {
      if (row.size() != 2 || !row[0].is_int() || !row[1].is_int()) continue;
      snap->control.emplace_back(row[0].AsInt(), row[1].AsInt());
    }
    std::sort(snap->control.begin(), snap->control.end());
  }
  if (!store_.Publish(std::move(snap))) {
    return Status::Internal("snapshot publish out of order");
  }
  ++next_version_;
  MetricAdd(metrics_, "serve.snapshots.published", 1);
  return Status::OK();
}

std::string ReasoningService::Handle(const Request& req,
                                     const RunContext* run_ctx) {
  MetricAdd(metrics_, "serve.requests.handled", 1);
  // A fault armed here poisons the request, never the server: the
  // injected status becomes this request's structured error and the
  // worker moves on.
  if (FaultInjection::AnyArmed()) {
    Status st = FaultInjection::Check("serve.evaluate");
    if (!st.ok()) {
      MetricAdd(metrics_, "serve.requests.errors", 1);
      return RenderError(req.id, st);
    }
  }

  const std::string& op = req.op;
  if (op == "control" || op == "ubo" || op == "closelinks") {
    return HandleKeyed(req, run_ctx);
  }
  if (op == "health") {
    Json result = Json::MakeObject();
    result.Set("status", Json::Str("serving"));
    result.Set("graph_version",
               Json::Int(static_cast<int64_t>(store_.version())));
    return RenderResult(req.id, store_.version(), std::move(result));
  }
  if (op == "version") {
    Json result = Json::MakeObject();
    result.Set("graph_version",
               Json::Int(static_cast<int64_t>(store_.version())));
    return RenderResult(req.id, store_.version(), std::move(result));
  }
  if (op == "metrics") {
    Json result = Json::MakeObject();
    if (metrics_ != nullptr) {
      result.Set("metrics", metrics_->ToJson());
    } else {
      result.Set("metrics", Json::Null());
    }
    return RenderResult(req.id, store_.version(), std::move(result));
  }

  Result<Json> result = [&]() -> Result<Json> {
    if (op == "ingest") return OpIngest(req, run_ctx);
    if (op == "reason") return OpReason(req, run_ctx);
    if (op == "query") return OpQuery(req);
    if (op == "sleep" && options_.enable_test_ops) {
      return OpSleep(req, run_ctx);
    }
    return Status::Unsupported(
        "unknown op '" + op +
        "' (expected health, version, metrics, control, ubo, closelinks, "
        "ingest, reason, query, or shutdown)");
  }();
  if (!result.ok()) {
    MetricAdd(metrics_, "serve.requests.errors", 1);
    return RenderError(req.id, result.status());
  }
  return RenderResult(req.id, store_.version(), std::move(result).value());
}

std::string ReasoningService::KeyedCacheKey(const std::string& op,
                                            int64_t node, double threshold,
                                            bool fixpoint_route) {
  return op + ":" + std::to_string(node) + ":" + FormatThreshold(threshold) +
         (fixpoint_route ? ":q" : ":c");
}

std::string ReasoningService::HandleKeyed(const Request& req,
                                          const RunContext* run_ctx) {
  SnapshotPtr snap = store_.current();
  if (snap == nullptr) {
    return RenderError(req.id, Status::Internal("service not initialised"));
  }

  // Resolve params up front: a malformed request never touches the cache.
  int64_t key_node = 0;
  double threshold = 0.0;
  {
    const char* node_param = req.op == "control" ? "source"
                             : req.op == "ubo"   ? "target"
                                                 : "company";
    auto node = ReqInt(req.params, node_param);
    if (!node.ok()) return RenderError(req.id, node.status());
    key_node = node.value();
    double fallback = req.op == "control" ? kControlThreshold
                      : req.op == "ubo"   ? kUboThreshold
                                          : kCloseLinkThreshold;
    auto t = OptThreshold(req.params, fallback);
    if (!t.ok()) return RenderError(req.id, t.status());
    threshold = t.value();
  }
  // The fixpoint route answers with the rules program's own threshold, so
  // an explicit per-request threshold pins the request to the compiled
  // path.
  bool fixpoint_route = req.op == "control" && control_fixpoint_ &&
                        req.params.Find("threshold") == nullptr;
  std::string key = KeyedCacheKey(req.op, key_node, threshold, fixpoint_route);

  CacheEntry cached;
  bool hit = cache_ != nullptr && cache_->Get(key, &cached);
  if (hit && cached.version == snap->version) {
    MetricAdd(metrics_, "serve.cache.hits", 1);
    return RenderResult(req.id, cached.version, cached.result,
                        /*cached=*/true);
  }
  MetricAdd(metrics_, "serve.cache.misses", 1);

  // Degradation: when the governor already tripped (deadline burned in
  // the admission queue, budget gone, shutdown cancel), a stale cached
  // answer beats a failure — flagged so the client knows.
  if (Status st = CheckRunNow(run_ctx); !st.ok()) {
    if (hit) {
      MetricAdd(metrics_, "serve.cache.stale_served", 1);
      // graph_version always names the *current* snapshot; the stale
      // entry's own version travels in computed_at_version so the client
      // can see how far behind the answer is.
      return RenderResult(req.id, snap->version, cached.result,
                          /*cached=*/true, /*stale=*/true,
                          static_cast<int64_t>(cached.version));
    }
    MetricAdd(metrics_, "serve.requests.errors", 1);
    return RenderError(req.id, st);
  }

  Result<Json> result = req.op == "control"
                            ? OpControl(req, snap, fixpoint_route)
                        : req.op == "ubo" ? OpUbo(req, snap)
                                          : OpCloseLinks(req, snap);
  if (!result.ok()) {
    MetricAdd(metrics_, "serve.requests.errors", 1);
    return RenderError(req.id, result.status());
  }
  if (cache_ != nullptr) {
    cache_->Put(key, result.value(), snap->version);
  }
  return RenderResult(req.id, snap->version, std::move(result).value());
}

Result<Json> ReasoningService::OpControl(const Request& req,
                                         const SnapshotPtr& snap,
                                         bool fixpoint_route) {
  VL_ASSIGN_OR_RETURN(int64_t source, ReqInt(req.params, "source"));
  VL_ASSIGN_OR_RETURN(double threshold,
                      OptThreshold(req.params, kControlThreshold));
  VL_RETURN_NOT_OK(ValidateNode(snap, source, "source"));
  Json ids = Json::MakeArray();
  if (fixpoint_route) {
    // The source's row range of the published control table.
    const auto& table = snap->control;
    auto it = std::lower_bound(
        table.begin(), table.end(),
        std::make_pair(source, std::numeric_limits<int64_t>::min()));
    for (; it != table.end() && it->first == source; ++it) {
      ids.Append(Json::Int(it->second));
    }
    MetricAdd(metrics_, "serve.query.engine", 1);
  } else {
    for (graph::NodeId n :
         company::ControlledBy(snap->company_graph,
                               static_cast<graph::NodeId>(source),
                               threshold)) {
      ids.Append(Json::Int(n));
    }
  }
  Json result = Json::MakeObject();
  result.Set("count", Json::Int(static_cast<int64_t>(ids.size())));
  result.Set("controlled", std::move(ids));
  return result;
}

Result<Json> ReasoningService::OpUbo(const Request& req,
                                     const SnapshotPtr& snap) {
  VL_ASSIGN_OR_RETURN(int64_t target, ReqInt(req.params, "target"));
  VL_ASSIGN_OR_RETURN(double threshold,
                      OptThreshold(req.params, kUboThreshold));
  VL_RETURN_NOT_OK(ValidateNode(snap, target, "target"));
  auto owners = company::UltimateOwnersOf(
      snap->company_graph, static_cast<graph::NodeId>(target), threshold);
  Json arr = Json::MakeArray();
  for (const auto& ubo : owners) {
    Json o = Json::MakeObject();
    o.Set("person", Json::Int(ubo.person));
    o.Set("integrated_ownership", Json::Double(ubo.integrated_ownership));
    arr.Append(std::move(o));
  }
  Json result = Json::MakeObject();
  result.Set("owners", std::move(arr));
  result.Set("count", Json::Int(static_cast<int64_t>(owners.size())));
  return result;
}

Result<Json> ReasoningService::OpCloseLinks(const Request& req,
                                            const SnapshotPtr& snap) {
  VL_ASSIGN_OR_RETURN(int64_t company, ReqInt(req.params, "company"));
  VL_ASSIGN_OR_RETURN(double threshold,
                      OptThreshold(req.params, kCloseLinkThreshold));
  VL_RETURN_NOT_OK(ValidateNode(snap, company, "company"));
  company::CloseLinkConfig cfg;
  cfg.threshold = threshold;
  cfg.metrics = metrics_;
  // Exactly the AllCloseLinks edges involving the company, found from the
  // ownership cone around it.
  auto links = company::CloseLinksOf(
      snap->company_graph, static_cast<graph::NodeId>(company), cfg);
  Json arr = Json::MakeArray();
  for (const auto& e : links) {
    Json l = Json::MakeObject();
    l.Set("x", Json::Int(e.x));
    l.Set("y", Json::Int(e.y));
    l.Set("reason",
          Json::Str(e.reason == company::CloseLinkReason::kDirectOwnership
                        ? "ownership"
                        : "common_third_party"));
    if (e.via != graph::kInvalidNode) l.Set("via", Json::Int(e.via));
    arr.Append(std::move(l));
  }
  Json result = Json::MakeObject();
  result.Set("links", std::move(arr));
  result.Set("count", Json::Int(static_cast<int64_t>(links.size())));
  return result;
}

Result<Json> ReasoningService::OpIngest(const Request& req,
                                        const RunContext* run_ctx) {
  VL_FAULT_POINT("serve.ingest");
  // A deadline burned before we start means zero mutation, not a half
  // ingest.
  VL_RETURN_NOT_OK(CheckRunNow(run_ctx));

  struct NewNode {
    std::string label;
    std::string name;
  };
  struct NewEdge {
    int64_t src = 0;
    int64_t dst = 0;
    std::string label;
    double w = 0.0;
    bool has_w = false;
    std::string right;
  };
  std::vector<NewNode> nodes;
  std::vector<NewEdge> edges;

  if (const Json* jn = req.params.Find("nodes")) {
    if (!jn->is_array()) {
      return Status::InvalidArgument("'nodes' must be an array");
    }
    for (const Json& n : jn->AsArray()) {
      if (!n.is_object()) {
        return Status::InvalidArgument("each node must be an object");
      }
      const Json* label = n.Find("label");
      if (label == nullptr || !label->is_string()) {
        return Status::InvalidArgument("node missing string 'label'");
      }
      NewNode node;
      node.label = label->AsString();
      if (const Json* name = n.Find("name")) {
        if (!name->is_string()) {
          return Status::InvalidArgument("node 'name' must be a string");
        }
        node.name = name->AsString();
      }
      nodes.push_back(std::move(node));
    }
  }
  if (const Json* je = req.params.Find("edges")) {
    if (!je->is_array()) {
      return Status::InvalidArgument("'edges' must be an array");
    }
    for (const Json& e : je->AsArray()) {
      if (!e.is_object()) {
        return Status::InvalidArgument("each edge must be an object");
      }
      NewEdge edge;
      const Json* src = e.Find("src");
      const Json* dst = e.Find("dst");
      if (src == nullptr || !src->is_int() || dst == nullptr ||
          !dst->is_int()) {
        return Status::InvalidArgument("edge missing integer 'src'/'dst'");
      }
      edge.src = src->AsInt();
      edge.dst = dst->AsInt();
      edge.label = "Shareholding";
      if (const Json* label = e.Find("label")) {
        if (!label->is_string()) {
          return Status::InvalidArgument("edge 'label' must be a string");
        }
        edge.label = label->AsString();
      }
      if (const Json* w = e.Find("w")) {
        if (!w->is_number()) {
          return Status::InvalidArgument("edge 'w' must be a number");
        }
        edge.w = w->AsDouble();
        edge.has_w = true;
      }
      if (const Json* right = e.Find("right")) {
        if (!right->is_string()) {
          return Status::InvalidArgument("edge 'right' must be a string");
        }
        edge.right = right->AsString();
        if (edge.right != "ownership" && edge.right != "bare_ownership" &&
            edge.right != "usufruct") {
          return Status::InvalidArgument(
              "edge 'right' must be ownership, bare_ownership or usufruct");
        }
      }
      if (edge.label == "Shareholding") {
        if (!edge.has_w || !(edge.w > 0.0 && edge.w <= 1.0)) {
          return Status::InvalidArgument(
              "Shareholding edge requires weight 'w' in (0, 1]");
        }
      }
      edges.push_back(std::move(edge));
    }
  }
  if (nodes.empty() && edges.empty()) {
    return Status::InvalidArgument("ingest delta is empty");
  }

  std::lock_guard<std::mutex> lock(write_mu_);
  // Validate edge endpoints against the post-node-append id space before
  // any mutation: a rejected delta leaves the resident graph untouched.
  // That includes what the publish would reject (a Shareholding edge into
  // a non-company node): caught there, the delta would already be in the
  // graph, and every later publish would fail on it.
  size_t base = kg_.graph().node_count();
  size_t limit = base + nodes.size();
  for (const NewEdge& e : edges) {
    if (e.src < 0 || static_cast<size_t>(e.src) >= limit || e.dst < 0 ||
        static_cast<size_t>(e.dst) >= limit) {
      return Status::InvalidArgument(
          "edge endpoint out of range (valid ids are 0.." +
          std::to_string(limit - 1) + " including nodes of this delta)");
    }
    const auto dst = static_cast<size_t>(e.dst);
    const std::string& dst_label = dst < base
                                       ? kg_.graph().node_label(dst)
                                       : nodes[dst - base].label;
    if (e.label == "Shareholding" && dst_label != "Company") {
      return Status::InvalidArgument(
          "Shareholding edge targets node " + std::to_string(e.dst) +
          " labelled '" + dst_label + "', not a Company");
    }
  }

  graph::PropertyGraph* g = kg_.mutable_graph();
  Json node_ids = Json::MakeArray();
  for (const NewNode& n : nodes) {
    graph::NodeId id = g->AddNode(n.label);
    if (!n.name.empty()) {
      g->SetNodeProperty(id, "name", graph::PropertyValue(n.name));
    }
    node_ids.Append(Json::Int(id));
  }
  for (const NewEdge& e : edges) {
    auto eid = g->AddEdge(static_cast<graph::NodeId>(e.src),
                          static_cast<graph::NodeId>(e.dst), e.label);
    if (!eid.ok()) return eid.status();  // unreachable after validation
    if (e.has_w) {
      g->SetEdgeProperty(*eid, "w", graph::PropertyValue(e.w));
    }
    if (!e.right.empty()) {
      g->SetEdgeProperty(*eid, "right", graph::PropertyValue(e.right));
    }
  }

  size_t links_materialised = 0;
  bool recovered = false;
  if (has_rules_) {
    auto stats = kg_.ReasonIncremental(run_ctx, metrics_);
    if (stats.ok()) {
      links_materialised = stats->links_materialised;
    } else {
      // Containment: the incremental run died (deadline, injected fault,
      // ...). The delta is already in the graph, so re-establish the
      // fixpoint from scratch — unbounded, because publishing a
      // non-fixpoint version would poison every later reader.
      MetricAdd(metrics_, "serve.ingest.recoveries", 1);
      auto full = kg_.Reason(nullptr, metrics_);
      if (!full.ok()) return stats.status();  // original cause
      links_materialised = full->links_materialised;
      recovered = true;
    }
  }
  VL_RETURN_NOT_OK(PublishLocked());
  MetricAdd(metrics_, "serve.ingest.applied", 1);

  Json result = Json::MakeObject();
  result.Set("graph_version",
             Json::Int(static_cast<int64_t>(store_.version())));
  result.Set("node_ids", std::move(node_ids));
  result.Set("nodes_added", Json::Int(static_cast<int64_t>(nodes.size())));
  result.Set("edges_added", Json::Int(static_cast<int64_t>(edges.size())));
  result.Set("links_materialised",
             Json::Int(static_cast<int64_t>(links_materialised)));
  if (recovered) result.Set("recovered", Json::Bool(true));
  return result;
}

Result<Json> ReasoningService::OpReason(const Request& req,
                                        const RunContext* run_ctx) {
  (void)req;
  std::lock_guard<std::mutex> lock(write_mu_);
  if (!has_rules_) {
    return Status::InvalidArgument(
        "server was started without a rules program");
  }
  auto stats = kg_.Reason(run_ctx, metrics_);
  if (!stats.ok()) return stats.status();
  VL_RETURN_NOT_OK(PublishLocked());
  Json result = Json::MakeObject();
  result.Set("facts_derived",
             Json::Int(static_cast<int64_t>(stats->engine.facts_derived)));
  result.Set("links_materialised",
             Json::Int(static_cast<int64_t>(stats->links_materialised)));
  result.Set("graph_version",
             Json::Int(static_cast<int64_t>(store_.version())));
  return result;
}

Result<Json> ReasoningService::OpQuery(const Request& req) {
  const Json* pred = req.params.Find("predicate");
  if (pred == nullptr || !pred->is_string()) {
    return Status::InvalidArgument("missing string 'predicate'");
  }
  int64_t limit = 1000;
  if (const Json* l = req.params.Find("limit")) {
    if (!l->is_int() || l->AsInt() < 0) {
      return Status::InvalidArgument("'limit' must be a non-negative integer");
    }
    limit = l->AsInt();
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  // Zero-copy read of the reasoner's columnar storage; the write lock
  // keeps the fact base stable for the duration of the scan.
  datalog::RelationScan tuples = kg_.Query(pred->AsString());
  Json rows = Json::MakeArray();
  size_t emitted = 0;
  for (datalog::RowRef tuple : tuples) {
    if (static_cast<int64_t>(emitted) >= limit) break;
    Json row = Json::MakeArray();
    for (size_t i = 0; i < tuple.size(); ++i) {
      row.Append(Json::Str(tuple[i].ToString(kg_.catalog().symbols)));
    }
    rows.Append(std::move(row));
    ++emitted;
  }
  Json result = Json::MakeObject();
  result.Set("tuples", std::move(rows));
  result.Set("count", Json::Int(static_cast<int64_t>(tuples.size())));
  result.Set("truncated", Json::Bool(emitted < tuples.size()));
  return result;
}

Result<Json> ReasoningService::OpSleep(const Request& req,
                                       const RunContext* run_ctx) {
  VL_ASSIGN_OR_RETURN(int64_t ms, ReqInt(req.params, "ms"));
  if (ms < 0 || ms > 60000) {
    return Status::InvalidArgument("'ms' must be in [0, 60000]");
  }
  auto start = std::chrono::steady_clock::now();
  int64_t slept = 0;
  while (slept < ms) {
    VL_RETURN_NOT_OK(CheckRunNow(run_ctx));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    slept = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  }
  Json result = Json::MakeObject();
  result.Set("slept_ms", Json::Int(slept));
  return result;
}

}  // namespace vadalink::serve
