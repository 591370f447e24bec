#include "core/knowledge_graph.h"

#include "common/fault_injection.h"
#include "datalog/parser.h"

namespace vadalink::core {

KnowledgeGraph::KnowledgeGraph() = default;

Status KnowledgeGraph::AddRules(std::string_view vadalog_source) {
  VL_ASSIGN_OR_RETURN(datalog::Program program,
                      datalog::ParseProgram(vadalog_source, &catalog_));
  for (auto& rule : program.rules) {
    combined_.rules.push_back(std::move(rule));
  }
  for (auto& fact : program.facts) {
    combined_.facts.push_back(std::move(fact));
  }
  for (uint32_t out : program.outputs) {
    combined_.outputs.push_back(out);
  }
  used_ = MappedPredicatesUsedBy(combined_, catalog_);
  return Status::OK();
}

size_t KnowledgeGraph::rule_count() const { return combined_.rules.size(); }

datalog::WardednessReport KnowledgeGraph::CheckWardedness() const {
  return datalog::AnalyzeWardedness(combined_, catalog_);
}

void KnowledgeGraph::RegisterFunction(std::string name,
                                      datalog::ExternalFn fn) {
  extra_fns_.emplace_back(std::move(name), std::move(fn));
}

Result<ReasonStats> KnowledgeGraph::Reason(const RunContext* run_ctx,
                                           MetricsRegistry* metrics) {
  VL_FAULT_POINT("kg.reason");
  ReasonStats stats;
  ScopedSpan reason_span(metrics, "reason", run_ctx);

  db_ = std::make_unique<datalog::Database>(&catalog_);
  // Nothing extracted yet: every predicate the rules mention is loaded
  // over the whole graph.
  extracted_.clear();
  stored_links_ = {};
  VL_RETURN_NOT_OK(ExtractFacts(run_ctx, metrics));
  stats.facts_before = db_->TotalFacts();

  VL_RETURN_NOT_OK(parallel_.Validate());
  // The pool is a member so it outlives the engine (which keeps a raw
  // pointer to it for Explain()-era state).
  pool_ = MakeThreadPool(parallel_);
  datalog::EngineOptions options;
  options.trace_provenance = true;
  options.run_ctx = run_ctx;
  options.pool = pool_.get();
  options.metrics = metrics;
  engine_ = std::make_unique<datalog::Engine>(db_.get(), options);
  for (const auto& [name, fn] : extra_fns_) {
    engine_->functions()->Register(name, fn);
  }
  VL_RETURN_NOT_OK(engine_->Run(combined_));
  stats.engine = engine_->stats();
  stats.facts_after = db_->TotalFacts();

  VL_ASSIGN_OR_RETURN(stats.links_materialised, StoreLinks(run_ctx, metrics));
  return stats;
}

Result<ReasonStats> KnowledgeGraph::ReasonIncremental(
    const RunContext* run_ctx, MetricsRegistry* metrics) {
  VL_FAULT_POINT("kg.reason_incremental");
  if (db_ == nullptr || engine_ == nullptr) {
    return Status::InvalidArgument(
        "ReasonIncremental requires a completed Reason() first");
  }
  ReasonStats stats;
  ScopedSpan reason_span(metrics, "reason_incremental", run_ctx);
  stats.facts_before = db_->TotalFacts();
  // The facts of appended nodes/edges land in the delta window.
  VL_RETURN_NOT_OK(ExtractFacts(run_ctx, metrics));
  engine_->set_run_ctx(run_ctx);
  engine_->set_metrics(metrics);
  VL_RETURN_NOT_OK(engine_->RunIncremental(combined_));
  stats.engine = engine_->stats();
  stats.facts_after = db_->TotalFacts();
  VL_ASSIGN_OR_RETURN(stats.links_materialised, StoreLinks(run_ctx, metrics));
  return stats;
}

Status KnowledgeGraph::ExtractFacts(const RunContext* run_ctx,
                                    MetricsRegistry* metrics) {
  ScopedSpan span(metrics, "extract", run_ctx);
  // A predicate extracted before needs only what was appended since; one
  // the rules mention since needs the whole graph.
  MappingOptions appended;
  appended.predicates.clear();
  appended.first_node = extracted_nodes_;
  appended.first_edge = extracted_edges_;
  MappingOptions whole;
  whole.predicates.clear();
  for (const std::string& p : used_) {
    (extracted_.count(p) != 0 ? appended : whole).predicates.insert(p);
  }
  const auto nodes = static_cast<graph::NodeId>(graph_.node_count());
  const auto edges = static_cast<graph::EdgeId>(graph_.edge_slots());
  VL_ASSIGN_OR_RETURN(size_t offered,
                      LoadGraphFacts(graph_, db_.get(), appended));
  VL_ASSIGN_OR_RETURN(size_t offered_whole,
                      LoadGraphFacts(graph_, db_.get(), whole));
  extracted_ = used_;
  extracted_nodes_ = nodes;
  extracted_edges_ = edges;
  MetricAdd(metrics, "reason.facts.extracted", offered + offered_whole);
  return Status::OK();
}

Result<size_t> KnowledgeGraph::StoreLinks(const RunContext* run_ctx,
                                          MetricsRegistry* metrics) {
  ScopedSpan span(metrics, "store_links", run_ctx);
  VL_ASSIGN_OR_RETURN(size_t added,
                      StorePredictedLinks(*db_, &graph_, &stored_links_));
  MetricAdd(metrics, "reason.links.materialised", added);
  return added;
}

datalog::RelationScan KnowledgeGraph::Query(
    std::string_view predicate) const {
  if (!db_) return datalog::RelationScan();
  return db_->Scan(predicate);
}

std::string KnowledgeGraph::Explain(
    std::string_view predicate,
    const std::vector<datalog::Value>& tuple) const {
  if (!engine_) return "(call Reason() first)\n";
  uint32_t pred = catalog_.predicates.Lookup(predicate);
  if (pred == UINT32_MAX) return "(unknown predicate)\n";
  return engine_->Explain(pred, tuple);
}

}  // namespace vadalink::core
