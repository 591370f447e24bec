// The enterprise-facing facade of Figure 3 in the paper: a Knowledge Graph
// = extensional component (the property graph) + intensional component
// (a repository of Vadalog rule programs), with a reasoning API that runs
// the rules, materialises predicted links back into the graph, and
// explains derived facts.
//
//   KnowledgeGraph kg;
//   BuildCompanyGraph(kg.mutable_graph());
//   kg.AddRules(ControlProgram());           // intensional component
//   kg.Reason();                             // chase to fixpoint
//   kg.Query("control");                     // reasoning API
//   kg.Explain("control", {x, y});           // provenance
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/mapping.h"
#include "datalog/engine.h"
#include "datalog/warded.h"
#include "graph/property_graph.h"

namespace vadalink::core {

struct ReasonStats {
  /// Fact-base size before and after the chase. Only the mapped
  /// predicates the rules mention are loaded, so both count those facts
  /// (plus, after an incremental run, every fact of the earlier runs).
  size_t facts_before = 0;
  size_t facts_after = 0;
  size_t links_materialised = 0;
  datalog::EngineStats engine;
};

class KnowledgeGraph {
 public:
  KnowledgeGraph();

  /// The extensional component. Reason() extracts it whole; nodes and
  /// edges appended after that are picked up by ReasonIncremental() too,
  /// while property edits and RemoveEdge on earlier ones need Reason().
  graph::PropertyGraph* mutable_graph() { return &graph_; }
  const graph::PropertyGraph& graph() const { return graph_; }

  /// Appends a rule program to the intensional component. Parsed eagerly;
  /// returns ParseError (with line info) on bad syntax. The mapped
  /// predicates the combined rules mention (MappedPredicatesUsedBy) are
  /// the only ones a run extracts from the graph.
  Status AddRules(std::string_view vadalog_source);

  /// Number of rules across all added programs.
  size_t rule_count() const;

  /// Wardedness report over the combined intensional component (the
  /// PTIME-tractability check of the paper).
  datalog::WardednessReport CheckWardedness() const;

  /// Registers an external '#function' available to the rules.
  void RegisterFunction(std::string name, datalog::ExternalFn fn);

  /// Concurrency for Reason(): rules match over a pool of this many
  /// threads (see EngineOptions::pool; facts and engine counters are
  /// identical at every thread count). threads = 1 (default) matches on
  /// the calling thread.
  void set_parallel(ParallelOptions parallel) {
    parallel_ = std::move(parallel);
  }
  const ParallelOptions& parallel() const { return parallel_; }

  /// Runs all programs to fixpoint against the current graph and
  /// materialises derived control/closelink/partnerof/parentof/siblingof
  /// facts as typed edges. Each call starts from a fresh fact base,
  /// extracts the whole graph into it and moves the extraction watermark
  /// (node count, edge slots) to the graph's end, before the new links
  /// are stored, so the next incremental run extracts those links.
  /// `run_ctx` (nullptr = unlimited) bounds the chase: on a deadline /
  /// budget / cancellation trip the corresponding non-OK Status is
  /// returned and the graph is left unmodified (links are materialised
  /// only after a completed chase).
  ///
  /// `metrics` (nullable) receives the engine.* counters, the
  /// engine.delta.size histogram, the reason/{extract,chase,store_links}
  /// spans, reason.facts.extracted (facts offered to the fact base) and
  /// reason.links.materialised.
  Result<ReasonStats> Reason(const RunContext* run_ctx = nullptr,
                             MetricsRegistry* metrics = nullptr);

  /// Incremental continuation after a completed Reason(): the nodes and
  /// edge slots appended since the last extraction (the watermark) are
  /// loaded as deltas, and the chase resumes via Engine::RunIncremental —
  /// null memoisation, aggregate state and provenance carry over, and
  /// only work caused by the delta is done. Only the links derived since
  /// the last run are stored. A mapped predicate the rules started to
  /// mention since the last extraction (AddRules) is extracted over the
  /// whole graph. Property edits and RemoveEdge on nodes and edges below
  /// the watermark are not seen: call Reason(). This is the ingest path
  /// of the serving layer; its spans are reason_incremental/{extract,
  /// chase,store_links}.
  ///
  /// Fails with kInvalidArgument before any completed Reason(), after an
  /// aborted run (the message names the aborting run's limit status), or
  /// kUnsupported for programs with negation. After a failure the
  /// fixpoint must be re-established with Reason().
  Result<ReasonStats> ReasonIncremental(const RunContext* run_ctx = nullptr,
                                        MetricsRegistry* metrics = nullptr);

  /// Non-allocating scan over a predicate's facts after the last Reason()
  /// (empty before, and empty for a mapped predicate no rule mentions:
  /// it is never loaded). The scan reads the engine's columnar storage in
  /// place; it stays valid until the next Reason()/ReasonIncremental()
  /// call replaces or extends the fact base.
  datalog::RelationScan Query(std::string_view predicate) const;

  /// Provenance tree for a fact derived by the last Reason().
  std::string Explain(std::string_view predicate,
                      const std::vector<datalog::Value>& tuple) const;

  /// Value helpers bound to this KG's catalog.
  datalog::Value Str(std::string_view s) {
    return datalog::Value::Symbol(catalog_.symbols.Intern(s));
  }
  static datalog::Value Int(int64_t v) { return datalog::Value::Int(v); }

  const datalog::Catalog& catalog() const { return catalog_; }

 private:
  /// Loads the graph into db_: the predicates extracted before from the
  /// watermark on, the ones the rules mention since over the whole graph;
  /// then moves the watermark to the graph's end.
  Status ExtractFacts(const RunContext* run_ctx, MetricsRegistry* metrics);
  /// Materialises the links derived since the last call on this db_.
  Result<size_t> StoreLinks(const RunContext* run_ctx,
                            MetricsRegistry* metrics);

  graph::PropertyGraph graph_;
  datalog::Catalog catalog_;
  datalog::Program combined_;  // all programs merged
  PredicateSet used_;          // mapped predicates combined_ mentions
  // What db_ holds: these predicates, for nodes below extracted_nodes_
  // and edge slots below extracted_edges_.
  PredicateSet extracted_;
  graph::NodeId extracted_nodes_ = 0;
  graph::EdgeId extracted_edges_ = 0;
  LinkCursor stored_links_ = {};  // db_'s link rows already materialised
  std::vector<std::pair<std::string, datalog::ExternalFn>> extra_fns_;
  ParallelOptions parallel_;
  std::unique_ptr<ThreadPool> pool_;           // last run's pool (if any)
  std::unique_ptr<datalog::Database> db_;      // last run's fact base
  std::unique_ptr<datalog::Engine> engine_;    // last run's engine
};

}  // namespace vadalink::core
