// ReasoningService — the request evaluator behind `vadalink serve`,
// independent of any transport so tests can drive it directly.
//
// State model (DESIGN.md section 10):
//  * one resident KnowledgeGraph — the write side. Ingest mutates it
//    under the writer mutex and re-establishes the fixpoint with
//    Engine::RunIncremental (only delta work); a failed incremental run
//    is contained by falling back to a full Reason() so the next publish
//    is always a true fixpoint.
//  * a SnapshotStore of immutable GraphSnapshots — the read side. Every
//    query evaluates against the snapshot current at its start; a
//    concurrent ingest publishes the next version without disturbing it.
//    When the rules program defines control/2, each snapshot carries that
//    relation from the fixpoint it was published from, and cold `control`
//    reads at the default threshold are a range lookup in it.
//  * a ResultCache keyed by (op, canonical params) — the degradation
//    store. Deadline-busting keyed queries fall back to the cached value
//    flagged "stale": true instead of failing.
//
// Handle() never throws and never leaves the service wedged: a poisoned
// request (parse garbage handled upstream, bad params, VLxxx preflight
// rejection, fault-injected I/O error) produces a structured error
// response for that request only.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/metrics.h"
#include "common/run_context.h"
#include "common/status.h"
#include "core/knowledge_graph.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace vadalink::serve {

struct ServiceOptions {
  /// Result-cache capacity in entries; 0 disables caching (and with it
  /// stale degradation).
  size_t cache_entries = 1024;
  /// Enables the test-only ops ("sleep") used by the chaos and overload
  /// tests to occupy workers deterministically. Never enabled by the CLI.
  bool enable_test_ops = false;
};

class ReasoningService {
 public:
  /// `metrics` (borrowed, may be null) receives serve.* instruments and
  /// is exported by the "metrics" op.
  ReasoningService(ServiceOptions options, MetricsRegistry* metrics);

  /// Installs the initial graph (+ optional Vadalog rules). Runs a full
  /// Reason() when rules are present and publishes snapshot version 1.
  /// Must complete before Handle() is called.
  Status Init(graph::PropertyGraph graph, const std::string& rules_source);

  /// Evaluates one request under `run_ctx` (the per-request governor; may
  /// be null = unlimited) and returns the rendered response line. Always
  /// returns a well-formed response — errors are structured, never thrown.
  std::string Handle(const Request& req, const RunContext* run_ctx);

  /// Current published graph version.
  uint64_t version() const { return store_.version(); }

  MetricsRegistry* metrics() { return metrics_; }
  const ServiceOptions& options() const { return options_; }

  /// Result-cache key for a keyed query. `fixpoint_route` is part of the
  /// key because the two `control` routes encode answers differently (the
  /// rules' fixpoint answers ascending ids, the compiled evaluator in
  /// discovery order), so a default-threshold read and the same read with
  /// an explicit threshold never share an entry. Exposed for tests.
  static std::string KeyedCacheKey(const std::string& op, int64_t node,
                                   double threshold, bool fixpoint_route);

 private:
  /// `fixpoint_route` answers from the snapshot's control table, otherwise
  /// the compiled ControlledBy runs at the request's threshold.
  Result<Json> OpControl(const Request& req, const SnapshotPtr& snap,
                         bool fixpoint_route);
  Result<Json> OpUbo(const Request& req, const SnapshotPtr& snap);
  Result<Json> OpCloseLinks(const Request& req, const SnapshotPtr& snap);
  Result<Json> OpIngest(const Request& req, const RunContext* run_ctx);
  Result<Json> OpReason(const Request& req, const RunContext* run_ctx);
  Result<Json> OpQuery(const Request& req);
  Result<Json> OpSleep(const Request& req, const RunContext* run_ctx);

  /// Keyed-query driver: cache fast path, fresh evaluation, stale
  /// fallback on a tripped governor.
  std::string HandleKeyed(const Request& req, const RunContext* run_ctx);

  /// Rebuilds + publishes the next snapshot from the resident graph and,
  /// with control_fixpoint_, the resident fixpoint's control relation.
  /// Caller holds write_mu_ and has just established that fixpoint.
  Status PublishLocked();

  ServiceOptions options_;
  MetricsRegistry* metrics_;

  std::mutex write_mu_;              // serialises ingest/reason/query(db)
  core::KnowledgeGraph kg_;          // resident write-side state
  bool has_rules_ = false;
  // The program has a control/2 rule head: snapshots carry the control
  // table and default-threshold control reads use it.
  bool control_fixpoint_ = false;
  uint64_t next_version_ = 1;        // version the next publish gets
  SnapshotStore store_;
  std::unique_ptr<ResultCache> cache_;
};

}  // namespace vadalink::serve
