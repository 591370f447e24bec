// Snapshot-isolated graph versions for the serving layer.
//
// The server's write path (ingest + incremental reasoning) mutates one
// resident KnowledgeGraph under a writer mutex; after each successful
// mutation it publishes an immutable GraphSnapshot: the CompanyGraph the
// keyed query algorithms run on, built from the resident property graph
// under that mutex, and (when the rules program defines control/2) the
// control relation of the fixpoint just established. No reader needs the
// property graph itself, so it is never copied. Readers grab the current
// shared_ptr (one mutex-protected pointer copy), then compute entirely
// against that frozen version: a concurrent ingest can never mutate data
// under a running query, and a request's "graph_version" names exactly
// the state it saw.
//
// Versions are assigned by the single writer and published in order, so
// the version visible through current() is monotonically non-decreasing —
// the invariant the chaos test pins.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "company/company_graph.h"

namespace vadalink::serve {

/// One immutable published version of the graph.
struct GraphSnapshot {
  uint64_t version = 0;
  /// Typed view of the resident graph at this version; its node_count()
  /// is the graph's, so it also validates node ids.
  company::CompanyGraph company_graph;
  /// The rules program's control/2 relation at the fixpoint this version
  /// was published from, as (source, controlled) pairs sorted ascending;
  /// empty when serve does not answer `control` from the rules.
  std::vector<std::pair<int64_t, int64_t>> control;
};

using SnapshotPtr = std::shared_ptr<const GraphSnapshot>;

/// Holds the current snapshot pointer. Publish() enforces monotone
/// versions (a stale publish is rejected), current() is a cheap atomic
/// pointer read for the many concurrent readers.
class SnapshotStore {
 public:
  /// Installs `snap` as the current version. Returns false (and installs
  /// nothing) if snap->version is not strictly greater than the current
  /// version — the single-writer discipline makes that a programming
  /// error worth surfacing.
  bool Publish(SnapshotPtr snap);

  /// The current snapshot; nullptr before the first Publish().
  SnapshotPtr current() const;

  /// Version of the current snapshot (0 before the first Publish()).
  uint64_t version() const;

 private:
  mutable std::mutex mu_;
  SnapshotPtr current_;
};

}  // namespace vadalink::serve
