// Output checks of the benchmark. They run after the timed region and are
// plain functions over answers, so the self-test can feed them perturbed
// answers and show that each one can fail.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/knowledge_graph.h"
#include "graph/property_graph.h"
#include "serve/json.h"

namespace perfbench {

using PairSet = std::set<std::pair<int64_t, int64_t>>;

/// Size of the symmetric difference of two sets.
size_t SymmetricDifference(const PairSet& a, const PairSet& b);
/// F1 of `predicted` against `reference` (1 when both are empty).
double PairF1(const PairSet& predicted, const PairSet& reference);

/// Edges of `g` labelled `label` as pairs; `unordered` normalises each
/// pair to (min, max).
PairSet EdgePairs(const vadalink::graph::PropertyGraph& g,
                  const std::string& label, bool unordered);

/// The links Augment should add to `input`: every AllControlEdges edge,
/// and every AllCloseLinks pair plus the family close links
/// (Definition 2.9 ii) of the families present in `output`.
struct AugmentExpectation {
  PairSet control;
  PairSet closelink;  // unordered
};
AugmentExpectation ExpectedAugmentLinks(
    const vadalink::graph::PropertyGraph& input,
    const vadalink::graph::PropertyGraph& output);

/// Compares Augment's output against the expectation. Returns one line per
/// disagreement class (empty = pass). Family edges must join two Person
/// nodes.
std::vector<std::string> CheckAugmentOutput(
    const vadalink::graph::PropertyGraph& output,
    const AugmentExpectation& expected);

/// The engine's control/2 (ordered) and closelink/2 (unordered) facts
/// after KnowledgeGraph::Reason.
struct ReasonAnswer {
  PairSet control;
  PairSet closelink;
};
ReasonAnswer EngineAnswer(const vadalink::core::KnowledgeGraph& kg);
/// The compiled oracle on the same graph: AllControlEdges (t = 0.5) and
/// AllCloseLinks under the walk-sum semantics (depth 8, t = 0.2).
ReasonAnswer OracleAnswer(const vadalink::graph::PropertyGraph& g);
/// True when both relations are identical (engine configurations must
/// agree exactly).
bool SameAnswer(const ReasonAnswer& a, const ReasonAnswer& b);
/// |engine xor oracle| over both relations.
size_t OracleMismatches(const ReasonAnswer& engine, const ReasonAnswer& oracle);
double AnswerF1(const ReasonAnswer& engine, const ReasonAnswer& oracle);

/// Validates one serve response line against the request it answers:
/// well-formed, ok, an integer graph_version, and for keyed reads a count
/// equal to the length of its array. Returns an empty string when valid.
std::string CheckServeResponse(const vadalink::serve::Json& response,
                               const std::string& op, int64_t id);

/// Sorted ids of a `control` response's "controlled" array.
std::vector<int64_t> ControlledIds(const vadalink::serve::Json& response);

/// One answered request as the graph-version checks see it.
struct VersionObservation {
  uint64_t floor = 0;   // highest graph_version seen before it was sent
  int64_t version = 0;  // the response's graph_version
  bool ingest = false;
  int64_t created = 0;  // an ingest's result.graph_version
};
/// Causal version order on one pipelined connection: no response is older
/// than its floor (a response may overtake an older one, so the check is
/// causal), every ingest creates a version newer than its floor, and no
/// two ingests create the same version. Returns one line per violated
/// rule (empty = pass).
std::vector<std::string> CheckVersionOrder(
    const std::vector<VersionObservation>& observations);

/// Engine-routed `control` answers against the same requests pinned to
/// the compiled path, key by key (answers as sorted controlled ids).
struct KeySample {
  size_t mismatched_keys = 0;
  double f1 = 1.0;  // over (key, controlled) pairs
};
KeySample CompareKeySample(const std::vector<int64_t>& keys,
                           const std::vector<std::vector<int64_t>>& engine,
                           const std::vector<std::vector<int64_t>>& compiled);

/// Repetitions of a deterministic job: the input slot each ran on and the
/// counts it produced. Returns how many repetitions produced other counts
/// than the first repetition on the same slot.
size_t RepetitionDrift(
    const std::vector<std::pair<size_t, std::vector<uint64_t>>>& repetitions);

}  // namespace perfbench
