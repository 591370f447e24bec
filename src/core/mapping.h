// Input/output mapping between the property graph and the relational
// representation used by the reasoning engine (Section 3 and Algorithms
// 2 / 4 of the paper).
//
// Two encodings can be produced on load:
//  * the domain encoding — company(Id), person(Id), own(Src, Dst, W) with
//    the cash-flow fraction, and voting(Src, Dst, V) with the voting
//    fraction (emitted when positive; equal to W for plain full-ownership
//    shares) — the "ground extensional component" of Algorithm 2;
//  * the generic encoding — node(Id), nodetype(Id, Label),
//    nodefeature(Id, Key, Value), link(EdgeId, Src, Dst, W),
//    edgetype(EdgeId, Label), edgefeature(EdgeId, Key, Value) — the
//    schema-independent "promotion" the framework reasons over.
//
// MappingOptions selects which of these ten predicates to emit and from
// which node and edge id on. KnowledgeGraph emits only the predicates its
// rules mention (MappedPredicatesUsedBy), and on an incremental run only
// the nodes and edges appended since its last extraction.
//
// The output mapping reads predicted link predicates (control/2,
// closelink/2, partnerof/2, parentof/2, siblingof/2) back into property-
// graph edges.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <string_view>

#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/database.h"
#include "graph/property_graph.h"

namespace vadalink::core {

/// The predicates the input mapping can emit: the domain encoding's four,
/// then the generic encoding's six.
inline constexpr std::array<std::string_view, 10> kMappedPredicates = {
    "company", "person",      "own",  "voting",   "node",
    "nodetype", "nodefeature", "link", "edgetype", "edgefeature"};

/// A set of predicate names.
using PredicateSet = std::set<std::string, std::less<>>;

/// All of kMappedPredicates.
PredicateSet AllMappedPredicates();

/// The domain encoding: company, person, own, voting.
PredicateSet DomainPredicates();

/// The mapped predicates `program` mentions: in a rule body (positive or
/// negated), a rule head, a fact or an @output. External functions cannot
/// read the database (FunctionContext holds only symbols and Skolems), so
/// loading just these leaves every relation the program mentions, and so
/// every derived fact, as a load of all ten would.
PredicateSet MappedPredicatesUsedBy(const datalog::Program& program,
                                    const datalog::Catalog& catalog);

struct MappingOptions {
  /// The predicates to emit; names outside kMappedPredicates are ignored.
  PredicateSet predicates = AllMappedPredicates();
  /// Extract only nodes with id >= first_node and edge slots >=
  /// first_edge (the delta appended since an earlier extraction).
  graph::NodeId first_node = 0;
  graph::EdgeId first_edge = 0;
  /// Edge property carrying the share weight.
  std::string weight_key = "w";
};

/// Input mapping: loads `g` into `db`. Node ids become integer constants
/// (the property-graph NodeId), so the round trip is lossless. Returns
/// the number of facts offered to `db`, duplicates included.
Result<size_t> LoadGraphFacts(const graph::PropertyGraph& g,
                              datalog::Database* db,
                              const MappingOptions& options = {});

/// The output mapping: each link predicate and the edge label its facts
/// become.
struct LinkPredicate {
  std::string_view predicate;
  const char* edge_label;
};
inline constexpr std::array<LinkPredicate, 5> kLinkPredicates = {{
    {"control", "Control"},
    {"closelink", "CloseLink"},
    {"partnerof", "PartnerOf"},
    {"parentof", "ParentOf"},
    {"siblingof", "SiblingOf"},
}};

/// Per link predicate (kLinkPredicates order), the first row of `db` that
/// StorePredictedLinks has not read yet. Row ids are stable and relations
/// append-only, so a later call reads only the rows derived since. Valid
/// for one Database: start a new (zeroed) cursor with each fresh fact
/// base.
using LinkCursor = std::array<size_t, kLinkPredicates.size()>;

/// Output mapping: for each supported link predicate present in `db`, adds
/// the corresponding labelled edges to `g` (skipping duplicates, and
/// skipping tuples whose arguments are not integer node ids). With
/// `cursor`, reads only the rows past it and advances it; without, reads
/// every row. Returns the number of edges added.
Result<size_t> StorePredictedLinks(const datalog::Database& db,
                                   graph::PropertyGraph* g,
                                   LinkCursor* cursor = nullptr);

/// Converts a property value to an engine value (strings intern into the
/// catalog; null maps to the "null" symbol).
datalog::Value ToEngineValue(const graph::PropertyValue& v,
                             datalog::Catalog* catalog);

}  // namespace vadalink::core
