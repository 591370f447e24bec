// In-memory directed property graph — the extensional component of the
// knowledge graph (Definition 2.1 of the paper), specialised by the company
// graph (Definition 2.2) in src/company/.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <ranges>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/property_value.h"

namespace vadalink::graph {

using NodeId = uint32_t;
using EdgeId = uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// A directed property graph with labelled nodes and edges.
///
/// Nodes and edges are addressed by dense integer ids assigned at insertion;
/// edges may be soft-deleted (RemoveEdge) — iteration skips removed edges,
/// ids of removed edges are never reused.
///
/// Labels and property keys are interned in one symbol table per graph;
/// each element keeps its properties in one flat vector, in first-insertion
/// order (see DESIGN.md section 4, "The property-graph store"). Const
/// methods never write, so concurrent readers need no lock.
class PropertyGraph {
 private:
  using SymbolId = uint32_t;
  struct Property {
    SymbolId key = 0;
    PropertyValue value;
  };

  /// A view of `props` as (key name, value) pairs.
  auto Named(const std::vector<Property>& props) const {
    return std::views::transform(props, [this](const Property& p) {
      return std::pair<const std::string&, const PropertyValue&>(
          symbols_[p.key], p.value);
    });
  }

 public:
  PropertyGraph() = default;

  // --- construction -------------------------------------------------------

  /// Adds a node with the given label; returns its id.
  NodeId AddNode(const std::string& label);

  /// Adds a directed edge src -> dst; returns its id, or InvalidArgument if
  /// either endpoint does not exist.
  Result<EdgeId> AddEdge(NodeId src, NodeId dst, const std::string& label);

  /// Soft-deletes an edge; its id becomes invalid for lookups. Its label
  /// and properties stay readable.
  Status RemoveEdge(EdgeId e);

  /// Pre-allocates internal storage for n nodes / m edges.
  void Reserve(size_t n, size_t m);

  // --- properties ---------------------------------------------------------

  /// Sets or overwrites a property; an overwritten key keeps its position.
  void SetNodeProperty(NodeId n, const std::string& key, PropertyValue value);
  void SetEdgeProperty(EdgeId e, const std::string& key, PropertyValue value);

  /// Returns the property value, or a null PropertyValue if absent.
  const PropertyValue& GetNodeProperty(NodeId n, const std::string& key) const {
    return Find(nodes_[n].properties, key);
  }
  const PropertyValue& GetEdgeProperty(EdgeId e, const std::string& key) const {
    return Find(edges_[e].properties, key);
  }

  bool HasNodeProperty(NodeId n, const std::string& key) const {
    return &GetNodeProperty(n, key) != &kNullValue;
  }
  bool HasEdgeProperty(EdgeId e, const std::string& key) const {
    return &GetEdgeProperty(e, key) != &kNullValue;
  }

  /// Read-only (key, value) range over one element's properties, in the
  /// order their keys were first set. It reads the graph in place, so adding
  /// an element or setting a property of this one invalidates it.
  auto node_properties(NodeId n) const { return Named(nodes_[n].properties); }
  auto edge_properties(EdgeId e) const { return Named(edges_[e].properties); }

  // --- topology -----------------------------------------------------------

  size_t node_count() const { return nodes_.size(); }
  /// Live (non-removed) edges.
  size_t edge_count() const { return live_edge_count_; }
  /// Total edge slots ever allocated (upper bound for EdgeId iteration).
  size_t edge_slots() const { return edges_.size(); }

  bool IsValidNode(NodeId n) const { return n < nodes_.size(); }
  bool IsValidEdge(EdgeId e) const {
    return e < edges_.size() && !edges_[e].removed;
  }

  /// The reference stays valid for the graph's lifetime, across inserts.
  const std::string& node_label(NodeId n) const {
    return symbols_[nodes_[n].label];
  }
  const std::string& edge_label(EdgeId e) const {
    return symbols_[edges_[e].label];
  }
  NodeId edge_src(EdgeId e) const { return edges_[e].src; }
  NodeId edge_dst(EdgeId e) const { return edges_[e].dst; }

  /// Ids of live outgoing edges of n.
  const std::vector<EdgeId>& out_edges(NodeId n) const { return out_[n]; }
  /// Ids of live incoming edges of n.
  const std::vector<EdgeId>& in_edges(NodeId n) const { return in_[n]; }

  size_t out_degree(NodeId n) const { return out_[n].size(); }
  size_t in_degree(NodeId n) const { return in_[n].size(); }

  /// Invokes fn(EdgeId) for each live edge.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (EdgeId e = 0; e < edges_.size(); ++e) {
      if (!edges_[e].removed) fn(e);
    }
  }

  /// All node ids with the given label.
  std::vector<NodeId> NodesWithLabel(const std::string& label) const;

  /// First live edge src -> dst with the given label, or kInvalidEdge.
  EdgeId FindEdge(NodeId src, NodeId dst, const std::string& label) const;

 private:
  static constexpr SymbolId kNoSymbol = std::numeric_limits<SymbolId>::max();

  struct Node {
    SymbolId label = kNoSymbol;
    std::vector<Property> properties;
  };
  struct Edge {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    SymbolId label = kNoSymbol;
    bool removed = false;
    std::vector<Property> properties;
  };

  /// Id of `name`, adding it to the symbol table if new.
  SymbolId Intern(const std::string& name);
  /// Id of `name`, or kNoSymbol, which no label or key carries, so a scan
  /// for it finds nothing without a special case. Never adds.
  SymbolId Lookup(const std::string& name) const;
  static void Set(std::vector<Property>* props, SymbolId key,
                  PropertyValue value);
  /// The value stored under `key`, or kNullValue itself when there is none.
  const PropertyValue& Find(const std::vector<Property>& props,
                            const std::string& key) const;

  // A deque never moves its elements, so label references stay valid.
  std::deque<std::string> symbols_;
  std::unordered_map<std::string, SymbolId> symbol_ids_;
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
  size_t live_edge_count_ = 0;
  static const PropertyValue kNullValue;
};

}  // namespace vadalink::graph
