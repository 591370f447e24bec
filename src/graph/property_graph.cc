#include "graph/property_graph.h"

#include <algorithm>

namespace vadalink::graph {

const PropertyValue PropertyGraph::kNullValue{};

PropertyGraph::SymbolId PropertyGraph::Intern(const std::string& name) {
  auto [it, added] =
      symbol_ids_.try_emplace(name, static_cast<SymbolId>(symbols_.size()));
  if (added) symbols_.push_back(name);
  return it->second;
}

PropertyGraph::SymbolId PropertyGraph::Lookup(const std::string& name) const {
  auto it = symbol_ids_.find(name);
  return it == symbol_ids_.end() ? kNoSymbol : it->second;
}

void PropertyGraph::Set(std::vector<Property>* props, SymbolId key,
                        PropertyValue value) {
  for (Property& p : *props) {
    if (p.key == key) {
      p.value = std::move(value);
      return;
    }
  }
  props->push_back(Property{key, std::move(value)});
}

const PropertyValue& PropertyGraph::Find(const std::vector<Property>& props,
                                         const std::string& key) const {
  const SymbolId id = Lookup(key);
  for (const Property& p : props) {
    if (p.key == id) return p.value;
  }
  return kNullValue;
}

NodeId PropertyGraph::AddNode(const std::string& label) {
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{Intern(label), {}});
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

Result<EdgeId> PropertyGraph::AddEdge(NodeId src, NodeId dst,
                                      const std::string& label) {
  if (!IsValidNode(src) || !IsValidNode(dst)) {
    return Status::InvalidArgument("AddEdge: endpoint out of range");
  }
  EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{src, dst, Intern(label), false, {}});
  out_[src].push_back(id);
  in_[dst].push_back(id);
  ++live_edge_count_;
  return id;
}

Status PropertyGraph::RemoveEdge(EdgeId e) {
  if (e >= edges_.size()) {
    return Status::InvalidArgument("RemoveEdge: id out of range");
  }
  Edge& edge = edges_[e];
  if (edge.removed) {
    return Status::NotFound("RemoveEdge: already removed");
  }
  edge.removed = true;
  auto erase_from = [e](std::vector<EdgeId>& v) {
    v.erase(std::remove(v.begin(), v.end(), e), v.end());
  };
  erase_from(out_[edge.src]);
  erase_from(in_[edge.dst]);
  --live_edge_count_;
  return Status::OK();
}

void PropertyGraph::Reserve(size_t n, size_t m) {
  nodes_.reserve(n);
  out_.reserve(n);
  in_.reserve(n);
  edges_.reserve(m);
}

void PropertyGraph::SetNodeProperty(NodeId n, const std::string& key,
                                    PropertyValue value) {
  Set(&nodes_[n].properties, Intern(key), std::move(value));
}

void PropertyGraph::SetEdgeProperty(EdgeId e, const std::string& key,
                                    PropertyValue value) {
  Set(&edges_[e].properties, Intern(key), std::move(value));
}

std::vector<NodeId> PropertyGraph::NodesWithLabel(
    const std::string& label) const {
  const SymbolId id = Lookup(label);
  std::vector<NodeId> out;
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    if (nodes_[n].label == id) out.push_back(n);
  }
  return out;
}

EdgeId PropertyGraph::FindEdge(NodeId src, NodeId dst,
                               const std::string& label) const {
  if (!IsValidNode(src)) return kInvalidEdge;
  const SymbolId id = Lookup(label);
  for (EdgeId e : out_[src]) {
    if (edges_[e].dst == dst && edges_[e].label == id) return e;
  }
  return kInvalidEdge;
}

}  // namespace vadalink::graph
