#include "core/mapping.h"

#include <algorithm>
#include <initializer_list>

#include "company/company_graph.h"

namespace vadalink::core {

using datalog::Value;

Value ToEngineValue(const graph::PropertyValue& v,
                    datalog::Catalog* catalog) {
  switch (v.type()) {
    case graph::PropertyValue::Type::kNull:
      return Value::Symbol(catalog->symbols.Intern("null"));
    case graph::PropertyValue::Type::kBool:
      return Value::Bool(v.AsBool());
    case graph::PropertyValue::Type::kInt:
      return Value::Int(v.AsInt());
    case graph::PropertyValue::Type::kDouble:
      return Value::Double(v.AsDouble());
    case graph::PropertyValue::Type::kString:
      return Value::Symbol(catalog->symbols.Intern(v.AsString()));
  }
  return Value();
}

PredicateSet AllMappedPredicates() {
  PredicateSet all;
  for (std::string_view name : kMappedPredicates) all.emplace(name);
  return all;
}

PredicateSet DomainPredicates() {
  return {"company", "person", "own", "voting"};
}

PredicateSet MappedPredicatesUsedBy(const datalog::Program& program,
                                    const datalog::Catalog& catalog) {
  PredicateSet used;
  auto add = [&](uint32_t predicate) {
    const std::string& name = catalog.predicates.Name(predicate);
    if (std::find(kMappedPredicates.begin(), kMappedPredicates.end(),
                  name) != kMappedPredicates.end()) {
      used.insert(name);
    }
  };
  for (const datalog::Rule& rule : program.rules) {
    for (const datalog::Literal& lit : rule.body) {
      if (lit.kind == datalog::Literal::Kind::kAtom ||
          lit.kind == datalog::Literal::Kind::kNegatedAtom) {
        add(lit.atom.predicate);
      }
    }
    for (const datalog::Atom& head : rule.head) add(head.predicate);
  }
  for (const datalog::Atom& fact : program.facts) add(fact.predicate);
  for (uint32_t out : program.outputs) add(out);
  return used;
}

Result<size_t> LoadGraphFacts(const graph::PropertyGraph& g,
                              datalog::Database* db,
                              const MappingOptions& options) {
  datalog::Catalog* cat = db->catalog();
  // Unselected predicates are never interned: kSkip marks them.
  constexpr uint32_t kSkip = UINT32_MAX;
  auto select = [&](std::string_view name) {
    return options.predicates.count(name) != 0 ? cat->predicates.Intern(name)
                                               : kSkip;
  };
  const uint32_t company_p = select("company");
  const uint32_t person_p = select("person");
  const uint32_t own_p = select("own");
  const uint32_t voting_p = select("voting");
  const uint32_t node_p = select("node");
  const uint32_t nodetype_p = select("nodetype");
  const uint32_t nodefeature_p = select("nodefeature");
  const uint32_t link_p = select("link");
  const uint32_t edgetype_p = select("edgetype");
  const uint32_t edgefeature_p = select("edgefeature");
  auto symbol = [&](const std::string& s) {
    return Value::Symbol(cat->symbols.Intern(s));
  };

  size_t offered = 0;
  auto insert = [&](uint32_t predicate,
                    std::initializer_list<Value> tuple) -> Status {
    if (predicate == kSkip) return Status::OK();
    ++offered;
    return db->Insert(predicate, tuple.begin(), tuple.size()).status();
  };

  const bool node_facts = company_p != kSkip || person_p != kSkip ||
                          node_p != kSkip || nodetype_p != kSkip ||
                          nodefeature_p != kSkip;
  for (graph::NodeId n = options.first_node;
       node_facts && n < g.node_count(); ++n) {
    const Value id = Value::Int(static_cast<int64_t>(n));
    const std::string& label = g.node_label(n);
    if (label == "Company") {
      VL_RETURN_NOT_OK(insert(company_p, {id}));
    } else if (label == "Person") {
      VL_RETURN_NOT_OK(insert(person_p, {id}));
    }
    VL_RETURN_NOT_OK(insert(node_p, {id}));
    if (nodetype_p != kSkip) {
      VL_RETURN_NOT_OK(insert(nodetype_p, {id, symbol(label)}));
    }
    if (nodefeature_p != kSkip) {
      for (const auto& [key, value] : g.node_properties(n)) {
        VL_RETURN_NOT_OK(insert(nodefeature_p,
                                {id, symbol(key), ToEngineValue(value, cat)}));
      }
    }
  }

  const bool share_facts = own_p != kSkip || voting_p != kSkip;
  const bool edge_facts = share_facts || link_p != kSkip ||
                          edgetype_p != kSkip || edgefeature_p != kSkip;
  for (graph::EdgeId e = options.first_edge;
       edge_facts && e < g.edge_slots(); ++e) {
    if (!g.IsValidEdge(e)) continue;
    const Value eid = Value::Int(static_cast<int64_t>(e));
    const Value src = Value::Int(static_cast<int64_t>(g.edge_src(e)));
    const Value dst = Value::Int(static_cast<int64_t>(g.edge_dst(e)));
    const std::string& label = g.edge_label(e);
    const graph::PropertyValue& w = g.GetEdgeProperty(e, options.weight_key);
    if (share_facts && label == "Shareholding") {
      double weight = w.is_numeric() ? w.AsNumber() : 0.0;
      VL_ASSIGN_OR_RETURN(auto rights,
                          company::SplitShareRights(g, e, weight));
      auto [cash, voting_w] = rights;
      VL_RETURN_NOT_OK(insert(own_p, {src, dst, Value::Double(cash)}));
      if (voting_w > 0.0) {
        VL_RETURN_NOT_OK(insert(voting_p, {src, dst, Value::Double(voting_w)}));
      }
    }
    double weight = w.is_numeric() ? w.AsNumber() : 1.0;
    VL_RETURN_NOT_OK(insert(link_p, {eid, src, dst, Value::Double(weight)}));
    if (edgetype_p != kSkip) {
      VL_RETURN_NOT_OK(insert(edgetype_p, {eid, symbol(label)}));
    }
    if (edgefeature_p != kSkip) {
      for (const auto& [key, value] : g.edge_properties(e)) {
        VL_RETURN_NOT_OK(insert(edgefeature_p, {eid, symbol(key),
                                                ToEngineValue(value, cat)}));
      }
    }
  }
  return offered;
}

Result<size_t> StorePredictedLinks(const datalog::Database& db,
                                   graph::PropertyGraph* g,
                                   LinkCursor* cursor) {
  LinkCursor from_start = {};
  if (cursor == nullptr) cursor = &from_start;
  size_t added = 0;
  for (size_t i = 0; i < kLinkPredicates.size(); ++i) {
    const LinkPredicate& m = kLinkPredicates[i];
    datalog::RelationScan rows = db.Scan(m.predicate);
    // On an error the cursor stays on the failing row.
    size_t& row = (*cursor)[i];
    for (row = std::max(row, rows.first_row()); row < rows.size(); ++row) {
      datalog::RowRef tuple = rows[row];
      if (tuple.size() < 2 || !tuple[0].is_int() || !tuple[1].is_int()) {
        // Tuples over non-node-id constants (e.g. from a program carrying
        // its own symbolic facts) have no graph counterpart: skip them.
        continue;
      }
      auto x = static_cast<graph::NodeId>(tuple[0].AsInt());
      auto y = static_cast<graph::NodeId>(tuple[1].AsInt());
      if (!g->IsValidNode(x) || !g->IsValidNode(y)) {
        return Status::OutOfRange("predicate " + std::string(m.predicate) +
                                  " references unknown node id");
      }
      if (g->FindEdge(x, y, m.edge_label) != graph::kInvalidEdge) continue;
      VL_ASSIGN_OR_RETURN(graph::EdgeId e, g->AddEdge(x, y, m.edge_label));
      g->SetEdgeProperty(e, "predicted", true);
      ++added;
    }
  }
  return added;
}

}  // namespace vadalink::core
