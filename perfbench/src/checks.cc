#include "checks.h"

#include <algorithm>
#include <map>

#include "company/close_link.h"
#include "company/company_graph.h"
#include "company/control.h"
#include "company/family.h"
#include "core/candidates.h"

namespace perfbench {

using vadalink::graph::PropertyGraph;
using vadalink::serve::Json;
namespace company = vadalink::company;

namespace {

std::pair<int64_t, int64_t> Unordered(int64_t a, int64_t b) {
  return {std::min(a, b), std::max(a, b)};
}

size_t CountMinus(const PairSet& a, const PairSet& b) {
  size_t n = 0;
  for (const auto& p : a) n += b.count(p) == 0 ? 1 : 0;
  return n;
}

}  // namespace

size_t SymmetricDifference(const PairSet& a, const PairSet& b) {
  return CountMinus(a, b) + CountMinus(b, a);
}

double PairF1(const PairSet& predicted, const PairSet& reference) {
  if (predicted.empty() && reference.empty()) return 1.0;
  size_t tp = predicted.size() - CountMinus(predicted, reference);
  return 2.0 * static_cast<double>(tp) /
         static_cast<double>(predicted.size() + reference.size());
}

PairSet EdgePairs(const PropertyGraph& g, const std::string& label,
                  bool unordered) {
  PairSet out;
  g.ForEachEdge([&](vadalink::graph::EdgeId e) {
    if (g.edge_label(e) != label) return;
    int64_t a = g.edge_src(e), b = g.edge_dst(e);
    out.insert(unordered ? Unordered(a, b) : std::make_pair(a, b));
  });
  return out;
}

AugmentExpectation ExpectedAugmentLinks(const PropertyGraph& input,
                                        const PropertyGraph& output) {
  AugmentExpectation exp;
  auto cg = company::CompanyGraph::FromPropertyGraph(input);
  if (!cg.ok()) return exp;
  for (const auto& e : company::AllControlEdges(*cg, 0.5)) {
    exp.control.insert({e.controller, e.controlled});
  }
  company::CloseLinkConfig cfg;  // the CloseLinkCandidate's defaults
  for (const auto& e : company::AllCloseLinks(*cg, cfg)) {
    exp.closelink.insert(Unordered(e.x, e.y));
  }
  for (const auto& family : vadalink::core::FamiliesFromGraph(output)) {
    for (const auto& [x, y] : company::FamilyCloseLinks(*cg, family, cfg)) {
      exp.closelink.insert(Unordered(x, y));
    }
  }
  return exp;
}

std::vector<std::string> CheckAugmentOutput(const PropertyGraph& output,
                                            const AugmentExpectation& expected) {
  std::vector<std::string> out;
  PairSet control = EdgePairs(output, "Control", false);
  PairSet closelink = EdgePairs(output, "CloseLink", true);
  if (size_t d = SymmetricDifference(control, expected.control); d > 0) {
    out.push_back("augment: " + std::to_string(d) +
                  " Control edge(s) differ from AllControlEdges");
  }
  if (size_t d = SymmetricDifference(closelink, expected.closelink); d > 0) {
    out.push_back("augment: " + std::to_string(d) +
                  " CloseLink edge(s) differ from AllCloseLinks plus family "
                  "close links");
  }
  size_t bad_family = 0;
  for (const char* label : {"PartnerOf", "ParentOf", "SiblingOf"}) {
    for (const auto& [a, b] : EdgePairs(output, label, false)) {
      if (output.node_label(static_cast<vadalink::graph::NodeId>(a)) !=
              "Person" ||
          output.node_label(static_cast<vadalink::graph::NodeId>(b)) !=
              "Person") {
        ++bad_family;
      }
    }
  }
  if (bad_family > 0) {
    out.push_back("augment: " + std::to_string(bad_family) +
                  " family edge(s) join a non-Person node");
  }
  return out;
}

ReasonAnswer EngineAnswer(const vadalink::core::KnowledgeGraph& kg) {
  ReasonAnswer a;
  for (vadalink::datalog::RowRef t : kg.Query("control")) {
    a.control.insert({t[0].AsInt(), t[1].AsInt()});
  }
  for (vadalink::datalog::RowRef t : kg.Query("closelink")) {
    a.closelink.insert(Unordered(t[0].AsInt(), t[1].AsInt()));
  }
  return a;
}

ReasonAnswer OracleAnswer(const PropertyGraph& g) {
  ReasonAnswer a;
  auto cg = company::CompanyGraph::FromPropertyGraph(g);
  if (!cg.ok()) return a;
  for (const auto& e : company::AllControlEdges(*cg, 0.5)) {
    a.control.insert({e.controller, e.controlled});
  }
  company::CloseLinkConfig cfg;
  cfg.threshold = 0.2;
  cfg.exact_paths = false;
  cfg.ownership.max_depth = 8;
  for (const auto& e : company::AllCloseLinks(*cg, cfg)) {
    a.closelink.insert(Unordered(e.x, e.y));
  }
  return a;
}

bool SameAnswer(const ReasonAnswer& a, const ReasonAnswer& b) {
  return a.control == b.control && a.closelink == b.closelink;
}

size_t OracleMismatches(const ReasonAnswer& engine,
                        const ReasonAnswer& oracle) {
  return SymmetricDifference(engine.control, oracle.control) +
         SymmetricDifference(engine.closelink, oracle.closelink);
}

double AnswerF1(const ReasonAnswer& engine, const ReasonAnswer& oracle) {
  PairSet e, o;
  for (const auto& p : engine.control) e.insert({p.first, p.second});
  for (const auto& p : oracle.control) o.insert({p.first, p.second});
  // Tag close links so they never collide with control pairs.
  for (const auto& p : engine.closelink) e.insert({-1 - p.first, p.second});
  for (const auto& p : oracle.closelink) o.insert({-1 - p.first, p.second});
  return PairF1(e, o);
}

std::string CheckServeResponse(const Json& response, const std::string& op,
                               int64_t id) {
  const Json* rid = response.Find("id");
  if (rid == nullptr || !rid->is_int() || rid->AsInt() != id) {
    return "response id does not match request " + std::to_string(id);
  }
  const Json* ok = response.Find("ok");
  if (ok == nullptr || !ok->is_bool()) return "response without boolean ok";
  if (!ok->AsBool()) {
    const Json* err = response.Find("error");
    if (err == nullptr || !err->is_object() || err->Find("code") == nullptr) {
      return "error response without error.code";
    }
    return "";
  }
  const Json* version = response.Find("graph_version");
  if (version == nullptr || !version->is_int() || version->AsInt() < 1) {
    return "response without a positive integer graph_version";
  }
  const Json* result = response.Find("result");
  if (result == nullptr || !result->is_object()) {
    return "response without a result object";
  }
  const char* array_key = op == "control"      ? "controlled"
                          : op == "ubo"        ? "owners"
                          : op == "closelinks" ? "links"
                                               : nullptr;
  if (array_key != nullptr) {
    const Json* arr = result->Find(array_key);
    const Json* count = result->Find("count");
    if (arr == nullptr || !arr->is_array() || count == nullptr ||
        !count->is_int()) {
      return op + " result without " + array_key + " array and count";
    }
    if (count->AsInt() != static_cast<int64_t>(arr->AsArray().size())) {
      return op + " count " + std::to_string(count->AsInt()) +
             " differs from its array length " +
             std::to_string(arr->AsArray().size());
    }
  } else if (op == "ingest") {
    const Json* v = result->Find("graph_version");
    const Json* edges = result->Find("edges_added");
    if (v == nullptr || !v->is_int() || edges == nullptr || !edges->is_int() ||
        edges->AsInt() != 1) {
      return "ingest result without graph_version or edges_added == 1";
    }
  }
  return "";
}

std::vector<int64_t> ControlledIds(const Json& response) {
  std::vector<int64_t> ids;
  const Json* result = response.Find("result");
  const Json* arr = result != nullptr ? result->Find("controlled") : nullptr;
  if (arr == nullptr || !arr->is_array()) return ids;
  for (const Json& v : arr->AsArray()) ids.push_back(v.AsInt());
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<std::string> CheckVersionOrder(
    const std::vector<VersionObservation>& observations) {
  size_t older = 0, stale_ingests = 0;
  std::vector<int64_t> created;
  for (const VersionObservation& o : observations) {
    if (o.version < static_cast<int64_t>(o.floor)) ++older;
    if (!o.ingest) continue;
    if (o.created <= static_cast<int64_t>(o.floor)) ++stale_ingests;
    created.push_back(o.created);
  }
  std::vector<std::string> out;
  if (older > 0) {
    out.push_back("serve: " + std::to_string(older) +
                  " response(s) older than a version the connection had "
                  "already seen");
  }
  if (stale_ingests > 0) {
    out.push_back("serve: " + std::to_string(stale_ingests) +
                  " ingest(s) did not create a newer graph version");
  }
  std::sort(created.begin(), created.end());
  if (std::adjacent_find(created.begin(), created.end()) != created.end()) {
    out.push_back("serve: two ingests created the same graph version");
  }
  return out;
}

KeySample CompareKeySample(const std::vector<int64_t>& keys,
                           const std::vector<std::vector<int64_t>>& engine,
                           const std::vector<std::vector<int64_t>>& compiled) {
  KeySample out;
  PairSet e, c;
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::vector<int64_t> none;
    const auto& a = i < engine.size() ? engine[i] : none;
    const auto& b = i < compiled.size() ? compiled[i] : none;
    if (a != b) ++out.mismatched_keys;
    for (int64_t y : a) e.insert({keys[i], y});
    for (int64_t y : b) c.insert({keys[i], y});
  }
  out.f1 = PairF1(e, c);
  return out;
}

size_t RepetitionDrift(
    const std::vector<std::pair<size_t, std::vector<uint64_t>>>& repetitions) {
  std::map<size_t, const std::vector<uint64_t>*> first;
  size_t drift = 0;
  for (const auto& [slot, counts] : repetitions) {
    auto [it, inserted] = first.emplace(slot, &counts);
    if (!inserted && *it->second != counts) ++drift;
  }
  return drift;
}

}  // namespace perfbench
