// Shared emission of the BENCH_engine.json document: per-workload chase
// throughput, join-probe counts and the planner's chosen per-rule plans,
// under both join orders (planned vs forced worst-case). Validated in CI
// by tools/check_json.py against tools/schemas/engine_bench.json.
//
//   { "bench": "datalog_micro",
//     "schema_version": 1,
//     "workloads": [
//       { "agree": true,
//         "facts_derived": 20100,
//         "name": "tc_chain_200",
//         "planned":    {"facts_per_sec": ..., "join_probes": ...,
//                        "plan_cache_hits": ..., "plans_computed": ...,
//                        "seconds": ...},
//         "plans": ["rule 0: e[delta]@scan tc@0", ...],
//         "worst_case": { ...same fields... } } ] }
//
// "agree" asserts the sorted fact sets of the two runs are identical —
// the planner may only change enumeration order, never the fixpoint.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.h"
#include "datalog/database.h"

namespace vadalink::bench {

struct EngineRunReport {
  double seconds = 0;
  double facts_per_sec = 0;
  uint64_t join_probes = 0;
  uint64_t plans_computed = 0;
  uint64_t plan_cache_hits = 0;
};

struct EngineWorkloadReport {
  std::string name;
  uint64_t facts_derived = 0;
  EngineRunReport planned;
  EngineRunReport worst_case;
  std::vector<std::string> plans;  // planner summaries of the planned run
  bool agree = false;  // fact sets identical across join orders
  /// Optional query-focus block (bench_query_focus): planned = the
  /// goal-directed Engine::Query run, worst_case = full saturation, and
  /// "agree" asserts the goal answers are byte-identical across both
  /// modes and thread counts.
  bool has_query_focus = false;
  double query_speedup = 0;        // saturation seconds / query seconds
  uint64_t query_facts_avoided = 0;  // saturation-only derived facts
  uint64_t query_fallback_count = 0;  // 1 if the rewrite fell back
  /// Estimated-vs-actual cost comparison of the query run: the static
  /// estimate attached to the QueryReport, the planning time it took to
  /// produce it, and estimate / actual join probes (how far off the
  /// static model was; 1.0 = exact).
  double query_estimated_cost = 0;
  uint64_t query_plan_us = 0;
  double query_cost_ratio = 0;
};

/// Sorted, rendered copy of the whole fact base; equal fingerprints mean
/// equal fact sets regardless of derivation order.
inline std::vector<std::string> DatabaseFingerprint(
    const datalog::Database& db) {
  std::vector<std::string> out;
  const datalog::Catalog* cat = db.catalog();
  for (uint32_t p = 0; p < cat->predicates.size(); ++p) {
    const std::string& pred = cat->predicates.Name(p);
    for (datalog::RowRef row : db.Scan(p)) {
      std::string line = pred;
      for (size_t i = 0; i < row.size(); ++i) {
        line += "|" + row[i].ToString(cat->symbols);
      }
      out.push_back(std::move(line));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

inline bool WriteEngineBenchJson(
    const std::string& path, const std::string& bench_name,
    const std::vector<EngineWorkloadReport>& workloads) {
  auto u64 = [](uint64_t v) { return Json::Int(static_cast<int64_t>(v)); };
  auto run = [&](const EngineRunReport& e) {
    Json j = Json::MakeObject();
    j.Set("seconds", Json::Double(e.seconds));
    j.Set("facts_per_sec", Json::Double(e.facts_per_sec));
    j.Set("join_probes", u64(e.join_probes));
    j.Set("plans_computed", u64(e.plans_computed));
    j.Set("plan_cache_hits", u64(e.plan_cache_hits));
    return j;
  };
  Json list = Json::MakeArray();
  for (const EngineWorkloadReport& r : workloads) {
    Json w = Json::MakeObject();
    w.Set("name", Json::Str(r.name));
    w.Set("facts_derived", u64(r.facts_derived));
    w.Set("planned", run(r.planned));
    w.Set("worst_case", run(r.worst_case));
    if (r.has_query_focus) {
      Json q = Json::MakeObject();
      q.Set("speedup", Json::Double(r.query_speedup));
      q.Set("facts_avoided", u64(r.query_facts_avoided));
      q.Set("fallback_count", u64(r.query_fallback_count));
      q.Set("estimated_cost", Json::Double(r.query_estimated_cost));
      q.Set("plan_us", u64(r.query_plan_us));
      q.Set("cost_ratio", Json::Double(r.query_cost_ratio));
      w.Set("query_focus", std::move(q));
    }
    Json plans = Json::MakeArray();
    for (const std::string& p : r.plans) plans.Append(Json::Str(p));
    w.Set("plans", std::move(plans));
    w.Set("agree", Json::Bool(r.agree));
    list.Append(std::move(w));
  }
  Json doc = Json::MakeObject();
  doc.Set("schema_version", Json::Int(1));
  doc.Set("bench", Json::Str(bench_name));
  doc.Set("workloads", std::move(list));
  if (Status st = WriteJsonFile(path, doc); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace vadalink::bench
