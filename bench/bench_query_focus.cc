// Query-focus benchmark: goal-directed evaluation (Engine::Query — magic
// sets + dataflow pruning, DESIGN.md section 12) against full saturation
// on the paper's control and close-link programs over Barabási–Albert
// ownership graphs.
//
// For each workload the goal is the largest node that actually appears
// as the first argument of a goal fact under saturation (a long-tail
// company, not the hub — see RunSaturation), and both modes run at 1 and
// 8 threads. "agree" asserts the rendered goal answers are
// byte-identical across all four runs — Query(goal) must return exactly
// the goal-matching subset of the saturation fact set at every thread
// count. The process exits non-zero on any mismatch, so CI runs double as
// a correctness cross-check.
//
// `--engine-json FILE` emits the BENCH_engine.json document with the
// per-workload "query_focus" block (speedup, facts_avoided,
// fallback_count); see bench/engine_bench_json.h and
// tools/schemas/engine_bench.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/engine_bench_json.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/magic.h"
#include "datalog/parser.h"
#include "gen/barabasi_albert.h"

using namespace vadalink;

namespace {

struct Workload {
  const char* name;
  size_t nodes;
  size_t edges_per_node;
  uint64_t seed;
  std::string rules;
  const char* goal_pred;  // binary predicate queried as pred(c, X)
};

std::vector<Workload> Workloads() {
  return {
      {"control_1000", 1000, 2, 3, core::ControlProgram(), "control"},
      {"closelink_600", 600, 1, 17, core::CloseLinkProgram(0.2, 8),
       "closelink"},
  };
}

std::string RenderTuple(const char* pred, const std::vector<datalog::Value>& t,
                        const datalog::SymbolTable& symbols) {
  std::string line = pred;
  for (const datalog::Value& v : t) line += "|" + v.ToString(symbols);
  return line;
}

/// Full saturation at `threads`; fills the run report and the sorted
/// rendered goal answers for goal_pred(goal_node, _). goal_node < 0 picks
/// (and returns) the LARGEST first argument over all goal facts: in a
/// Barabási–Albert graph the lowest ids are the hubs whose ownership cone
/// spans most of the graph, while late nodes are the low-degree long tail
/// that makes up almost all of a scale-free register — the typical target
/// of a keyed serve query, and the case demand-driven evaluation is for.
int RunSaturation(const Workload& w, const graph::PropertyGraph& g,
                  size_t threads, int64_t* goal_node,
                  bench::EngineRunReport* report, uint64_t* facts,
                  std::vector<std::string>* answers) {
  datalog::Catalog catalog;
  datalog::Database db(&catalog);
  if (auto st = core::LoadGraphFacts(g, &db); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
    return 1;
  }
  auto program = datalog::ParseProgram(w.rules, &catalog);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return 1;
  }
  ParallelOptions par;
  par.threads = threads;
  auto pool = MakeThreadPool(par);
  datalog::EngineOptions opts;
  opts.pool = pool.get();
  datalog::Engine engine(&db, opts);
  WallTimer timer;
  if (auto st = engine.Run(*program); !st.ok()) {
    std::fprintf(stderr, "engine: %s\n", st.ToString().c_str());
    return 1;
  }
  report->seconds = timer.ElapsedSeconds();
  const datalog::EngineStats& stats = engine.stats();
  *facts = stats.facts_derived;
  report->facts_per_sec =
      report->seconds > 0
          ? static_cast<double>(stats.facts_derived) / report->seconds
          : 0.0;
  report->join_probes = stats.join_probes;
  report->plans_computed = stats.plans_computed;
  report->plan_cache_hits = stats.plan_cache_hits;

  uint32_t pred = catalog.predicates.Lookup(w.goal_pred);
  if (pred == UINT32_MAX) {
    std::fprintf(stderr, "error: %s derived no facts\n", w.goal_pred);
    return 1;
  }
  if (*goal_node < 0) {
    for (datalog::RowRef t : db.Scan(pred)) {
      if (t.size() == 2 && t[0].is_int() && t[0].AsInt() > *goal_node) {
        *goal_node = t[0].AsInt();
      }
    }
    if (*goal_node < 0) {
      std::fprintf(stderr, "error: no integer %s facts\n", w.goal_pred);
      return 1;
    }
  }
  answers->clear();
  for (datalog::RowRef t : db.Scan(pred)) {
    if (t.size() == 2 && t[0].is_int() && t[0].AsInt() == *goal_node) {
      answers->push_back(
          RenderTuple(w.goal_pred, t.ToTuple(), catalog.symbols));
    }
  }
  std::sort(answers->begin(), answers->end());
  return 0;
}

/// Goal-directed run at `threads`; fills the run report, the sorted
/// rendered answers, and whether the magic-set rewrite fell back.
int RunQuery(const Workload& w, const graph::PropertyGraph& g, size_t threads,
             int64_t goal_node, bench::EngineRunReport* report,
             uint64_t* facts, std::vector<std::string>* answers,
             bool* fell_back, std::vector<std::string>* plans,
             double* estimated_cost = nullptr, uint64_t* plan_us = nullptr) {
  datalog::Catalog catalog;
  datalog::Database db(&catalog);
  if (auto st = core::LoadGraphFacts(g, &db); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
    return 1;
  }
  auto program = datalog::ParseProgram(w.rules, &catalog);
  if (!program.ok()) {
    std::fprintf(stderr, "parse: %s\n", program.status().ToString().c_str());
    return 1;
  }
  auto goal = datalog::ParseQueryGoal(
      std::string(w.goal_pred) + "(" + std::to_string(goal_node) + ", X)",
      &catalog);
  if (!goal.ok()) {
    std::fprintf(stderr, "goal: %s\n", goal.status().ToString().c_str());
    return 1;
  }
  ParallelOptions par;
  par.threads = threads;
  auto pool = MakeThreadPool(par);
  datalog::EngineOptions opts;
  opts.pool = pool.get();
  datalog::Engine engine(&db, opts);
  WallTimer timer;
  auto rep = engine.Query(*program, *goal);
  if (!rep.ok()) {
    std::fprintf(stderr, "query: %s\n", rep.status().ToString().c_str());
    return 1;
  }
  report->seconds = timer.ElapsedSeconds();
  const datalog::EngineStats& stats = engine.stats();
  *facts = stats.facts_derived;
  report->facts_per_sec =
      report->seconds > 0
          ? static_cast<double>(stats.facts_derived) / report->seconds
          : 0.0;
  report->join_probes = stats.join_probes;
  report->plans_computed = stats.plans_computed;
  report->plan_cache_hits = stats.plan_cache_hits;
  *fell_back = !rep->rewritten;
  if (estimated_cost != nullptr) *estimated_cost = rep->estimated_cost;
  if (plan_us != nullptr) *plan_us = rep->plan_us;
  if (plans != nullptr) *plans = engine.PlanSummaries();
  answers->clear();
  for (const auto& t : rep->answers) {
    answers->push_back(RenderTuple(w.goal_pred, t, catalog.symbols));
  }
  std::sort(answers->begin(), answers->end());
  return 0;
}

int RunSuite(const std::string& json_path) {
  std::vector<bench::EngineWorkloadReport> reports;
  for (const Workload& w : Workloads()) {
    gen::BarabasiAlbertConfig ba;
    ba.nodes = w.nodes;
    ba.edges_per_node = w.edges_per_node;
    ba.seed = w.seed;
    auto g = gen::GenerateBarabasiAlbert(ba);

    bench::EngineWorkloadReport r;
    r.name = w.name;
    int64_t goal_node = -1;
    uint64_t sat_facts = 0, sat_facts_mt = 0, q_facts = 0, q_facts_mt = 0;
    bool fell_back = false, fell_back_mt = false;
    std::vector<std::string> sat1, sat8, q1, q8;
    bench::EngineRunReport sat_mt, q_mt;
    double estimated_cost = 0.0;
    uint64_t plan_us = 0;
    if (RunSaturation(w, g, 1, &goal_node, &r.worst_case, &sat_facts,
                      &sat1) != 0 ||
        RunSaturation(w, g, 8, &goal_node, &sat_mt, &sat_facts_mt, &sat8) !=
            0 ||
        RunQuery(w, g, 1, goal_node, &r.planned, &q_facts, &q1, &fell_back,
                 &r.plans, &estimated_cost, &plan_us) != 0 ||
        RunQuery(w, g, 8, goal_node, &q_mt, &q_facts_mt, &q8, &fell_back_mt,
                 nullptr) != 0) {
      return 1;
    }
    r.facts_derived = q_facts;
    r.agree = !q1.empty() && q1 == q8 && q1 == sat1 && q1 == sat8;
    r.has_query_focus = true;
    r.query_speedup = r.planned.seconds > 0
                          ? r.worst_case.seconds / r.planned.seconds
                          : 0.0;
    r.query_facts_avoided =
        sat_facts > q_facts ? sat_facts - q_facts : 0;
    r.query_fallback_count =
        (fell_back ? 1u : 0u) + (fell_back_mt ? 1u : 0u);
    // Estimated-vs-actual: the static estimate over the join probes the
    // planned query run actually issued (the work proxy the cost model
    // simulates). > 1 = the model over-estimated, < 1 = under-estimated.
    r.query_estimated_cost = estimated_cost;
    r.query_plan_us = plan_us;
    r.query_cost_ratio =
        estimated_cost /
        std::max(1.0, static_cast<double>(r.planned.join_probes));
    std::printf(
        "%-16s goal %s(%lld, X) | query %.4fs %6llu facts | saturation "
        "%.4fs %6llu facts | speedup %5.1fx | avoided %llu | agree %s\n",
        w.name, w.goal_pred, static_cast<long long>(goal_node),
        r.planned.seconds, static_cast<unsigned long long>(q_facts),
        r.worst_case.seconds, static_cast<unsigned long long>(sat_facts),
        r.query_speedup,
        static_cast<unsigned long long>(r.query_facts_avoided),
        r.agree ? "yes" : "NO!");
    reports.push_back(std::move(r));
  }
  if (!json_path.empty() &&
      !bench::WriteEngineBenchJson(json_path, "query_focus", reports)) {
    return 1;
  }
  for (const auto& r : reports) {
    if (!r.agree) {
      std::fprintf(stderr,
                   "FAIL: %s goal answers differ between query and "
                   "saturation runs\n",
                   r.name.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--engine-json") == 0) json_path = argv[i + 1];
  }
  bench::Header("Query focus: magic-set Engine::Query vs full saturation");
  return RunSuite(json_path);
}
