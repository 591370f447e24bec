// A1 — ablation: the declarative (Datalog± engine) execution of the
// paper's programs against the compiled C++ implementations, on the same
// inputs. Checks that both paths agree and reports the runtime cost of
// declarativity ("20-30 lines of Vadalog vs 1k+ lines of code", Section 5 —
// the trade-off is expressiveness vs raw speed).
// `--engine-json FILE` instead runs the two programs at reduced sizes
// under both join orders and emits the BENCH_engine.json document (see
// bench/engine_bench_json.h).
#include <cstdio>
#include <cstring>
#include <set>

#include "bench/bench_util.h"
#include "bench/engine_bench_json.h"
#include "common/timer.h"
#include "company/close_link.h"
#include "company/control.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "gen/barabasi_albert.h"

using namespace vadalink;

namespace {

// One declarative run of a pre-parsed program over a pre-generated graph;
// graph generation and parsing stay outside the timed region (the chase —
// fact loading included, since the engine re-extracts facts per run — is
// what the report measures).
int RunGraphWorkload(const graph::PropertyGraph& g, datalog::Catalog* catalog,
                     const datalog::Program& program, datalog::JoinOrder order,
                     bench::EngineRunReport* report, uint64_t* facts,
                     std::vector<std::string>* plans,
                     std::vector<std::string>* fingerprint) {
  datalog::Database db(catalog);
  if (auto st = core::LoadGraphFacts(g, &db); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
    return 1;
  }
  datalog::EngineOptions opts;
  opts.join_order = order;
  datalog::Engine engine(&db, opts);
  WallTimer timer;
  if (auto st = engine.Run(program); !st.ok()) {
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
  if (plans != nullptr) *plans = engine.PlanSummaries();
  if (fingerprint != nullptr) *fingerprint = bench::DatabaseFingerprint(db);
  return 0;
}

int EmitEngineJson(const std::string& path) {
  struct Workload {
    const char* name;
    size_t nodes;
    size_t edges_per_node;
    uint64_t seed;
    std::string rules;
  };
  const Workload workloads[] = {
      {"control_300", 300, 2, 3, core::ControlProgram()},
      {"closelink_100", 100, 1, 17, core::CloseLinkProgram(0.2, 8)},
  };
  std::vector<bench::EngineWorkloadReport> reports;
  for (const Workload& w : workloads) {
    bench::EngineWorkloadReport r;
    r.name = w.name;
    gen::BarabasiAlbertConfig ba;
    ba.nodes = w.nodes;
    ba.edges_per_node = w.edges_per_node;
    ba.seed = w.seed;
    auto g = gen::GenerateBarabasiAlbert(ba);
    datalog::Catalog catalog;
    auto program = datalog::ParseProgram(w.rules, &catalog);
    if (!program.ok()) {
      std::fprintf(stderr, "parse: %s\n",
                   program.status().ToString().c_str());
      return 1;
    }
    uint64_t planned_facts = 0, worst_facts = 0;
    std::vector<std::string> planned_fp, worst_fp;
    if (RunGraphWorkload(g, &catalog, *program, datalog::JoinOrder::kPlanned,
                         &r.planned, &planned_facts, &r.plans,
                         &planned_fp) != 0 ||
        RunGraphWorkload(g, &catalog, *program,
                         datalog::JoinOrder::kWorstCase, &r.worst_case,
                         &worst_facts, nullptr, &worst_fp) != 0) {
      return 1;
    }
    r.facts_derived = planned_facts;
    r.agree = planned_facts == worst_facts && planned_fp == worst_fp;
    std::printf(
        "%-16s facts %8llu | planned %8.0f f/s %9llu probes | "
        "worst %8.0f f/s %9llu probes | agree %s\n",
        w.name, static_cast<unsigned long long>(planned_facts),
        r.planned.facts_per_sec,
        static_cast<unsigned long long>(r.planned.join_probes),
        r.worst_case.facts_per_sec,
        static_cast<unsigned long long>(r.worst_case.join_probes),
        r.agree ? "yes" : "NO!");
    reports.push_back(std::move(r));
  }
  if (!bench::WriteEngineBenchJson(path, "ablation_engine", reports)) {
    return 1;
  }
  for (const auto& r : reports) {
    if (!r.agree) {
      std::fprintf(stderr, "FAIL: %s fact sets differ across join orders\n",
                   r.name.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--engine-json") == 0) {
      return EmitEngineJson(argv[i + 1]);
    }
  }
  bench::Header("Ablation A1: declarative (Datalog) vs compiled reasoning");

  // ---- company control ------------------------------------------------------
  std::printf("company control (Definition 2.3):\n");
  std::printf("%8s %10s %14s %14s %10s %8s\n", "nodes", "edges",
              "datalog_s", "compiled_s", "edges_out", "agree");
  for (size_t n : {100, 300, 1000, 3000}) {
    gen::BarabasiAlbertConfig ba;
    ba.nodes = n;
    ba.edges_per_node = 2;
    ba.seed = 3;
    auto g = gen::GenerateBarabasiAlbert(ba);

    datalog::Catalog catalog;
    datalog::Database db(&catalog);
    if (auto st = core::LoadGraphFacts(g, &db); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
      return 1;
    }
    auto program = datalog::ParseProgram(core::ControlProgram(), &catalog);
    datalog::Engine engine(&db);
    WallTimer timer;
    if (auto st = engine.Run(*program); !st.ok()) {
      std::fprintf(stderr, "engine: %s\n", st.ToString().c_str());
      return 1;
    }
    double datalog_s = timer.ElapsedSeconds();
    std::set<std::pair<int64_t, int64_t>> declarative;
    for (datalog::RowRef t : db.Scan("control")) {
      declarative.insert({t[0].AsInt(), t[1].AsInt()});
    }

    timer.Restart();
    auto cg = company::CompanyGraph::FromPropertyGraph(g).value();
    auto edges = company::AllControlEdges(cg);
    double compiled_s = timer.ElapsedSeconds();
    std::set<std::pair<int64_t, int64_t>> compiled;
    for (const auto& e : edges) compiled.insert({e.controller, e.controlled});

    bench::Row("%8zu %10zu %14.4f %14.4f %10zu %8s", n, g.edge_count(),
               datalog_s, compiled_s, compiled.size(),
               declarative == compiled ? "yes" : "NO!");
  }

  // ---- close links ------------------------------------------------------------
  std::printf("\nclose links (Definition 2.6, walk-sum semantics, depth 8):\n");
  std::printf("%8s %10s %14s %14s %10s %8s\n", "nodes", "edges",
              "datalog_s", "compiled_s", "pairs_out", "agree");
  for (size_t n : {50, 100, 200, 400}) {
    gen::BarabasiAlbertConfig ba;
    ba.nodes = n;
    ba.edges_per_node = 1;  // sparse: walk enumeration is exponential-ish
    ba.seed = 17;
    auto g = gen::GenerateBarabasiAlbert(ba);

    datalog::Catalog catalog;
    datalog::Database db(&catalog);
    if (auto st = core::LoadGraphFacts(g, &db); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.status().ToString().c_str());
      return 1;
    }
    auto program =
        datalog::ParseProgram(core::CloseLinkProgram(0.2, 8), &catalog);
    datalog::Engine engine(&db);
    WallTimer timer;
    if (auto st = engine.Run(*program); !st.ok()) {
      std::fprintf(stderr, "engine: %s\n", st.ToString().c_str());
      return 1;
    }
    double datalog_s = timer.ElapsedSeconds();
    std::set<std::pair<int64_t, int64_t>> declarative;
    for (datalog::RowRef t : db.Scan("closelink")) {
      int64_t a = t[0].AsInt(), b = t[1].AsInt();
      declarative.insert({std::min(a, b), std::max(a, b)});
    }

    timer.Restart();
    auto cg = company::CompanyGraph::FromPropertyGraph(g).value();
    company::CloseLinkConfig cl;
    cl.exact_paths = false;
    cl.ownership.max_depth = 8;
    auto links = company::AllCloseLinks(cg, cl);
    double compiled_s = timer.ElapsedSeconds();
    std::set<std::pair<int64_t, int64_t>> compiled;
    for (const auto& e : links) {
      compiled.insert({std::min(e.x, e.y), std::max(e.x, e.y)});
    }

    bench::Row("%8zu %10zu %14.4f %14.4f %10zu %8s", n, g.edge_count(),
               datalog_s, compiled_s, compiled.size(),
               declarative == compiled ? "yes" : "NO!");
  }
  std::printf("\n(the compiled path is 1-3 orders of magnitude faster; the "
              "declarative path buys 20-30 line programs, schema "
              "independence and provenance)\n");
  return 0;
}
