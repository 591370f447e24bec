// Chase-memory benchmark: the space-bounded streaming chase
// (EngineOptions::streaming, DESIGN.md section 13) against the ordinary
// keep-everything chase, over Barabási–Albert ownership graphs.
//
// Three workloads cover the three memory mechanisms:
//   * control   — Algorithm 5; every derived predicate passes the
//                 evictability analysis, so the run is pure delta
//                 eviction.
//   * closelink — Algorithm 6; walk/closelink evict while the aggregate
//                 head accown (read twice by the third-party rule) is
//                 pinned resident — the analysis must keep it.
//   * officers  — a warded existential cascade: one labeled-null officer
//                 per company propagated down the ownership DAG, plus an
//                 audit rule whose frontier is the bare null. The pattern
//                 memo collapses its isomorphic re-firings to one.
//
// Each workload runs full and streaming at 1 and 8 threads. "identical"
// asserts the rendered @output answer sets — resident rows plus rows
// streamed through evict_sink — are byte-identical across all four runs;
// the process exits non-zero on any mismatch, so CI runs double as a
// correctness cross-check (the sanitizer job runs this under ASan).
// For the two null-free workloads the total fact count (resident +
// evicted) must also match the full chase exactly.
//
// `--json FILE` (default BENCH_chase_memory.json) emits the document
// that tools/check_json.py validates against
// tools/schemas/chase_memory.json: per-workload peak resident facts,
// evicted rows and memo hit rate, plus the suite-level peak ratio the
// paper-scale claim is stated over (`--nodes 1000000`).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "gen/barabasi_albert.h"

using namespace vadalink;

namespace {

/// Warded existential cascade over the ownership relation: every company
/// appoints a labeled-null officer, officers follow ownership edges, and
/// each officer (a bare-null frontier) triggers an audit — the shape the
/// pattern memo exists for. The ground output is unaffected by memoization.
std::string OfficerProgram() {
  return R"(
company(X) -> officer(X, N).
officer(X, N), own(X, Y, W) -> officer(Y, N).
officer(X, N) -> audit(N, M).
officer(X, N) -> overseen(X).
@output("overseen").
)";
}

struct Workload {
  const char* name;
  size_t nodes;           // default; overridden by --nodes
  size_t edges_per_node;
  uint64_t seed;
  std::string rules;
  const char* output_pred;
  bool same_totals;  // null-free: streaming totals must equal full totals
};

std::vector<Workload> Workloads(size_t nodes_override) {
  std::vector<Workload> w = {
      {"control", 4000, 2, 3, core::ControlProgram(0.1), "control", true},
      {"closelink", 3000, 1, 17, core::CloseLinkProgram(0.05, 12),
       "closelink", true},
      {"officers", 4000, 2, 29, OfficerProgram(), "overseen", false},
  };
  if (nodes_override > 0) {
    for (Workload& x : w) x.nodes = nodes_override;
  }
  return w;
}

struct RunResult {
  size_t peak_resident = 0;
  size_t total_facts = 0;
  size_t evicted_rows = 0;
  size_t memo_queries = 0;
  size_t memo_hits = 0;
  double seconds = 0;
  std::vector<std::string> answers;  // sorted rendered output facts
};

/// One chase over a fresh database; streaming runs route every evicted
/// @output row through the sink, so `answers` is the union of sunk and
/// still-resident output rows — the streaming run's complete answer set.
int RunChase(const Workload& w, const graph::PropertyGraph& g, bool streaming,
             size_t threads, RunResult* out) {
  datalog::Catalog catalog;
  datalog::Database db(&catalog);
  core::MappingOptions map_opts;
  map_opts.predicates = core::DomainPredicates();  // minimal EDB
  if (auto st = core::LoadGraphFacts(g, &db, map_opts); !st.ok()) {
    std::fprintf(stderr, "load: %s\n", st.status().ToString().c_str());
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

  const uint32_t out_pred = catalog.predicates.Intern(w.output_pred);
  std::vector<std::string> sunk;
  datalog::EngineOptions opts;
  opts.pool = pool.get();
  opts.streaming = streaming;
  // The paper-scale run (--nodes 1000000) derives beyond the default
  // 50M-fact safety limit; the workloads here are known to terminate.
  opts.max_facts = static_cast<size_t>(4) << 30;
  if (streaming) {
    opts.evict_sink = [&](uint32_t pred, const datalog::Value* vals,
                          size_t n) {
      if (pred != out_pred) return;
      std::string line = w.output_pred;
      for (size_t i = 0; i < n; ++i) {
        line += "|" + vals[i].ToString(catalog.symbols);
      }
      sunk.push_back(std::move(line));
    };
  }
  datalog::Engine engine(&db, opts);
  WallTimer timer;
  if (auto st = engine.Run(*program); !st.ok()) {
    std::fprintf(stderr, "engine: %s\n", st.ToString().c_str());
    return 1;
  }
  out->seconds = timer.ElapsedSeconds();
  const datalog::EngineStats& stats = engine.stats();
  out->peak_resident = stats.peak_resident_facts;
  out->total_facts = db.TotalFacts();
  out->evicted_rows = stats.evicted_rows;
  out->memo_queries = stats.memo_queries;
  out->memo_hits = stats.memo_hits;

  out->answers = std::move(sunk);
  for (datalog::RowRef row : db.Scan(out_pred)) {
    std::string line = w.output_pred;
    for (size_t i = 0; i < row.size(); ++i) {
      line += "|" + row[i].ToString(catalog.symbols);
    }
    out->answers.push_back(std::move(line));
  }
  std::sort(out->answers.begin(), out->answers.end());
  return 0;
}

double HitRate(const RunResult& r) {
  return r.memo_queries > 0 ? static_cast<double>(r.memo_hits) /
                                  static_cast<double>(r.memo_queries)
                            : 0.0;
}

struct WorkloadReport {
  std::string name;
  size_t nodes = 0;
  RunResult full;       // 1 thread
  RunResult streaming;  // 1 thread
  double ratio = 0;     // streaming peak / full peak
  bool identical = false;
};

int RunSuite(const std::string& json_path, size_t nodes_override) {
  std::vector<WorkloadReport> reports;
  bool all_identical = true;
  size_t suite_full_peak = 0, suite_streaming_peak = 0;

  for (const Workload& w : Workloads(nodes_override)) {
    gen::BarabasiAlbertConfig ba;
    ba.nodes = w.nodes;
    ba.edges_per_node = w.edges_per_node;
    ba.seed = w.seed;
    auto g = gen::GenerateBarabasiAlbert(ba);

    WorkloadReport r;
    r.name = w.name;
    r.nodes = w.nodes;
    RunResult full_mt, streaming_mt;
    if (RunChase(w, g, /*streaming=*/false, 1, &r.full) != 0 ||
        RunChase(w, g, /*streaming=*/false, 8, &full_mt) != 0 ||
        RunChase(w, g, /*streaming=*/true, 1, &r.streaming) != 0 ||
        RunChase(w, g, /*streaming=*/true, 8, &streaming_mt) != 0) {
      return 1;
    }
    r.identical = !r.full.answers.empty() &&
                  r.full.answers == full_mt.answers &&
                  r.full.answers == r.streaming.answers &&
                  r.full.answers == streaming_mt.answers;
    if (w.same_totals &&
        (r.streaming.total_facts != r.full.total_facts ||
         streaming_mt.total_facts != full_mt.total_facts)) {
      std::fprintf(stderr,
                   "FAIL: %s streaming derived a different fact count "
                   "(%zu vs %zu) on a null-free program\n",
                   w.name, r.streaming.total_facts, r.full.total_facts);
      r.identical = false;
    }
    r.ratio = r.full.peak_resident > 0
                  ? static_cast<double>(r.streaming.peak_resident) /
                        static_cast<double>(r.full.peak_resident)
                  : 0.0;
    suite_full_peak += r.full.peak_resident;
    suite_streaming_peak += r.streaming.peak_resident;
    all_identical = all_identical && r.identical;

    bench::Row(
        "%-10s n=%-7zu | full peak %8zu | streaming peak %8zu (ratio "
        "%.2f) | evicted %8zu | memo %zu/%zu (%.2f) | identical %s",
        w.name, w.nodes, r.full.peak_resident, r.streaming.peak_resident,
        r.ratio, r.streaming.evicted_rows, r.streaming.memo_hits,
        r.streaming.memo_queries, HitRate(r.streaming),
        r.identical ? "yes" : "NO!");
    reports.push_back(std::move(r));
  }

  const double suite_ratio =
      suite_full_peak > 0 ? static_cast<double>(suite_streaming_peak) /
                                static_cast<double>(suite_full_peak)
                          : 0.0;
  bench::Row("suite: streaming peak %zu / full peak %zu = %.2f (bound 0.50)",
             suite_streaming_peak, suite_full_peak, suite_ratio);

  if (!json_path.empty()) {
    auto count = [](size_t v) { return Json::Int(static_cast<int64_t>(v)); };
    Json workloads = Json::MakeArray();
    for (const WorkloadReport& r : reports) {
      Json full = Json::MakeObject();
      full.Set("peak_resident_facts", count(r.full.peak_resident));
      full.Set("total_facts", count(r.full.total_facts));
      full.Set("seconds", Json::Double(r.full.seconds));
      Json streaming = Json::MakeObject();
      streaming.Set("peak_resident_facts", count(r.streaming.peak_resident));
      streaming.Set("total_facts", count(r.streaming.total_facts));
      streaming.Set("evicted_rows", count(r.streaming.evicted_rows));
      streaming.Set("memo_queries", count(r.streaming.memo_queries));
      streaming.Set("memo_hits", count(r.streaming.memo_hits));
      streaming.Set("memo_hit_rate", Json::Double(HitRate(r.streaming)));
      streaming.Set("seconds", Json::Double(r.streaming.seconds));
      Json w = Json::MakeObject();
      w.Set("name", Json::Str(r.name));
      w.Set("nodes", count(r.nodes));
      w.Set("full", std::move(full));
      w.Set("streaming", std::move(streaming));
      w.Set("ratio", Json::Double(r.ratio));
      w.Set("identical", Json::Bool(r.identical));
      workloads.Append(std::move(w));
    }
    Json suite = Json::MakeObject();
    suite.Set("full_peak_resident_facts", count(suite_full_peak));
    suite.Set("streaming_peak_resident_facts", count(suite_streaming_peak));
    suite.Set("ratio", Json::Double(suite_ratio));
    suite.Set("bound", Json::Double(0.5));
    suite.Set("within_bound", Json::Bool(suite_ratio <= 0.5));
    Json doc = Json::MakeObject();
    doc.Set("schema_version", Json::Int(1));
    doc.Set("bench", Json::Str("chase_memory"));
    doc.Set("workloads", std::move(workloads));
    doc.Set("suite", std::move(suite));
    if (Status st = WriteJsonFile(json_path, doc); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: streaming and full chase disagree on an answer "
                 "set\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_chase_memory.json";
  size_t nodes = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10));
    }
  }
  bench::Header("Chase memory: streaming (evicting) vs full chase");
  return RunSuite(json_path, nodes);
}
