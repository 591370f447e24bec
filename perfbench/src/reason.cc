// Workload `reason`: core::KnowledgeGraph::Reason over the paper's control,
// close-link (depth 8) and family-control programs on a register about ten
// times augment's. Every repetition uses a fresh KG; repetitions alternate
// a 1-thread engine with a pool, so both rule evaluators run (EvalRule and
// ParallelEvalRule).
#include <algorithm>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "core/knowledge_graph.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/analysis/analyzer.h"
#include "datalog/engine.h"
#include "datalog/parser.h"
#include "gen/register_simulator.h"

namespace perfbench {

namespace core = vadalink::core;
namespace datalog = vadalink::datalog;
using vadalink::MetricsRegistry;

namespace {

std::string Programs() {
  return core::ControlProgram() + core::CloseLinkProgram(0.2, 8) +
         core::FamilyControlProgram();
}

/// A fresh KG over a copy of `g` with the three programs parsed.
std::unique_ptr<core::KnowledgeGraph> BuildKg(
    const vadalink::graph::PropertyGraph& g, Report* r) {
  auto kg = std::make_unique<core::KnowledgeGraph>();
  *kg->mutable_graph() = g;
  for (const std::string& p :
       {core::ControlProgram(), core::CloseLinkProgram(0.2, 8),
        core::FamilyControlProgram()}) {
    if (auto st = kg->AddRules(p); !st.ok()) {
      r->Fail("reason: rules do not parse: " + st.ToString());
    }
  }
  return kg;
}

}  // namespace

void AddReasonLayers(const vadalink::graph::PropertyGraph& g,
                     const std::string& program_source, MetricsRegistry& reg,
                     double runs, SpanLog* log,
                     Report* r, std::vector<LayerRow>* rows,
                     std::vector<CounterRow>* counters) {
  double load_s = 0.0, analysis_s = 0.0, store_s = 0.0;
  datalog::Catalog cat;
  datalog::Database db(&cat);
  {
    SpanLog::Scope span(log, "core.LoadGraphFacts");
    Clock::time_point t0 = Clock::now();
    if (!core::LoadGraphFacts(g, &db).ok()) r->Fail("LoadGraphFacts failed");
    load_s = SecondsSince(t0);
  }
  auto program = datalog::ParseProgram(program_source, &cat);
  if (!program.ok()) {
    r->Fail("rule program does not parse");
  } else {
    {
      SpanLog::Scope span(log, "datalog.AnalyzeProgram");
      Clock::time_point t0 = Clock::now();
      (void)datalog::analysis::AnalyzeProgram(*program, cat);
      analysis_s = SecondsSince(t0);
    }
    datalog::Engine engine(&db);
    if (engine.Run(*program).ok()) {
      vadalink::graph::PropertyGraph copy = g;
      SpanLog::Scope span(log, "core.StorePredictedLinks");
      Clock::time_point t0 = Clock::now();
      (void)core::StorePredictedLinks(db, &copy);
      store_s = SecondsSince(t0);
    }
  }

  auto per = [&](double v) { return runs > 0 ? v / runs : 0.0; };
  auto counter = [&](const char* name) {
    return per(static_cast<double>(reg.CounterValue(name)));
  };
  const double reason_total = per(RegistrySeconds(reg, "reason"));
  const double chase = per(RegistrySeconds(reg, "reason/chase"));
  const double matches = counter("engine.body_matches");
  const double facts = counter("engine.facts_derived");
  const double probes = counter("engine.plan.probes");
  const vadalink::MetricsHistogram* delta = reg.Histogram("engine.delta.size");
  const uint64_t delta_count = delta->count(), delta_sum = delta->sum();
  rows->insert(rows->end(),
               {{"core", "reason (1 thread, per Reason)", runs, reason_total,
                 reason_total - chase},
                {"datalog", "reason/chase (1 thread)", runs, chase, chase},
                {"core", "bench: LoadGraphFacts", 1, load_s, load_s},
                {"datalog", "bench: AnalyzeProgram", 1, analysis_s,
                 analysis_s},
                {"core", "bench: StorePredictedLinks", 1, store_s, store_s}});
  counters->insert(
      counters->end(),
      {{"datalog.facts_per_s", chase > 0 ? facts / chase : 0.0,
        "facts derived / chase span"},
       {"engine.iterations", counter("engine.iterations"), "per Reason"},
       {"engine.body_matches", matches, "per Reason"},
       {"engine.facts_derived", facts, "per Reason"},
       {"engine.plan.probes", probes, "per Reason"},
       {"engine.plan.computed", counter("engine.plan.computed"), "per Reason"},
       {"engine.plan.cache_hits", counter("engine.plan.cache_hits"),
        "per Reason"},
       {"engine.delta.size.count", per(static_cast<double>(delta_count)),
        "histogram count per Reason"},
       {"engine.delta.size.sum", per(static_cast<double>(delta_sum)),
        "histogram sum per Reason"},
       {"engine.derive_yield", matches > 0 ? facts / matches : 0.0,
        "facts derived / body matches"},
       {"engine.probes_per_fact", facts > 0 ? probes / facts : 0.0,
        "plan probes / facts derived"}});
  r->Emit("core.load_facts_s", load_s);
  r->Emit("core.store_links_s", store_s);
  r->Emit("datalog.analysis_s", analysis_s);
  r->Emit("datalog.chase_s", chase);
}

Report RunReason(const Options& opt) {
  const Sizes& sz = opt.sizes;
  Report r;
  SpanLog log(opt.trace);

  // ---- set-up: generation, KG build and rule parse (repeated) ----
  vadalink::gen::RegisterData data;
  const std::vector<double> setup = TimeSetup(sz, [&] {
    vadalink::gen::RegisterConfig rc;
    rc.persons = sz.reason_persons;
    rc.companies = CompaniesFor(rc.persons);
    rc.seed = opt.seed;
    data = vadalink::gen::GenerateRegister(rc);
    (void)BuildKg(data.graph, &r);
  });

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t pool = std::min(sz.pool_threads, hw);

  // ---- timed region ----
  // Cycle: 1 thread, pool (untraced); the traced run doubles the cycle with
  // traced copies of both so the overhead compares like with like.
  MetricsRegistry reg_one, reg_pool;
  std::vector<double> one_s, pool_s, one_traced_s;
  ReasonAnswer answer_one, answer_pool;
  bool have_one = false, have_pool = false;
  size_t facts_one = 0, links_one = 0;
  // Every repetition, either thread setting, on the one input slot.
  std::vector<std::pair<size_t, std::vector<uint64_t>>> counts;
  const size_t cycle = opt.trace ? 4 : 2;
  Clock::time_point start = Clock::now();
  for (size_t rep = 0; rep < 2 * cycle || SecondsSince(start) < opt.seconds;
       ++rep) {
    const bool use_pool = (rep % 2) == 1;
    const bool traced = opt.trace && (rep % 4) >= 2;
    auto kg = BuildKg(data.graph, &r);
    vadalink::ParallelOptions par;
    par.threads = use_pool ? pool : 1;
    kg->set_parallel(par);
    MetricsRegistry* reg =
        traced ? (use_pool ? &reg_pool : &reg_one) : nullptr;
    Clock::time_point t0 = Clock::now();
    auto stats = [&] {
      SpanLog::Scope span(traced ? &log : nullptr, "core.Reason");
      return kg->Reason(nullptr, reg);
    }();
    const double s = SecondsSince(t0);
    ++r.attempted;
    if (!stats.ok()) {
      ++r.failed;
      r.notes.push_back("Reason failed: " + stats.status().ToString());
      continue;
    }
    if (traced) {
      if (!use_pool) one_traced_s.push_back(s);
    } else {
      (use_pool ? pool_s : one_s).push_back(s);
    }
    if (!have_one && !use_pool) {
      have_one = true;
      answer_one = EngineAnswer(*kg);
      facts_one = stats->facts_after;
      links_one = stats->links_materialised;
    } else if (!have_pool && use_pool) {
      have_pool = true;
      answer_pool = EngineAnswer(*kg);
    }
    counts.push_back({0, {stats->facts_after, stats->links_materialised}});
  }

  // ---- output checks (untimed) ----
  ReasonAnswer oracle = OracleAnswer(data.graph);
  const size_t mismatches = OracleMismatches(answer_one, oracle);
  const double f1 = AnswerF1(answer_one, oracle);
  if (!have_one || !have_pool) r.Fail("reason: a thread setting never ran");
  if (!SameAnswer(answer_one, answer_pool)) {
    r.Fail("reason: the pool derives different control/closelink facts "
           "than the 1-thread engine");
  }
  if (size_t drift = RepetitionDrift(counts); drift > 0) {
    r.Fail("reason: " + std::to_string(drift) +
           " repetition(s) derived a different fact or link count");
  }
  if (oracle.control.empty() || oracle.closelink.empty()) {
    r.Fail("reason: the oracle found no control or close links");
  }

  const double setup_s = Median(setup);
  const double job_s = Median(one_s);
  const double job_par_s = Median(pool_s);
  const double rss = PeakRssMb();
  r.Show("setup_s", setup_s, "s", setup.size());
  r.Show("peak_rss_mb", rss, "MB");
  r.Show("job_s", job_s, "s", one_s.size());
  r.Show("job_par_s", job_par_s, "s", pool_s.size());
  r.Show("oracle_mismatches", static_cast<double>(mismatches), "count");
  r.notes.push_back("pool = " + std::to_string(pool) + " threads; " +
                    std::to_string(facts_one) + " facts after Reason, " +
                    std::to_string(links_one) + " links materialised");

  if (!opt.trace) {
    r.Emit("setup_s", setup_s);
    r.Emit("peak_rss_mb", rss);
    r.Emit("op_p50_ms", job_s * 1e3);
    r.Emit("ops_per_s", job_par_s > 0 ? 1.0 / job_par_s : 0.0);
    r.Emit("answer_f1", f1);
    return r;
  }

  // ---- traced run: layer probes and the per-layer table ----
  std::vector<LayerRow> rows;
  std::vector<CounterRow> counters;
  AddReasonLayers(data.graph, Programs(), reg_one,
                  static_cast<double>(one_traced_s.size()), &log, &r, &rows,
                  &counters);
  const double pool_runs = static_cast<double>(
      std::max<uint64_t>(1, reg_pool.SpanValue("reason/chase").count));
  const double chase_pool =
      RegistrySeconds(reg_pool, "reason/chase") / pool_runs;
  rows.push_back({"datalog", "reason/chase (pool)", pool_runs, chase_pool,
                  chase_pool});
  counters.push_back(
      {"trace.overhead", Median(one_traced_s) / Median(one_s) - 1.0,
       "median traced / untraced 1-thread Reason - 1 (n=" +
           std::to_string(one_traced_s.size()) + "/" +
           std::to_string(one_s.size()) + ")"});
  r.layer_table = LayerTable(rows, counters);
  r.Emit("oracle_mismatches", static_cast<double>(mismatches));
  for (const CounterRow& c : counters) r.Emit(c.name, c.value);
  if (!opt.trace_dir.empty() &&
      !log.Write(opt.trace_dir + "/reason-spans.json")) {
    r.notes.push_back("could not write the span list");
  }
  return r;
}

}  // namespace perfbench
