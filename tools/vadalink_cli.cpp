// vadalink — command-line driver for the library: generate synthetic
// registers, compute statistics, run the augmentation loop, query control /
// close links / UBOs, screen guarantors, and execute Vadalog programs over
// graphs stored as the CSV pair written by graph::SaveGraphCsv.
//
//   vadalink generate --persons 5000 --out reg
//   vadalink stats --in reg
//   vadalink augment --in reg --out reg_aug --rounds 2
//   vadalink control --in reg_aug --source 17
//   vadalink closelinks --in reg_aug --threshold 0.2
//   vadalink ubo --in reg_aug --target 42
//   vadalink screen --in reg_aug --borrower 3 --guarantor 9
//   vadalink reason --in reg --program rules.vada --query control
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "company/close_link.h"
#include "datalog/analysis/analyzer.h"
#include "datalog/parser.h"
#include "company/company_graph.h"
#include "company/control.h"
#include "company/eligibility.h"
#include "company/groups.h"
#include "core/knowledge_graph.h"
#include "core/mapping.h"
#include "core/pipeline_options.h"
#include "core/vada_link.h"
#include "gen/register_simulator.h"
#include "graph/graph_algorithms.h"
#include "graph/dot_export.h"
#include "graph/graph_io.h"
#include "gen/evolution.h"
#include "serve/server.h"
#include "tools/cli_flags.h"

using namespace vadalink;

namespace {

using cli::Flags;

int Fail(const Status& st) {
  std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
  return 1;
}

/// Returns a non-OK status if any typed getter saw a malformed value.
Status FlagErrors(const Flags& flags) {
  if (!flags.ok()) return Status::InvalidArgument(flags.error());
  return Status::OK();
}

/// Builds a RunContext from --deadline-ms / --max-facts; nullptr when
/// neither flag is set (unlimited run).
std::unique_ptr<RunContext> GovernorFromFlags(const Flags& flags) {
  if (!flags.Has("deadline-ms") && !flags.Has("max-facts")) return nullptr;
  auto ctx = std::make_unique<RunContext>();
  if (flags.Has("deadline-ms")) {
    ctx->set_deadline_after_ms(flags.GetInt("deadline-ms", 0));
  }
  if (flags.Has("max-facts")) {
    ctx->set_work_budget(
        static_cast<uint64_t>(flags.GetInt("max-facts", 0)));
  }
  return ctx;
}

/// Shared concurrency flags: --threads N (0 = hardware concurrency) and
/// --grain N (items per parallel chunk; 0 = auto).
ParallelOptions ParallelFromFlags(const Flags& flags) {
  ParallelOptions parallel;
  parallel.threads = static_cast<size_t>(flags.GetInt("threads", 1));
  parallel.grain = static_cast<size_t>(flags.GetInt("grain", 0));
  return parallel;
}

/// Shared observability flags (--metrics-json PATH, --trace 1,
/// --metrics-wall 1) into `opts`. Returns the owning registry when any of
/// them asked for one (opts->metrics borrows it), nullptr otherwise —
/// observability off costs nothing.
std::unique_ptr<MetricsRegistry> MetricsFromFlags(const Flags& flags,
                                                  core::PipelineOptions* opts) {
  opts->metrics_json_path = flags.Get("metrics-json", "");
  opts->trace = flags.Has("trace") && flags.GetInt("trace", 0) != 0;
  opts->metrics_wall =
      flags.Has("metrics-wall") && flags.GetInt("metrics-wall", 0) != 0;
  if (opts->metrics_json_path.empty() && !opts->trace) return nullptr;
  auto registry = std::make_unique<MetricsRegistry>();
  opts->metrics = registry.get();
  return registry;
}

/// Post-run emission: --trace report to stderr, --metrics-json document to
/// its file.
Status EmitMetrics(const core::PipelineOptions& opts) {
  if (opts.metrics == nullptr) return Status::OK();
  if (opts.trace) {
    std::fputs(opts.metrics->TraceReport().c_str(), stderr);
  }
  if (!opts.metrics_json_path.empty()) {
    MetricsJsonOptions json_opts;
    json_opts.include_timings = opts.metrics_wall;
    VL_RETURN_NOT_OK(WriteJsonFile(opts.metrics_json_path,
                                   opts.metrics->ToJson(json_opts)));
  }
  return Status::OK();
}

Result<graph::PropertyGraph> LoadIn(const Flags& flags) {
  std::string base = flags.Get("in", "");
  if (base.empty()) {
    return Status::InvalidArgument("missing --in <basename>");
  }
  return graph::LoadGraphCsv(base + "_nodes.csv", base + "_edges.csv");
}

Status SaveOut(const graph::PropertyGraph& g, const Flags& flags) {
  std::string base = flags.Get("out", "");
  if (base.empty()) {
    return Status::InvalidArgument("missing --out <basename>");
  }
  return graph::SaveGraphCsv(g, base + "_nodes.csv", base + "_edges.csv");
}

std::string NameOf(const graph::PropertyGraph& g, graph::NodeId n) {
  const auto& name = g.GetNodeProperty(n, "name");
  if (name.is_string()) return name.AsString();
  const auto& first = g.GetNodeProperty(n, "first_name");
  const auto& last = g.GetNodeProperty(n, "last_name");
  if (first.is_string() && last.is_string()) {
    return first.AsString() + " " + last.AsString();
  }
  return "#" + std::to_string(n);
}

// ---- subcommands -----------------------------------------------------------

int CmdGenerate(const Flags& flags) {
  gen::RegisterConfig cfg;
  cfg.persons = static_cast<size_t>(flags.GetInt("persons", 1000));
  cfg.companies = static_cast<size_t>(
      flags.GetInt("companies", static_cast<int64_t>(cfg.persons * 3 / 4)));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2020));
  cfg.share_density = flags.GetDouble("density", cfg.share_density);
  cfg.typo_rate = flags.GetDouble("typo-rate", cfg.typo_rate);
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  auto data = gen::GenerateRegister(cfg);
  if (Status st = SaveOut(data.graph, flags); !st.ok()) return Fail(st);
  std::printf("generated %zu persons, %zu companies, %zu shareholdings "
              "(%zu planted family links) -> %s_{nodes,edges}.csv\n",
              data.persons.size(), data.companies.size(),
              data.graph.edge_count(), data.true_family_links.size(),
              flags.Get("out", "").c_str());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  auto s = graph::ComputeGraphStats(*g);
  std::printf("nodes                  %zu\n", s.nodes);
  std::printf("edges                  %zu\n", s.edges);
  std::printf("SCCs                   %zu (largest %zu)\n", s.scc_count,
              s.largest_scc);
  std::printf("WCCs                   %zu (largest %zu, avg %.2f)\n",
              s.wcc_count, s.largest_wcc, s.avg_wcc_size);
  std::printf("avg degree             %.3f\n", s.avg_out_degree);
  std::printf("max in/out degree      %zu / %zu\n", s.max_in_degree,
              s.max_out_degree);
  std::printf("clustering coefficient %.5f\n", s.clustering_coefficient);
  std::printf("self-loops             %zu\n", s.self_loops);
  std::printf("power-law alpha        %.2f\n", s.power_law_alpha);
  return 0;
}

int CmdAugment(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  core::PipelineOptions opts;
  opts.parallel = ParallelFromFlags(flags);
  opts.augment.max_rounds = static_cast<size_t>(flags.GetInt("rounds", 2));
  opts.augment.use_embedding = !flags.Has("no-embedding");
  auto governor = GovernorFromFlags(flags);
  auto registry = MetricsFromFlags(flags, &opts);
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  if (Status st = opts.Validate(); !st.ok()) return Fail(st);
  auto vl = core::MakeDefaultVadaLink(opts.EffectiveAugment());
  auto stats = vl.Augment(&g.value(), governor.get(), opts.metrics);
  if (!stats.ok()) return Fail(stats.status());
  if (Status st = EmitMetrics(opts); !st.ok()) return Fail(st);
  if (Status st = SaveOut(*g, flags); !st.ok()) return Fail(st);
  std::printf("added %zu links in %zu rounds (%zu pairs compared; embed "
              "%.2fs, candidates %.2fs) -> %s_{nodes,edges}.csv\n",
              stats->links_added, stats->rounds, stats->pairs_compared,
              stats->embed_seconds, stats->candidate_seconds,
              flags.Get("out", "").c_str());
  if (stats->degraded_rounds > 0) {
    std::printf("degraded %zu round(s) to blocking-only (embedding stage "
                "over budget)\n", stats->degraded_rounds);
  }
  if (stats->truncated) {
    std::printf("stopped early: %s (%zu deadline hit(s)); links from "
                "completed work were kept\n",
                stats->interrupt.ToString().c_str(), stats->deadline_hits);
  }
  return 0;
}

int CmdControl(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  auto cg = company::CompanyGraph::FromPropertyGraph(*g);
  if (!cg.ok()) return Fail(cg.status());
  double threshold = flags.GetDouble("threshold", 0.5);
  if (flags.Has("source")) {
    auto src = static_cast<graph::NodeId>(flags.GetInt("source", 0));
    if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
    for (graph::NodeId y : company::ControlledBy(*cg, src, threshold)) {
      std::printf("%u (%s)\n", y, NameOf(*g, y).c_str());
    }
    return 0;
  }
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  auto edges = company::AllControlEdges(*cg, threshold);
  for (const auto& e : edges) {
    std::printf("%u -> %u   (%s -> %s)\n", e.controller, e.controlled,
                NameOf(*g, e.controller).c_str(),
                NameOf(*g, e.controlled).c_str());
  }
  std::printf("%zu control edges\n", edges.size());
  return 0;
}

int CmdCloseLinks(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  auto cg = company::CompanyGraph::FromPropertyGraph(*g);
  if (!cg.ok()) return Fail(cg.status());
  company::CloseLinkConfig cfg;
  cfg.threshold = flags.GetDouble("threshold", 0.2);
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  auto links = company::AllCloseLinks(*cg, cfg);
  for (const auto& e : links) {
    const char* why =
        e.reason == company::CloseLinkReason::kDirectOwnership
            ? "ownership"
            : "common third party";
    std::printf("%u -- %u   (%s; %s)\n", e.x, e.y,
                NameOf(*g, e.x).c_str(), why);
  }
  std::printf("%zu close links at threshold %.2f\n", links.size(),
              cfg.threshold);
  return 0;
}

int CmdUbo(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  auto cg = company::CompanyGraph::FromPropertyGraph(*g);
  if (!cg.ok()) return Fail(cg.status());
  if (!flags.Has("target")) {
    return Fail(Status::InvalidArgument("missing --target <node id>"));
  }
  auto target = static_cast<graph::NodeId>(flags.GetInt("target", 0));
  double threshold = flags.GetDouble("threshold", 0.25);
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  auto owners = company::UltimateOwnersOf(*cg, target, threshold);
  for (const auto& ubo : owners) {
    std::printf("%u (%s): %.1f%% integrated\n", ubo.person,
                NameOf(*g, ubo.person).c_str(),
                100.0 * ubo.integrated_ownership);
  }
  if (owners.empty()) std::printf("(dispersed ownership)\n");
  return 0;
}

int CmdScreen(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  auto cg = company::CompanyGraph::FromPropertyGraph(*g);
  if (!cg.ok()) return Fail(cg.status());
  if (!flags.Has("borrower") || !flags.Has("guarantor")) {
    return Fail(Status::InvalidArgument(
        "missing --borrower / --guarantor node ids"));
  }
  company::EligibilityConfig cfg;
  cfg.close_link.threshold = flags.GetDouble("threshold", 0.2);
  cfg.families = core::FamiliesFromGraph(*g);  // uses detected family edges
  auto borrower = static_cast<graph::NodeId>(flags.GetInt("borrower", 0));
  auto guarantor = static_cast<graph::NodeId>(flags.GetInt("guarantor", 0));
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  auto decision = company::ScreenGuarantor(*cg, borrower, guarantor, cfg);
  const char* verdict =
      decision.verdict == company::EligibilityVerdict::kEligible
          ? "ELIGIBLE"
          : decision.verdict ==
                    company::EligibilityVerdict::kIneligibleCloseLink
                ? "INELIGIBLE"
                : "FLAGGED";
  std::printf("%s: %s\n", verdict, decision.explanation.c_str());
  return decision.verdict == company::EligibilityVerdict::kEligible ? 0 : 2;
}

int CmdReason(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  std::string program_path = flags.Get("program", "");
  if (program_path.empty()) {
    return Fail(Status::InvalidArgument("missing --program <file.vada>"));
  }
  std::ifstream in(program_path);
  if (!in) {
    return Fail(Status::IoError("cannot open " + program_path));
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  auto governor = GovernorFromFlags(flags);
  core::PipelineOptions opts;
  opts.parallel = ParallelFromFlags(flags);
  auto registry = MetricsFromFlags(flags, &opts);
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  if (Status st = opts.Validate(); !st.ok()) return Fail(st);

  // --query with a parenthesised atom (e.g. --query 'control(3, X)')
  // switches to goal-directed evaluation: the program is magic-set
  // rewritten around the goal and the chase derives only goal-relevant
  // facts (DESIGN.md section 12). A bare predicate name keeps the
  // full-saturation run + scan below.
  std::string query = flags.Get("query", "");
  if (query.find('(') != std::string::npos) {
    datalog::Catalog cat;
    datalog::Database db(&cat);
    auto pool = MakeThreadPool(opts.parallel);
    datalog::EngineOptions eopts;
    eopts.run_ctx = governor.get();
    eopts.metrics = opts.metrics;
    eopts.pool = pool.get();
    datalog::Engine engine(&db, eopts);
    uint32_t goal_pred = 0;
    // Extract and chase under the spans of a saturating run (reason,
    // reason/extract, reason/chase), so both documents validate against
    // tools/schemas/metrics_reason.json. Like a saturating run, the
    // extraction loads only the mapped predicates the program mentions,
    // plus the goal's own predicate (LoadGraphFacts ignores it when it
    // is not a mapped one).
    auto run_query = [&]() -> Result<datalog::QueryReport> {
      ScopedSpan reason_span(opts.metrics, "reason", governor.get());
      VL_ASSIGN_OR_RETURN(datalog::Program program,
                          datalog::ParseProgram(ss.str(), &cat));
      VL_ASSIGN_OR_RETURN(datalog::QueryGoal goal,
                          datalog::ParseQueryGoal(query, &cat));
      goal_pred = goal.atom.predicate;
      {
        ScopedSpan extract_span(opts.metrics, "extract", governor.get());
        core::MappingOptions mapping;
        mapping.predicates = core::MappedPredicatesUsedBy(program, cat);
        mapping.predicates.insert(cat.predicates.Name(goal_pred));
        VL_RETURN_NOT_OK(
            core::LoadGraphFacts(g.value(), &db, mapping).status());
      }
      return engine.Query(program, goal);
    };
    auto report = run_query();
    if (!report.ok()) return Fail(report.status());
    if (Status st = EmitMetrics(opts); !st.ok()) return Fail(st);
    if (report->rewritten) {
      std::printf("magic-set rewrite: %zu adornments, %zu magic rules, "
                  "%zu rules pruned\n",
                  report->adornments, report->magic_rules,
                  report->rules_pruned);
    } else {
      std::printf("fallback to pruned saturation (%s), %zu rules pruned\n",
                  report->fallback_reason.empty()
                      ? "goal binds no arguments"
                      : report->fallback_reason.c_str(),
                  report->rules_pruned);
    }
    std::printf("derived %zu facts, %zu answers\n", report->facts_derived,
                report->answers.size());
    const std::string& pred = cat.predicates.Name(goal_pred);
    for (const auto& t : report->answers) {
      std::string line = pred + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) line += ", ";
        line += t[i].ToString(cat.symbols);
      }
      std::printf("%s)\n", line.c_str());
    }
    return 0;
  }

  core::KnowledgeGraph kg;
  kg.set_parallel(opts.parallel);
  *kg.mutable_graph() = std::move(g).value();
  if (Status st = kg.AddRules(ss.str()); !st.ok()) return Fail(st);
  // Unwarded / unstratifiable programs are rejected by the engine's
  // static-analysis pre-flight inside Reason(); 'vadalink lint' shows the
  // full diagnostics without running anything.
  auto stats = kg.Reason(governor.get(), opts.metrics);
  if (!stats.ok()) return Fail(stats.status());
  if (Status st = EmitMetrics(opts); !st.ok()) return Fail(st);
  std::printf("derived %zu facts (%zu -> %zu), materialised %zu links\n",
              stats->engine.facts_derived, stats->facts_before,
              stats->facts_after, stats->links_materialised);
  if (flags.Has("query")) {
    const std::string& pred = query;
    for (const auto& t : kg.Query(pred)) {
      std::string line = pred + "(";
      for (size_t i = 0; i < t.size(); ++i) {
        if (i > 0) line += ", ";
        line += t[i].ToString(kg.catalog().symbols);
      }
      std::printf("%s)\n", line.c_str());
    }
  }
  if (flags.Has("out")) {
    if (Status st = SaveOut(kg.graph(), flags); !st.ok()) return Fail(st);
  }
  return 0;
}

/// Static analysis of a Vadalog program without executing it. Human
/// diagnostics go to stdout; '--json -' / '--json FILE' emits the stable
/// JSON document (tools/schemas/lint.json) instead. Exit 0 = no errors
/// (warnings allowed), 1 = errors or I/O failure.
int CmdLint(const Flags& flags) {
  std::string program_path = flags.Get("program", "");
  if (program_path.empty()) {
    return Fail(Status::InvalidArgument("missing --program <file.vada>"));
  }
  std::ifstream in(program_path);
  if (!in) {
    return Fail(Status::IoError("cannot open " + program_path));
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  datalog::Catalog catalog;
  datalog::analysis::AnalysisReport report;
  auto program = datalog::ParseProgram(ss.str(), &catalog);
  if (program.ok()) {
    datalog::analysis::AnalyzerOptions opts;
    opts.cost = flags.Has("cost");
    opts.cost_options.rule_output_budget =
        flags.GetDouble("cost-budget", opts.cost_options.rule_output_budget);
    report = datalog::analysis::AnalyzeProgram(*program, catalog, opts);
  } else {
    // Surface the parse error as a diagnostic so '--json' consumers see
    // one document shape for every outcome.
    datalog::analysis::Diagnostic d;
    d.severity = datalog::analysis::Severity::kError;
    d.code = "VL000";
    d.message = program.status().message();
    unsigned line = 0, col = 0;
    if (std::sscanf(d.message.c_str(), "line %u, col %u", &line, &col) == 2) {
      d.span.line = line;
      d.span.col = col;
    }
    report.diagnostics.push_back(std::move(d));
  }

  if (flags.Has("json")) {
    Json doc = report.ToJson(program_path);
    std::string target = flags.Get("json", "-");
    if (target == "-") {
      std::printf("%s\n", doc.Dump().c_str());
    } else if (Status st = WriteJsonFile(target, doc); !st.ok()) {
      return Fail(st);
    }
  } else {
    std::string rendered = report.Render();
    std::fputs(rendered.c_str(), stdout);
    std::printf("%zu error(s), %zu warning(s)\n", report.error_count(),
                report.warning_count());
  }
  return report.has_errors() ? 1 : 0;
}

int CmdDot(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());
  std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::printf("%s", graph::ToDot(*g).c_str());
    return 0;
  }
  if (Status st = graph::WriteDotFile(*g, out); !st.ok()) return Fail(st);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdEvolve(const Flags& flags) {
  gen::EvolutionConfig cfg;
  cfg.initial.persons = static_cast<size_t>(flags.GetInt("persons", 1000));
  cfg.initial.companies = static_cast<size_t>(flags.GetInt(
      "companies", static_cast<int64_t>(cfg.initial.persons * 3 / 4)));
  cfg.first_year = static_cast<int>(flags.GetInt("from", 2005));
  cfg.last_year = static_cast<int>(flags.GetInt("to", 2018));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 2005));
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);
  std::string base = flags.Get("out", "");
  if (base.empty()) {
    return Fail(Status::InvalidArgument("missing --out <basename>"));
  }
  auto panel = gen::SimulateEvolution(cfg);
  for (const auto& snap : panel) {
    std::string year_base = base + "_" + std::to_string(snap.year);
    if (Status st = graph::SaveGraphCsv(snap.graph,
                                        year_base + "_nodes.csv",
                                        year_base + "_edges.csv");
        !st.ok()) {
      return Fail(st);
    }
  }
  std::printf("wrote %zu yearly snapshots (%d-%d) -> %s_YYYY_*.csv\n",
              panel.size(), cfg.first_year, cfg.last_year, base.c_str());
  return 0;
}

/// `vadalink serve` — resident reasoning server (DESIGN.md section 10).
/// Loads BASE, optionally runs a Vadalog program, then serves the
/// newline-delimited-JSON protocol until a client sends {"op":"shutdown"}.
int CmdServe(const Flags& flags) {
  auto g = LoadIn(flags);
  if (!g.ok()) return Fail(g.status());

  std::string rules;
  std::string program_path = flags.Get("program", "");
  if (!program_path.empty()) {
    std::ifstream in(program_path);
    if (!in) return Fail(Status::IoError("cannot open " + program_path));
    std::ostringstream ss;
    ss << in.rdbuf();
    rules = ss.str();
  }

  serve::ServiceOptions service_opts;
  service_opts.cache_entries =
      static_cast<size_t>(flags.GetInt("cache-entries", 1024));
  serve::ServerOptions server_opts;
  server_opts.host = flags.Get("host", "127.0.0.1");
  server_opts.port = static_cast<int>(flags.GetInt("port", 7411));
  server_opts.max_inflight =
      static_cast<int>(flags.GetInt("max-inflight", 4));
  server_opts.queue_depth =
      static_cast<size_t>(flags.GetInt("queue-depth", 64));
  server_opts.request_deadline_ms = flags.GetInt("request-deadline-ms", 10000);
  server_opts.idle_timeout_ms = flags.GetInt("idle-timeout-ms", 300000);
  if (Status st = FlagErrors(flags); !st.ok()) return Fail(st);

  MetricsRegistry metrics;
  serve::Server server(service_opts, server_opts, &metrics);
  if (Status st = server.Init(std::move(g).value(), rules); !st.ok()) {
    return Fail(st);
  }
  if (Status st = server.Start(); !st.ok()) return Fail(st);
  std::printf("serving on %s:%d (graph version %llu, %d workers, queue %zu, "
              "deadline %lldms)\n",
              server_opts.host.c_str(), server.port(),
              static_cast<unsigned long long>(server.service().version()),
              server_opts.max_inflight, server_opts.queue_depth,
              static_cast<long long>(server_opts.request_deadline_ms));
  std::fflush(stdout);
  server.WaitUntilShutdownRequested();
  server.Stop();
  std::string metrics_path = flags.Get("metrics-json", "");
  if (!metrics_path.empty()) {
    if (Status st = WriteJsonFile(metrics_path, metrics.ToJson());
        !st.ok()) {
      return Fail(st);
    }
  }
  std::printf("shutdown complete\n");
  return 0;
}

void Usage() {
  std::fprintf(stderr, R"(usage: vadalink <command> [--flag value ...]

commands:
  generate    --out BASE [--persons N] [--companies N] [--seed S]
              [--density D] [--typo-rate R]
  stats       --in BASE
  augment     --in BASE --out BASE2 [--rounds N] [--no-embedding 1]
              [--deadline-ms MS] [--max-facts N] [--threads N] [--grain N]
              [--metrics-json FILE] [--trace 1] [--metrics-wall 1]
  control     --in BASE [--source ID] [--threshold T]
  closelinks  --in BASE [--threshold T]
  ubo         --in BASE --target ID [--threshold T]
  screen      --in BASE --borrower ID --guarantor ID [--threshold T]
  reason      --in BASE --program FILE.vada [--query PRED|'goal(a, X)']
              [--out BASE2] [--deadline-ms MS] [--max-facts N] [--threads N]
              [--grain N] [--metrics-json FILE] [--trace 1] [--metrics-wall 1]
  lint        --program FILE.vada [--json -|FILE] [--cost 1]
              [--cost-budget ROWS]
  dot         --in BASE [--out FILE.dot]
  evolve      --out BASE [--persons N] [--from Y] [--to Y] [--seed S]
  serve       --in BASE [--program FILE.vada] [--host H] [--port P]
              [--max-inflight N] [--queue-depth N] [--request-deadline-ms MS]
              [--cache-entries N] [--idle-timeout-ms MS] [--metrics-json FILE]

BASE refers to the CSV pair BASE_nodes.csv / BASE_edges.csv.

--deadline-ms bounds the wall-clock time of the run; --max-facts bounds
its work budget (derived facts for 'reason', compared pairs for
'augment'). 'augment' degrades gracefully (partial results are kept and
reported); 'reason' fails with DeadlineExceeded / ResourceExhausted.

--threads runs the augmentation stages / the reasoner's rule matching on a
thread pool (0 = hardware concurrency, 1 = the default, no pool); --grain
sets the items per parallel chunk (0 = auto). Neither changes a result,
except that 'augment' trains its skip-gram embeddings hogwild above one
thread, so its links reproduce run to run only at --threads 1.

'lint' runs the static analyzer (safety, wardedness, stratification,
hygiene; see DESIGN.md section 9) without executing the program. Human
diagnostics go to stdout; --json emits the stable JSON document to
stdout ('-') or a file; 'python3 tools/check_json.py
tools/schemas/lint.json FILE' validates it. Exit 0 = clean or
warnings only, 1 = errors. --cost 1 adds the static cost & termination
pass (DESIGN.md section 14): VL04x cost lints, VL05x termination notes
and a "cost" block (cardinality intervals, per-rule estimates) in the
JSON document; --cost-budget sets the VL042 per-rule output budget
(default 1e8 rows).

--metrics-json writes the run's metrics registry (counters, gauges,
histograms, span tree) as one stable-schema JSON document; --trace 1
prints the human-readable span tree to stderr. The default document
omits wall-clock timings, so it is byte-stable run-to-run at a fixed
seed with threads=1; --metrics-wall 1 opts timings in. 'python3
tools/check_json.py tools/schemas/metrics_augment.json FILE' validates
an 'augment' document (metrics_reason.json a 'reason' one).

'serve' answers newline-delimited JSON requests over TCP (one object per
line; see DESIGN.md section 10 for the protocol): health, version,
metrics, control, ubo, closelinks, ingest, reason, query, shutdown.
--port 0 binds an ephemeral port (printed on startup). --max-inflight
bounds concurrent evaluations, --queue-depth the admission queue (a full
queue sheds with ResourceExhausted + retry_after_ms),
--request-deadline-ms the default/maximum per-request deadline
(deadline-busting hot queries degrade to the cached answer flagged
"stale": true), --cache-entries the result cache (0 disables). When
--program defines control/2, cold 'control' reads without an explicit
threshold answer from that relation, as of the fixpoint published with
the current graph version (nothing is chased per request).

'reason' with --query 'goal(args)' (a parenthesised atom, constants
binding arguments) runs the goal-directed query path instead of a full
saturation and prints the magic-set rewrite summary plus the sorted goal
answers; --query PRED (a bare name) still saturates and dumps the
predicate. A full saturation loads only the graph predicates the program
mentions, so a bare graph predicate it never uses (say 'own' for the
control rules) dumps nothing.
)");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 1;
  }
  std::string cmd = argv[1];
  Flags flags(argc, argv, 2);
  if (!flags.ok()) {
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    Usage();
    return 1;
  }
  // Every command rejects flags it does not read ('--thread 4' suggests
  // '--threads' instead of being silently ignored).
  auto accept = [&](std::initializer_list<const char*> known) {
    if (flags.RequireKnown(known)) return true;
    std::fprintf(stderr, "error: %s\n", flags.error().c_str());
    return false;
  };
  if (cmd == "generate") {
    return accept({"out", "persons", "companies", "seed", "density",
                   "typo-rate"})
               ? CmdGenerate(flags)
               : 1;
  }
  if (cmd == "stats") return accept({"in"}) ? CmdStats(flags) : 1;
  if (cmd == "augment") {
    return accept({"in", "out", "rounds", "no-embedding", "deadline-ms",
                   "max-facts", "threads", "grain", "metrics-json", "trace",
                   "metrics-wall"})
               ? CmdAugment(flags)
               : 1;
  }
  if (cmd == "control") {
    return accept({"in", "source", "threshold"}) ? CmdControl(flags) : 1;
  }
  if (cmd == "closelinks") {
    return accept({"in", "threshold"}) ? CmdCloseLinks(flags) : 1;
  }
  if (cmd == "ubo") {
    return accept({"in", "target", "threshold"}) ? CmdUbo(flags) : 1;
  }
  if (cmd == "screen") {
    return accept({"in", "borrower", "guarantor", "threshold"})
               ? CmdScreen(flags)
               : 1;
  }
  if (cmd == "reason") {
    return accept({"in", "program", "query", "out", "deadline-ms",
                   "max-facts", "threads", "grain", "metrics-json", "trace",
                   "metrics-wall"})
               ? CmdReason(flags)
               : 1;
  }
  if (cmd == "lint") {
    return accept({"program", "json", "cost", "cost-budget"})
               ? CmdLint(flags)
               : 1;
  }
  if (cmd == "serve") {
    return accept({"in", "program", "host", "port", "max-inflight",
                   "queue-depth", "request-deadline-ms", "cache-entries",
                   "idle-timeout-ms", "metrics-json"})
               ? CmdServe(flags)
               : 1;
  }
  if (cmd == "dot") return accept({"in", "out"}) ? CmdDot(flags) : 1;
  if (cmd == "evolve") {
    return accept({"out", "persons", "companies", "from", "to", "seed"})
               ? CmdEvolve(flags)
               : 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  Usage();
  return 1;
}
