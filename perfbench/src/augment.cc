// Workload `augment`: Algorithm 1 through core::MakeDefaultVadaLink with the
// CLI-default embedding and blocking config, a fixed round cap and
// threads = 1 (the only setting whose links reproduce exactly), on
// register-simulator graphs. Repetitions cycle over a few seeded registers
// so family_f1 pools enough planted links to be steady across seeds.
#include <set>

#include "bench.h"
#include "checks.h"
#include "company/close_link.h"
#include "company/company_graph.h"
#include "company/control.h"
#include "core/evaluation.h"
#include "core/vada_link.h"
#include "gen/register_simulator.h"

namespace perfbench {

namespace core = vadalink::core;
namespace gen = vadalink::gen;
using vadalink::MetricsRegistry;

namespace {

core::AugmentConfig Config(const Sizes& sz) {
  core::AugmentConfig cfg;  // CLI defaults
  cfg.max_rounds = sz.augment_rounds;
  cfg.parallel.threads = 1;
  return cfg;
}

std::vector<gen::RegisterData> Generate(const Options& opt) {
  std::vector<gen::RegisterData> out;
  for (size_t k = 0; k < opt.sizes.augment_graphs; ++k) {
    gen::RegisterConfig rc;
    rc.persons = opt.sizes.augment_persons;
    rc.companies = CompaniesFor(rc.persons);
    rc.seed = opt.seed * 1000003ULL + k;
    out.push_back(gen::GenerateRegister(rc));
  }
  return out;
}

}  // namespace

Report RunAugment(const Options& opt) {
  const Sizes& sz = opt.sizes;
  const size_t graphs = sz.augment_graphs;
  Report r;
  SpanLog log(opt.trace);

  // ---- set-up: generation (repeated; the median is setup_s) ----
  std::vector<gen::RegisterData> data;
  const std::vector<double> setup =
      TimeSetup(sz, [&] { data = Generate(opt); });

  // ---- timed region ----
  // Untraced: every repetition runs without a registry. Traced:
  // repetitions alternate untraced / traced on the same graph, so the
  // tracing overhead compares like with like.
  MetricsRegistry registry;
  std::vector<double> plain_s, traced_s;
  std::vector<vadalink::graph::PropertyGraph> first_output(graphs);
  std::vector<bool> have_first(graphs, false);
  std::vector<std::pair<size_t, std::vector<uint64_t>>> links_added;
  Clock::time_point start = Clock::now();
  const size_t per_graph = opt.trace ? 2 : 1;
  for (size_t rep = 0;
       rep < graphs * per_graph || SecondsSince(start) < opt.seconds; ++rep) {
    const size_t k = (rep / per_graph) % graphs;
    const bool traced = opt.trace && rep % 2 == 1;
    vadalink::graph::PropertyGraph g = data[k].graph;
    core::VadaLink vl = core::MakeDefaultVadaLink(Config(sz));
    Clock::time_point t0 = Clock::now();
    auto stats = [&] {
      SpanLog::Scope span(traced ? &log : nullptr, "core.Augment");
      return vl.Augment(&g, nullptr, traced ? &registry : nullptr);
    }();
    const double s = SecondsSince(t0);
    ++r.attempted;
    if (!stats.ok() || stats->truncated || stats->degraded_rounds > 0) {
      ++r.failed;
      continue;
    }
    (traced ? traced_s : plain_s).push_back(s);
    links_added.push_back({k, {stats->links_added}});
    if (!have_first[k]) {
      have_first[k] = true;
      first_output[k] = std::move(g);
    }
  }

  // ---- output checks (untimed) ----
  size_t tp = 0, fp = 0, fn = 0;
  for (size_t k = 0; k < graphs; ++k) {
    if (!have_first[k]) {
      r.Fail("augment: no successful run on graph " + std::to_string(k));
      continue;
    }
    AugmentExpectation exp =
        ExpectedAugmentLinks(data[k].graph, first_output[k]);
    for (std::string& f : CheckAugmentOutput(first_output[k], exp)) {
      r.Fail(f + " (graph " + std::to_string(k) + ")");
    }
    std::set<core::LinkPair> truth;
    for (const auto& l : data[k].true_family_links) {
      truth.insert(core::MakeLinkPair(l.x, l.y));
    }
    auto ev = core::EvaluateLinks(
        core::CollectEdges(first_output[k], {"PartnerOf", "ParentOf",
                                             "SiblingOf"}),
        truth);
    tp += ev.true_positives;
    fp += ev.false_positives;
    fn += ev.false_negatives;
  }
  if (size_t drift = RepetitionDrift(links_added); drift > 0) {
    r.Fail("augment: " + std::to_string(drift) +
           " repetition(s) at threads = 1 added a different number of links");
  }
  const double f1 = tp == 0 ? 0.0
                            : 2.0 * static_cast<double>(tp) /
                                  static_cast<double>(2 * tp + fp + fn);

  const double setup_s = Median(setup);
  const double job_s = Median(plain_s);
  const double rss = PeakRssMb();
  r.Show("setup_s", setup_s, "s", setup.size());
  r.Show("peak_rss_mb", rss, "MB");
  r.Show("job_s", job_s, "s", plain_s.size());
  r.Show("family_f1", f1, "ratio", graphs);

  if (!opt.trace) {
    r.Emit("setup_s", setup_s);
    r.Emit("peak_rss_mb", rss);
    r.Emit("op_p50_ms", job_s * 1e3);
    r.Emit("ops_per_s", job_s > 0 ? 1.0 / job_s : 0.0);
    r.Emit("answer_f1", f1);
    return r;
  }

  // ---- traced run: layer probes and the per-layer table ----
  // company: the whole-graph calls the global candidates make each round.
  double control_all = 0.0, closelinks_all = 0.0;
  for (size_t k = 0; k < graphs; ++k) {
    auto cg = vadalink::company::CompanyGraph::FromPropertyGraph(data[k].graph);
    if (!cg.ok()) continue;
    {
      SpanLog::Scope span(&log, "company.AllControlEdges");
      Clock::time_point t0 = Clock::now();
      (void)vadalink::company::AllControlEdges(*cg, 0.5);
      control_all += SecondsSince(t0);
    }
    {
      SpanLog::Scope span(&log, "company.AllCloseLinks");
      Clock::time_point t0 = Clock::now();
      (void)vadalink::company::AllCloseLinks(*cg, {});
      closelinks_all += SecondsSince(t0);
    }
  }
  control_all /= static_cast<double>(graphs);
  closelinks_all /= static_cast<double>(graphs);

  const double n = static_cast<double>(traced_s.size());
  const size_t rounds = sz.augment_rounds;
  auto per = [&](double v) { return n > 0 ? v / n : 0.0; };
  auto counter = [&](const char* name) {
    return per(static_cast<double>(registry.CounterValue(name)));
  };
  const double augment_total = per(RegistrySeconds(registry, "augment"));
  double rounds_total = 0.0;
  for (size_t k = 0; k < rounds; ++k) {
    rounds_total += RegistrySeconds(registry, "augment/round" +
                                                  std::to_string(k));
  }
  rounds_total = per(rounds_total);
  const double embed = per(RoundSeconds(registry, rounds, "embed"));
  const double walks = per(RoundSeconds(registry, rounds, "embed/walks"));
  const double skipgram = per(RoundSeconds(registry, rounds, "embed/skipgram"));
  const double kmeans = per(RoundSeconds(registry, rounds, "embed/kmeans"));
  const double block = per(RoundSeconds(registry, rounds, "block"));
  const double candidates = per(RoundSeconds(registry, rounds, "candidates"));
  const double positions = counter("embed.skipgram.positions");
  const double scored = counter("linkage.pairs.scored");
  const double accepted = counter("linkage.pairs.accepted");
  const double overhead = Median(traced_s) / Median(plain_s) - 1.0;

  std::vector<LayerRow> rows = {
      {"core", "augment (per Augment)", n, augment_total,
       augment_total - rounds_total},
      {"core", "augment/round* (summed)", n, rounds_total,
       rounds_total - embed - block - candidates},
      {"embed", "augment/round*/embed", n, embed,
       embed - walks - skipgram - kmeans},
      {"embed", "augment/round*/embed/walks", n, walks, walks},
      {"embed", "augment/round*/embed/skipgram", n, skipgram, skipgram},
      {"embed", "augment/round*/embed/kmeans", n, kmeans, kmeans},
      {"linkage", "augment/round*/block", n, block, block},
      {"core", "augment/round*/candidates", n, candidates, candidates},
      {"company", "bench: AllControlEdges (per graph)",
       static_cast<double>(graphs), control_all, control_all},
      {"company", "bench: AllCloseLinks (per graph)",
       static_cast<double>(graphs), closelinks_all, closelinks_all},
  };
  std::vector<CounterRow> counters = {
      {"embed.skipgram.positions", positions, "per Augment"},
      {"embed.skipgram.ns_per_position",
       positions > 0 ? skipgram * 1e9 / positions : 0.0,
       "skipgram span / positions"},
      {"embed.kmeans.iterations", counter("embed.kmeans.iterations"),
       "per Augment"},
      {"linkage.pairs.scored", scored, "per Augment"},
      {"linkage.pairs.accepted", accepted, "per Augment"},
      {"linkage.pair_yield", scored > 0 ? accepted / scored : 0.0,
       "accepted / scored"},
      {"augment.links.added", counter("augment.links.added"), "per Augment"},
      {"augment.rounds", counter("augment.rounds"), "per Augment"},
      {"trace.overhead", overhead,
       "median traced Augment / median untraced Augment - 1 (n=" +
           std::to_string(traced_s.size()) + "/" +
           std::to_string(plain_s.size()) + ")"},
  };
  r.layer_table = LayerTable(rows, counters);

  r.Emit("embed.walks_s", walks);
  r.Emit("embed.skipgram_s", skipgram);
  r.Emit("embed.kmeans_s", kmeans);
  r.Emit("linkage.block_s", block);
  r.Emit("core.candidates_s", candidates);
  r.Emit("company.control_all_s", control_all);
  r.Emit("company.closelinks_all_s", closelinks_all);
  for (const CounterRow& c : counters) r.Emit(c.name, c.value);
  if (!opt.trace_dir.empty() &&
      !log.Write(opt.trace_dir + "/augment-spans.json")) {
    r.notes.push_back("could not write the span list");
  }
  return r;
}

}  // namespace perfbench
