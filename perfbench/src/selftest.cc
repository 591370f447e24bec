// Self-test of the benchmark, at tiny sizes:
//   perfbench_selftest BENCHMARK.json
// 1. runs every workload end to end, untraced and traced, and asserts that
//    each declared metric is emitted with its unit, that each workload's
//    own end-to-end metrics are printed with units and sample counts, and
//    that the output checks pass;
// 2. feeds each output check a perturbed answer and asserts that it fails.
// Prints one line per assertion and exits non-zero on any failure.
#include <cstdio>
#include <string>

#include "bench.h"
#include "checks.h"
#include "core/knowledge_graph.h"
#include "core/vada_link.h"
#include "core/vadalog_programs.h"
#include "gen/register_simulator.h"
#include "serve/protocol.h"

namespace {

using namespace perfbench;
using vadalink::serve::Json;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

// Every workload prints these metrics (name prefix, needs a sample count).
const std::vector<std::pair<std::string, bool>>& OwnMetrics(
    const std::string& w) {
  static const std::vector<std::pair<std::string, bool>> augment = {
      {"setup_s", true}, {"peak_rss_mb", false}, {"job_s", true},
      {"family_f1", true}};
  static const std::vector<std::pair<std::string, bool>> reason = {
      {"setup_s", true}, {"peak_rss_mb", false}, {"job_s", true},
      {"job_par_s", true}, {"oracle_mismatches", false}};
  static const std::vector<std::pair<std::string, bool>> serve = {
      {"setup_s", true},      {"peak_rss_mb", false},
      {"cold_p50_ms", true},  {"cold_p", true},
      {"hot_p50_ms", true},   {"hot_p", true},
      {"ingest_p50_ms", true}, {"ingest_p", true},
      {"max_rps", false},     {"oracle_mismatches", true}};
  return w == "augment" ? augment : w == "reason" ? reason : serve;
}

void RunWorkloads(const std::string& benchmark_json) {
  std::vector<Declared> e2e, layer;
  Expect(LoadDeclared(benchmark_json, &e2e, &layer) && !e2e.empty() &&
             !layer.empty(),
         "BENCHMARK.json declares end_to_end and per_layer metrics");
  for (const std::string w : {"augment", "reason", "serve"}) {
    for (bool trace : {false, true}) {
      Options opt;
      opt.workload = w;
      opt.seed = 7;
      opt.seconds = 1.5;
      opt.trace = trace;
      opt.sizes = Sizes::Tiny();
      Report r = w == "augment"  ? RunAugment(opt)
                 : w == "reason" ? RunReason(opt)
                                 : RunServe(opt);
      const std::vector<Declared>& declared = trace ? layer : e2e;
      std::string line = ResultLine(&r, declared, trace);
      PrintReport(w, r, trace);
      const std::string tag = w + (trace ? " traced: " : ": ");
      Expect(r.correct, tag + "output checks pass");
      Expect(r.attempted > 0, tag + "attempted > 0");
      auto doc = Json::Parse(line);
      Expect(doc.ok(), tag + "result line is JSON");
      if (!doc.ok()) continue;
      const Json* metrics = doc->Find("metrics");
      bool all = metrics != nullptr;
      for (const Declared& d : declared) {
        const Json* m = metrics != nullptr ? metrics->Find(d.name) : nullptr;
        bool ok = m != nullptr && m->Find("value") != nullptr &&
                  m->Find("value")->is_number() && m->Find("unit") != nullptr &&
                  m->Find("unit")->AsString() == d.unit;
        if (!ok) std::printf("     missing or wrong: %s\n", d.name.c_str());
        all = all && ok;
      }
      Expect(all, tag + "every declared metric is emitted with its unit");
      if (trace) continue;
      for (const auto& [prefix, sampled] : OwnMetrics(w)) {
        bool found = false;
        for (const Metric& m : r.printed) {
          if (m.name.rfind(prefix, 0) == 0 && !m.unit.empty() &&
              (!sampled || m.n > 0)) {
            found = true;
          }
        }
        Expect(found, tag + "prints " + prefix + "* with unit" +
                          (sampled ? " and sample count" : ""));
      }
    }
  }
}

void PerturbAugment() {
  vadalink::gen::RegisterConfig rc;
  rc.persons = 80;
  rc.companies = 60;
  rc.seed = 3;
  auto data = vadalink::gen::GenerateRegister(rc);
  vadalink::graph::PropertyGraph g = data.graph;
  vadalink::core::AugmentConfig cfg;
  cfg.max_rounds = 2;
  auto vl = vadalink::core::MakeDefaultVadaLink(cfg);
  Expect(vl.Augment(&g).ok(), "augment: tiny Augment runs");
  AugmentExpectation exp = ExpectedAugmentLinks(data.graph, g);
  Expect(CheckAugmentOutput(g, exp).empty(), "augment: check passes as is");
  Expect(!exp.control.empty(), "augment: the tiny graph has control edges");
  if (!exp.control.empty()) {
    AugmentExpectation dropped = exp;
    dropped.control.erase(dropped.control.begin());
    Expect(!CheckAugmentOutput(g, dropped).empty(),
           "augment: check fails when one control edge is unexplained");
  }
  vadalink::graph::PropertyGraph extra = g;
  (void)extra.AddEdge(data.persons[0], data.companies[0], "PartnerOf");
  Expect(!CheckAugmentOutput(extra, exp).empty(),
         "augment: check fails on a family edge into a company");
}

void PerturbReason() {
  vadalink::gen::RegisterConfig rc;
  rc.persons = 300;
  rc.companies = 225;
  rc.seed = 5;
  auto data = vadalink::gen::GenerateRegister(rc);
  vadalink::core::KnowledgeGraph kg;
  *kg.mutable_graph() = data.graph;
  (void)kg.AddRules(vadalink::core::ControlProgram());
  (void)kg.AddRules(vadalink::core::CloseLinkProgram(0.2, 8));
  Expect(kg.Reason().ok(), "reason: tiny Reason runs");
  ReasonAnswer engine = EngineAnswer(kg);
  ReasonAnswer oracle = OracleAnswer(data.graph);
  const size_t base = OracleMismatches(engine, oracle);
  ReasonAnswer dropped = engine;
  bool found = false;
  for (const auto& p : engine.control) {
    if (oracle.control.count(p) > 0) {
      dropped.control.erase(p);
      found = true;
      break;
    }
  }
  Expect(found, "reason: engine and oracle share a control fact");
  Expect(OracleMismatches(dropped, oracle) == base + 1,
         "reason: one dropped control fact raises oracle_mismatches by one");
  Expect(AnswerF1(dropped, oracle) < AnswerF1(engine, oracle),
         "reason: one dropped control fact lowers answer_f1");
  Expect(SameAnswer(engine, engine) && !SameAnswer(engine, dropped),
         "reason: engine-configuration agreement fails on a dropped fact");
}

void PerturbServe() {
  Json ids = Json::MakeArray();
  ids.Append(Json::Int(4));
  ids.Append(Json::Int(9));
  auto control = [&](int64_t count) {
    Json result = Json::MakeObject();
    result.Set("controlled", ids);
    result.Set("count", Json::Int(count));
    return *Json::Parse(vadalink::serve::RenderResult(Json::Int(12), 3,
                                                      std::move(result)));
  };
  Expect(CheckServeResponse(control(2), "control", 12).empty(),
         "serve: a well-formed control response passes");
  Expect(!CheckServeResponse(control(3), "control", 12).empty(),
         "serve: a wrong count fails");
  Expect(!CheckServeResponse(control(2), "control", 13).empty(),
         "serve: a response for another request id fails");
  Json bare = control(2);
  Json no_version = Json::MakeObject();
  for (const auto& [k, v] : bare.AsObject()) {
    if (k != "graph_version") no_version.Set(k, v);
  }
  Expect(!CheckServeResponse(no_version, "control", 12).empty(),
         "serve: a response without graph_version fails");
  Expect(ControlledIds(control(2)) == std::vector<int64_t>({4, 9}),
         "serve: controlled ids are read back sorted");

  // Versions on one connection: a read at the floor, an ingest creating
  // version 4, a read of it, a later ingest creating 5.
  std::vector<VersionObservation> versions = {
      {3, 3, false, 0}, {3, 4, true, 4}, {4, 4, false, 0}, {4, 5, true, 5}};
  Expect(CheckVersionOrder(versions).empty(),
         "serve: a causal version sequence passes");
  auto older = versions;
  older[2].version = 2;
  Expect(!CheckVersionOrder(older).empty(),
         "serve: a response older than the connection's floor fails");
  auto repeated = versions;
  repeated[3] = {5, 5, true, 4};
  Expect(!CheckVersionOrder(repeated).empty(),
         "serve: an ingest that repeats a version fails");
  auto not_newer = versions;
  not_newer[3] = {5, 5, true, 5};
  Expect(!CheckVersionOrder(not_newer).empty(),
         "serve: an ingest that creates no newer version fails");

  const std::vector<int64_t> keys = {1, 2, 3};
  const std::vector<std::vector<int64_t>> answers = {{4, 9}, {}, {7}};
  KeySample same = CompareKeySample(keys, answers, answers);
  Expect(same.mismatched_keys == 0 && same.f1 == 1.0,
         "serve: identical engine and compiled answers agree");
  auto differing = answers;
  differing[0][1] = 8;
  KeySample off = CompareKeySample(keys, differing, answers);
  Expect(off.mismatched_keys == 1 && off.f1 < 1.0,
         "serve: one differing controlled id is one mismatched key");
}

void PerturbRepetitions() {
  const std::vector<std::pair<size_t, std::vector<uint64_t>>> reps = {
      {0, {10, 3}}, {1, {12, 4}}, {0, {10, 3}}, {1, {12, 4}}};
  Expect(RepetitionDrift(reps) == 0,
         "repetitions: the same counts per input show no drift");
  auto drifted = reps;
  drifted[3].second[1] = 5;
  Expect(RepetitionDrift(drifted) == 1,
         "repetitions: one repetition with another count is one drift");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench_selftest BENCHMARK.json\n");
    return 2;
  }
  PerturbAugment();
  PerturbReason();
  PerturbServe();
  PerturbRepetitions();
  RunWorkloads(argv[1]);
  std::printf("%s (%d failure(s))\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
