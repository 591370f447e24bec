// Shared pieces of the repository benchmark: run options and input sizes,
// sample statistics, the result report with its two outputs (a human
// table and the final JSON line), and the bench-side span log used by the
// traced run.
//
// The benchmark measures the program from outside: it times its own calls
// into each module's public functions and reads the counters and spans the
// program publishes into a caller-supplied MetricsRegistry. Nothing here is
// compiled into the library targets.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "graph/property_graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return SecondsBetween(a, Clock::now());
}

// ---- sizes ----------------------------------------------------------------

/// Input sizes and traffic shape. The defaults are what the benchmark
/// runs; Tiny() is the self-test's. See perfbench/NOTES.md for why each
/// value.
struct Sizes {
  // augment: one register per graph slot; repetitions cycle over them.
  size_t augment_persons = 500;
  size_t augment_graphs = 16;
  size_t augment_rounds = 2;
  // reason: about ten times augment's register.
  size_t reason_persons = 10000;
  size_t pool_threads = 4;  // capped at the machine's core count
  // serve
  size_t serve_persons = 2000;
  int serve_workers = 2;
  std::vector<double> ladder_rps = {50, 150, 250, 350, 450, 550, 650, 800};
  size_t reference_rung = 1;          // index into ladder_rps
  double reference_share = 0.65;      // share of --seconds on that rung
  double step_share = 0.03;           // share of --seconds on each other rung
  size_t climbs = 3;                  // climbs from the reference rate up
  double latency_limit_ms = 100.0;    // all-reads p99 limit for max_rps
  // Request mix in percent, that of bench/bench_serve_load: 90% keyed
  // reads split evenly, 8% health probes, 2% ingest writes.
  int control_pct = 30;
  int ubo_pct = 30;
  int closelinks_pct = 30;
  int health_pct = 8;
  int ingest_pct = 2;
  // The load generator ends a rung once this many requests are
  // outstanding: below the server's admission queue (64) plus workers.
  size_t max_outstanding = 48;
  double zipf_alpha = 1.2;            // an assumption; no source gives one
  size_t oracle_sample = 40;          // keys in the final engine/compiled check
  size_t overhead_keys = 100;         // cold control reads per side (traced)
  // Set-up repeats until this budget is spent; setup_s is the median.
  double setup_budget_s = 3.0;
  size_t setup_min_repeats = 5;

  static Sizes Tiny();
};

inline size_t CompaniesFor(size_t persons) { return persons * 3 / 4; }

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its span list
  Sizes sizes;
};

/// Runs `setup` repeatedly until the set-up budget is spent and at least
/// the minimum number of repeats ran. Returns the seconds of each repeat.
template <typename F>
std::vector<double> TimeSetup(const Sizes& sz, F&& setup) {
  std::vector<double> out;
  Clock::time_point begin = Clock::now();
  while (out.size() < sz.setup_min_repeats ||
         SecondsSince(begin) < sz.setup_budget_s) {
    Clock::time_point t0 = Clock::now();
    setup();
    out.push_back(SecondsSince(t0));
  }
  return out;
}

// ---- statistics -------------------------------------------------------------

double Median(std::vector<double> v);
/// Linear-interpolated quantile q in [0, 1] of `v` (empty -> 0).
double Quantile(std::vector<double> v, double q);

/// A tail percentile with the sample count behind it. `pct` is the named
/// percentile, lowered to the highest one that still has at least ten
/// samples beyond it (99 -> 95 -> 90 -> 75 -> 50).
struct Tail {
  double pct = 0.0;
  double value = 0.0;
  size_t n = 0;
};
Tail SupportedTail(const std::vector<double>& v, double wanted_pct);

/// Peak resident memory of this process (VmHWM) in MB.
double PeakRssMb();

// ---- report -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t n = 0;  // samples behind the value; 0 = not a sampled statistic
};

/// What one workload run produced. `printed` holds the workload's own
/// end-to-end metrics under their names, for the human table; `values`
/// holds the metrics of the final JSON line by name: the end_to_end set of
/// BENCHMARK.json for an untraced run, the per_layer set for a traced one.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;
  std::vector<Metric> printed;
  std::string layer_table;  // traced runs: the per-layer table
  std::map<std::string, double> values;

  void Fail(std::string why) {
    correct = false;
    check_failures.push_back(std::move(why));
  }
  void Show(std::string name, double value, std::string unit, size_t n = 0) {
    printed.push_back({std::move(name), value, std::move(unit), n});
  }
  void Emit(const std::string& name, double value) { values[name] = value; }
};

/// A metric declared in BENCHMARK.json.
struct Declared {
  std::string name;
  std::string unit;
};

/// Reads the end_to_end and per_layer metric lists of BENCHMARK.json.
/// Returns false when the file is missing or malformed.
bool LoadDeclared(const std::string& path, std::vector<Declared>* e2e,
                  std::vector<Declared>* layer);

/// Human-readable block for one workload. The caller prints the final JSON
/// line after it.
void PrintReport(const std::string& workload, const Report& r, bool trace);
/// The last stdout line: {"correct", "attempted", "failed", "metrics"} with
/// one entry per declared metric. An untraced run that did not measure a
/// declared metric fails its report; a traced run reports 0 for a layer the
/// workload does not run.
std::string ResultLine(Report* r, const std::vector<Declared>& declared,
                       bool trace);

// ---- bench-side tracing -----------------------------------------------------

/// In-memory span list of the traced run. Each span has a name, start,
/// end, parent (0 = root) and, for serve requests, the request id. Spans
/// are written out once, at exit. A disabled log records nothing.
class SpanLog {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int64_t request_id = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  /// RAII span nested under the innermost open Scope of the same thread.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint64_t id() const { return id_; }

   private:
    SpanLog* log_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    std::string name_;
    Clock::time_point start_;
  };

  /// Records an externally timed span (serve requests, timed from their
  /// scheduled send time). Returns its id.
  uint64_t Add(std::string name, Clock::time_point start,
               Clock::time_point end, uint64_t parent, int64_t request_id);

  /// Writes every span as one JSON document. Returns false on I/O error.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

// ---- program-side spans -----------------------------------------------------

/// Seconds recorded under an exact span path of the registry.
double RegistrySeconds(const vadalink::MetricsRegistry& reg,
                       const std::string& path);
/// Sum over round0..round<rounds-1> of "augment/round<k>/<suffix>".
double RoundSeconds(const vadalink::MetricsRegistry& reg, size_t rounds,
                    const std::string& suffix);

/// One row of the per-layer table: a span with its self time. `total`
/// and `self` are seconds per `per` (for example per Augment call).
struct LayerRow {
  std::string layer;
  std::string span;
  double count = 0.0;
  double total = 0.0;
  double self = 0.0;
};
/// A counter or ratio with the base it was computed from.
struct CounterRow {
  std::string name;
  double value = 0.0;
  std::string base;
};
std::string LayerTable(const std::vector<LayerRow>& rows,
                       const std::vector<CounterRow>& counters);

// ---- workloads --------------------------------------------------------------

/// The datalog and core-mapping layers of `program_source` over `g`: bench
/// spans around LoadGraphFacts, AnalyzeProgram and StorePredictedLinks on
/// a fresh Database, plus the chase span and engine counters that `runs`
/// traced KnowledgeGraph::Reason calls left in `reg`. Appends table rows
/// and emits the per-layer metrics.
void AddReasonLayers(const vadalink::graph::PropertyGraph& g,
                     const std::string& program_source,
                     vadalink::MetricsRegistry& reg, double runs,
                     SpanLog* log, Report* r, std::vector<LayerRow>* rows,
                     std::vector<CounterRow>* counters);

Report RunAugment(const Options& opt);
Report RunReason(const Options& opt);
Report RunServe(const Options& opt);

}  // namespace perfbench
