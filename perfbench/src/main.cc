// perfbench — the repository benchmark.
//
//   perfbench --workload augment|reason|serve|all --seed N --seconds S
//             --trace 0|1 --benchmark-json FILE [--trace-dir DIR]
//
// Prints a human-readable block per workload and, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"} whose metrics
// are the end_to_end set of FILE (--trace 0) or its per_layer set
// (--trace 1). `all` runs the three workloads in one process and prints a
// result line after each. Normally started through perfbench/run.py, which
// builds this binary first.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

using perfbench::Declared;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "augment|reason|serve|all --seed N --seconds S --trace 0|1 "
               "--benchmark-json FILE [--trace-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  std::string benchmark_json;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      opt.trace = value == "1";
    } else if (flag == "--benchmark-json") {
      benchmark_json = value;
    } else if (flag == "--trace-dir") {
      opt.trace_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace need valid values");
  }
  std::vector<Declared> e2e, layer;
  if (!perfbench::LoadDeclared(benchmark_json, &e2e, &layer)) {
    return Usage("cannot read the metric lists of --benchmark-json");
  }

  std::vector<std::string> workloads;
  if (opt.workload == "all") {
    workloads = {"augment", "reason", "serve"};
  } else if (opt.workload == "augment" || opt.workload == "reason" ||
             opt.workload == "serve") {
    workloads = {opt.workload};
  } else {
    return Usage("unknown workload");
  }

  for (const std::string& w : workloads) {
    opt.workload = w;
    perfbench::Report r = w == "augment"  ? perfbench::RunAugment(opt)
                          : w == "reason" ? perfbench::RunReason(opt)
                                          : perfbench::RunServe(opt);
    std::string line =
        perfbench::ResultLine(&r, opt.trace ? layer : e2e, opt.trace);
    perfbench::PrintReport(w, r, opt.trace);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }
  // A printed result line is a completed run, correct or not: the line's
  // "correct" field carries the verdict.
  return 0;
}
