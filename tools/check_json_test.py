#!/usr/bin/env python3
"""Tests of tools/check_json.py against the schemas in tools/schemas/.

For each schema, a minimal conforming document must pass, and each
perturbation below must be rejected: one per check the document kind's
validation makes. Run: python3 tools/check_json_test.py (a ctest).
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import check_json  # noqa: E402


def schema(name):
    with open(os.path.join(HERE, "schemas", name + ".json")) as f:
        return json.load(f)


def counts(*keys):
    return {k: 0 for k in keys}


SPAN = counts("count", "deadline_hits", "budget_trips", "cancellations")
HIST = {"count": 2, "sum": 3, "buckets": [0, 1, 1, 2] + [2] * 29}


def metrics(counter_names, histograms, spans):
    return {"schema_version": 1,
            "counters": {n: 1 for n in counter_names},
            "gauges": {"embed.kmeans.inertia": 0.5},
            "histograms": {n: copy.deepcopy(HIST) for n in histograms},
            "spans": {p: dict(SPAN) for p in spans}}


METRICS_AUGMENT = metrics(
    ["augment.rounds", "augment.links.added", "linkage.blocks.created",
     "linkage.pairs.scored", "linkage.pairs.accepted",
     "linkage.pairs.rejected"], ["linkage.block.size"], ["augment"])
METRICS_REASON = metrics(
    ["engine.strata", "engine.iterations", "engine.facts_derived",
     "engine.plan.probes", "engine.plan.computed", "engine.plan.cache_hits"],
    ["engine.delta.size"], ["reason", "reason/chase"])

LINT = {
    "schema_version": 1, "program": "p.vada",
    "summary": {"errors": 1, "warnings": 1, "diagnostics": 2},
    "diagnostics": [
        {"severity": "error", "code": "VL010", "rule": 0, "predicate": "p",
         "line": 3, "col": 1, "message": "no ward", "hint": ""},
        {"severity": "warning", "code": "VL030", "rule": -1,
         "predicate": "q", "line": 0, "col": 0, "message": "unused",
         "hint": "drop it"}],
    "cost": {"program_cost": 12.5, "recursive_sccs": 1,
             "warded_only_sccs": 0,
             "predicates": [{"predicate": "p", "lo": 0, "hi": 1e15,
                             "growth": "linear_in_edb"}],
             "rules": [{"rule": 0, "join_cost": 4, "output_rows": 0.5,
                        "cartesian": False, "unbound_self_join": True}]}}

RUN = {"seconds": 0.25, "facts_per_sec": 100.0, "join_probes": 7,
       "plans_computed": 1, "plan_cache_hits": 0}
ENGINE_BENCH = {
    "schema_version": 1, "bench": "datalog_micro",
    "workloads": [{
        "name": "tc", "facts_derived": 3, "planned": dict(RUN),
        "worst_case": dict(RUN), "plans": ["rule 0: e@scan"], "agree": True,
        "query_focus": {"speedup": 2.0, "facts_avoided": 1,
                        "fallback_count": 0, "estimated_cost": 9.5,
                        "plan_us": 12, "cost_ratio": 0.5}}]}

CHASE_MEMORY = {
    "schema_version": 1, "bench": "chase_memory",
    "workloads": [{
        "name": "control", "nodes": 10, "ratio": 0.5, "identical": True,
        "full": {"peak_resident_facts": 8, "total_facts": 8,
                 "seconds": 0.1},
        "streaming": {"peak_resident_facts": 4, "total_facts": 8,
                      "evicted_rows": 4, "memo_queries": 2, "memo_hits": 1,
                      "memo_hit_rate": 0.5, "seconds": 0.1}}],
    "suite": {"full_peak_resident_facts": 8,
              "streaming_peak_resident_facts": 4, "ratio": 0.5,
              "bound": 0.5, "within_bound": True}}

def put(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return mutate


def drop(*path):
    def mutate(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return mutate


def metrics_cases(counter, histogram, span):
    """Perturbations of a metrics fixture holding these instruments."""
    h = ("histograms", histogram)
    return [
        ("missing top-level key", drop("gauges")),
        ("schema_version mismatch", put("schema_version", 2)),
        ("counter not an integer", put("counters", counter, 1.5)),
        ("counter negative", put("counters", counter, -1)),
        ("counter boolean", put("counters", counter, True)),
        ("gauge not a number", put("gauges", "embed.kmeans.inertia", "x")),
        ("histogram missing a field", drop(*h, "sum")),
        ("too few buckets", put(*h, "buckets", [0] * 32)),
        ("too many buckets", put(*h, "buckets", [0] * 33 + [2])),
        ("bucket not an integer", put(*h, "buckets", 32, "2")),
        ("buckets not monotone", put(*h, "buckets", 2, 0)),
        ("last bucket != count", put(*h, "count", 3)),
        ("span missing a field", drop("spans", span, "budget_trips")),
        ("span field negative", put("spans", span, "count", -1)),
    ]


AUGMENT_CASES = metrics_cases(
    "augment.rounds", "linkage.block.size", "augment") + [
    ("augment counter missing", drop("counters", "linkage.pairs.scored")),
    ("augment histogram missing", drop("histograms", "linkage.block.size")),
    ("augment span missing", drop("spans", "augment")),
]
REASON_CASES = metrics_cases(
    "engine.strata", "engine.delta.size", "reason") + [
    ("reason counter missing", drop("counters", "engine.plan.probes")),
    ("reason span missing", drop("spans", "reason/chase")),
]

D0 = ("diagnostics", 0)
C = ("cost",)
LINT_CASES = [
    ("missing top-level key", drop("summary")),
    ("schema_version mismatch", put("schema_version", 0)),
    ("program not a string", put("program", 5)),
    ("summary count negative", put("summary", "errors", -1)),
    ("summary count missing", drop("summary", "warnings")),
    ("diagnostics not an array", put("diagnostics", {})),
    ("diagnostic not an object", put("diagnostics", 1, "x")),
    ("diagnostic extra field", put(*D0, "extra", 1)),
    ("diagnostic missing field", drop(*D0, "hint")),
    ("unknown severity", put(*D0, "severity", "fatal")),
    ("uncatalogued code", put(*D0, "code", "VL999")),
    ("warning code with error severity", put(*D0, "code", "VL030")),
    ("rule index below -1", put(*D0, "rule", -2)),
    ("negative line", put(*D0, "line", -1)),
    ("negative col", put(*D0, "col", -1)),
    ("predicate not a string", put(*D0, "predicate", None)),
    ("hint not a string", put(*D0, "hint", 3)),
    ("empty message", put(*D0, "message", "")),
    ("summary.errors != counted", put("summary", "errors", 2)),
    ("summary.warnings != counted", put("summary", "warnings", 0)),
    ("summary.diagnostics != entries", put("summary", "diagnostics", 3)),
    ("cost missing field", drop(*C, "rules")),
    ("cost extra field", put(*C, "extra", 0)),
    ("program_cost negative", put(*C, "program_cost", -1)),
    ("program_cost not a number", put(*C, "program_cost", "1")),
    ("scc count not an integer", put(*C, "recursive_sccs", 1.5)),
    ("warded_only_sccs negative", put(*C, "warded_only_sccs", -1)),
    ("cost predicates not an array", put(*C, "predicates", {})),
    ("cost predicate extra field", put(*C, "predicates", 0, "x", 1)),
    ("cost predicate not a string", put(*C, "predicates", 0, "predicate", 1)),
    ("lo negative", put(*C, "predicates", 0, "lo", -1)),
    ("hi not a number", put(*C, "predicates", 0, "hi", None)),
    ("lo > hi", put(*C, "predicates", 0, "lo", 2e15)),
    ("unknown growth class", put(*C, "predicates", 0, "growth", "fast")),
    ("cost rules not an array", put(*C, "rules", 1)),
    ("cost rule missing field", drop(*C, "rules", 0, "cartesian")),
    ("cost rule index negative", put(*C, "rules", 0, "rule", -1)),
    ("join_cost negative", put(*C, "rules", 0, "join_cost", -0.5)),
    ("output_rows not a number", put(*C, "rules", 0, "output_rows", "x")),
    ("shape flag not a boolean", put(*C, "rules", 0, "cartesian", 0)),
]

W0 = ("workloads", 0)
ENGINE_CASES = [
    ("missing top-level key", drop("workloads")),
    ("schema_version mismatch", put("schema_version", 2)),
    ("bench empty", put("bench", "")),
    ("workloads not an array", put("workloads", {})),
    ("workloads empty", put("workloads", [])),
    ("workload missing field", drop(*W0, "agree")),
    ("name empty", put(*W0, "name", "")),
    ("facts_derived negative", put(*W0, "facts_derived", -1)),
    ("run not an object", put(*W0, "planned", [])),
    ("run count not an integer", put(*W0, "worst_case", "join_probes", 1.5)),
    ("run number negative", put(*W0, "planned", "seconds", -1)),
    ("run field missing", drop(*W0, "planned", "facts_per_sec")),
    ("query_focus not an object", put(*W0, "query_focus", 1)),
    ("query_focus number negative", put(*W0, "query_focus", "speedup", -1)),
    ("query_focus count not an integer",
     put(*W0, "query_focus", "plan_us", 0.5)),
    ("query_focus field missing", drop(*W0, "query_focus", "cost_ratio")),
    ("plan empty string", put(*W0, "plans", [""])),
    ("plans empty", put(*W0, "plans", [])),
    ("agree false", put(*W0, "agree", False)),
]

CHASE_CASES = [
    ("missing top-level key", drop("suite")),
    ("schema_version mismatch", put("schema_version", 2)),
    ("bench not chase_memory", put("bench", "datalog_micro")),
    ("workloads empty", put("workloads", [])),
    ("workload missing field", drop(*W0, "ratio")),
    ("name empty", put(*W0, "name", "")),
    ("nodes zero", put(*W0, "nodes", 0)),
    ("full not an object", put(*W0, "full", 8)),
    ("full field missing", drop(*W0, "full", "total_facts")),
    ("streaming field missing", drop(*W0, "streaming", "evicted_rows")),
    ("count not an integer", put(*W0, "streaming", "total_facts", 8.5)),
    ("seconds negative", put(*W0, "full", "seconds", -0.1)),
    ("ratio negative", put(*W0, "ratio", -0.5)),
    ("identical false", put(*W0, "identical", False)),
    ("streaming peak > full peak",
     put(*W0, "streaming", "peak_resident_facts", 9)),
    ("memo_hits > memo_queries", put(*W0, "streaming", "memo_hits", 3)),
    ("memo_hit_rate > 1", put(*W0, "streaming", "memo_hit_rate", 1.5)),
    ("suite not an object", put("suite", [])),
    ("suite field missing", drop("suite", "bound")),
    ("suite peak not an integer",
     put("suite", "full_peak_resident_facts", "8")),
    ("suite bound negative", put("suite", "bound", -1)),
    ("within_bound not a boolean", put("suite", "within_bound", 1)),
    ("suite ratio disagrees", put("suite", "ratio", 0.6)),
]

SUITES = [
    ("metrics_augment", METRICS_AUGMENT, AUGMENT_CASES),
    ("metrics_reason", METRICS_REASON, REASON_CASES),
    ("lint", LINT, LINT_CASES),
    ("engine_bench", ENGINE_BENCH, ENGINE_CASES),
    ("chase_memory", CHASE_MEMORY, CHASE_CASES),
]


def main():
    failures = []
    for name, doc, cases in SUITES:
        s = schema(name)
        errors = list(check_json.validate(doc, s))
        if errors:
            failures.append(f"{name}: conforming fixture rejected: {errors}")
        for what, mutate in cases:
            bad = copy.deepcopy(doc)
            mutate(bad)
            if not list(check_json.validate(bad, s)):
                failures.append(f"{name}: '{what}' was accepted")
    # The command line: exit 0 on a conforming document, 1 otherwise.
    with tempfile.TemporaryDirectory() as tmp:
        good = os.path.join(tmp, "good.json")
        bad = os.path.join(tmp, "bad.json")
        with open(good, "w") as f:
            json.dump(CHASE_MEMORY, f)
        with open(bad, "w") as f:
            f.write("{not json")
        cmd = [sys.executable, os.path.join(HERE, "check_json.py"),
               os.path.join(HERE, "schemas", "chase_memory.json")]
        for docs, want in (([good], 0), ([good, bad], 1)):
            rc = subprocess.run(cmd + docs, capture_output=True).returncode
            if rc != want:
                failures.append(f"check_json.py {docs} exited {rc}, "
                                f"expected {want}")
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    total = sum(len(cases) for _, _, cases in SUITES)
    print(f"{len(SUITES)} schemas, {total} perturbations, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
