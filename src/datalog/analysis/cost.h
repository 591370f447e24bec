// Static cost & termination analysis for Vadalog programs (DESIGN.md
// section 14).
//
// AnalyzeCost propagates EDB relation cardinalities — from declared seeds
// (Database statistics) or fact counts, with a configurable default for
// relations loaded at runtime — through the rule dependency graph
// (datalog/stratify.h) and produces:
//
//  * per-predicate cardinality intervals [lo, hi]: lo counts the facts
//    that are certainly present (asserted facts / EDB seeds), hi bounds
//    the derivable extension, capped by the growth class of the
//    predicate's strongly connected component;
//  * per-rule join-cost estimates: a greedy left-deep join simulation
//    mirroring the engine's planner (cheapest estimated atom first, a
//    sqrt(N) distinct-count stand-in per bound column), summing
//    intermediate result sizes as the work proxy and reporting the final
//    size as the rule's output estimate;
//  * growth classification of every recursive SCC: kBounded
//    (non-recursive), kLinearInEdb (recursive but null-free — the
//    extension is polynomial in the active domain), kWardedOnly
//    (null-generating recursion whose termination rests on wardedness;
//    harmful-variable facts from analysis/harmful.h decide whether the
//    invented nulls actually feed back into the cycle).
//
// The report is advisory and never fails. Three consumers:
//  1. the engine's join planner seeds cold relations (no rows, no index
//     statistics yet) with the hi bound as a selectivity prior;
//  2. Engine::Query attaches the rewritten program's total estimate to
//     its QueryReport;
//  3. the analyzer's VL04x/VL05x pass turns the per-rule flags into lint
//     diagnostics and `vadalink lint --cost --json` exports the whole
//     report.
#pragma once

#include <cstdint>
#include <vector>

#include "datalog/ast.h"

namespace vadalink::datalog::analysis {

struct CostOptions {
  /// Cardinality assumed for an EDB predicate with no seed and no
  /// asserted facts (relations loaded at runtime).
  double default_edb_cardinality = 1000.0;
  /// Per-rule estimated output above which the analyzer emits VL042.
  double rule_output_budget = 1e8;
  /// Optional per-predicate cardinality seeds (predicate id -> row
  /// count), typically Relation::size() of a live Database. Entries < 0
  /// (or an empty/short vector) fall back to fact counts / the default.
  std::vector<double> edb_cardinalities;
};

/// Growth class of a predicate's strongly connected component.
enum class SccGrowth : uint8_t {
  /// Not on any dependency cycle: the extension is a finite function of
  /// its (already bounded) inputs.
  kBounded,
  /// Recursive but null-free: every derivable value already occurs in
  /// the EDB, so the extension is bounded by adom^arity (polynomial in
  /// the EDB — linear per position).
  kLinearInEdb,
  /// Null-generating recursion: a rule in the component invents labeled
  /// nulls that feed back into the cycle. Termination is guaranteed only
  /// by the warded chase; the hi bound saturates at the analysis cap.
  kWardedOnly,
};

const char* SccGrowthName(SccGrowth g);

/// Estimated extension of one predicate. hi saturates at kCostCap.
struct CardinalityInterval {
  double lo = 0.0;
  double hi = 0.0;
};

/// Cap for every estimate: beyond this the analysis reports "effectively
/// unbounded" rather than feigning precision.
inline constexpr double kCostCap = 1e15;

struct RuleCostEstimate {
  /// Sum of intermediate result sizes of the simulated greedy join — the
  /// work proxy the planner's probe counts are compared against.
  double join_cost = 0.0;
  /// Estimated matches of the full body (head facts per head atom).
  double output_rows = 0.0;
  /// The positive atoms fall into >= 2 variable-disjoint groups, so the
  /// body enumerates their cartesian product (VL040).
  bool cartesian = false;
  /// Two positive occurrences of the same predicate share no variable —
  /// a quadratic self-join no index can narrow (VL041).
  bool unbound_self_join = false;
  /// Predicate of the unbound self-join (valid when the flag is set).
  uint32_t self_join_pred = 0;
};

struct CostReport {
  /// Indexed by predicate id (catalog order).
  std::vector<CardinalityInterval> predicates;
  /// Growth class of each predicate's component, indexed by predicate id.
  std::vector<SccGrowth> growth;
  /// Aligned with Program::rules.
  std::vector<RuleCostEstimate> rules;
  /// Sum of all rule join costs — the program-level work estimate.
  double program_cost = 0.0;
  /// Recursive components found / those classified kWardedOnly.
  size_t recursive_sccs = 0;
  size_t warded_only_sccs = 0;
  /// Members (sorted predicate ids) of each kWardedOnly component, with a
  /// witness rule (an existential rule of the component) for diagnostics.
  std::vector<std::vector<uint32_t>> warded_only_components;
  std::vector<uint32_t> warded_only_witness_rule;
};

/// Analyses `program`; pure and deterministic, never fails.
CostReport AnalyzeCost(const Program& program, const Catalog& cat,
                       const CostOptions& options = {});

}  // namespace vadalink::datalog::analysis
