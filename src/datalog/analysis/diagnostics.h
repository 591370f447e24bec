// Structured diagnostics for the Datalog± program analyzer.
//
// Every diagnostic carries a stable code, a severity, the rule it concerns
// and a source position, so callers can render it for humans, serialise it
// as JSON (validated against tools/schemas/lint.json) or count it into
// metrics. Diagnostic code catalog (see DESIGN.md section 9):
//
//   VL000  error    parse error (lint CLI only: the program never reached
//                   the analyzer; the message is the parser's, with its
//                   line/col carried over)
//   VL001  error    safety: variable in comparison/assignment not bound by
//                   any positive body atom or assignment
//   VL002  error    safety: variable appears only under negation
//   VL003  error    safety: aggregate misuse (several aggregates per rule,
//                   aggregate outside assignment top level, missing value)
//   VL004  error    shape: rule without a head / non-ground fact
//   VL010  error    wardedness: dangerous variables do not share a body
//                   atom (no ward exists)
//   VL011  error    wardedness: the ward shares a harmful variable with
//                   another body atom
//   VL020  error    stratification: negation through recursion (the
//                   message names the predicate cycle)
//   VL021  warning  non-monotone use of an aggregate result inside a
//                   recursive rule (e.g. msum compared with '<')
//   VL030  warning  hygiene: predicate is derived/asserted but never read
//                   and not @output
//   VL031  warning  hygiene: dead rule — its head predicates cannot reach
//                   any @output predicate
//   VL032  warning  hygiene: singleton variable (one body occurrence, not
//                   '_'-prefixed, unused elsewhere)
//   VL033  error    arity conflict: predicate used with different arities
//   VL034  warning  hygiene: predicate name shadows a builtin function or
//                   aggregate name
//   VL040  warning  cost: rule body is a cartesian product — its positive
//                   atoms split into variable-disjoint groups
//   VL041  warning  cost: unbound self-join — two positive occurrences of
//                   one predicate share no variable
//   VL042  warning  cost: estimated rule output exceeds the configured
//                   budget (CostOptions::rule_output_budget)
//   VL050  warning  termination: recursive SCC invents labeled nulls that
//                   feed back into the cycle — termination rests on the
//                   warded chase only (growth class "warded_only")
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.h"
#include "datalog/ast.h"

namespace vadalink::datalog::analysis {

enum class Severity : uint8_t { kWarning, kError };

const char* SeverityName(Severity s);

struct Diagnostic {
  static constexpr uint32_t kNoRule = UINT32_MAX;

  Severity severity = Severity::kWarning;
  std::string code;            // stable "VLxxx" code
  uint32_t rule_index = kNoRule;  // kNoRule = program-level diagnostic
  std::string predicate;       // offending predicate name ("" if n/a)
  SourceSpan span;             // 0/0 when no source position is known
  std::string message;
  std::string hint;            // actionable fix hint ("" if none)
};

/// One predicate's cardinality interval rendered for the lint JSON.
struct CostPredicateEntry {
  std::string predicate;
  double lo = 0.0;
  double hi = 0.0;
  std::string growth;  // SccGrowthName of the predicate's component
};

/// One rule's cost estimate rendered for the lint JSON.
struct CostRuleEntry {
  uint32_t rule = 0;
  double join_cost = 0.0;
  double output_rows = 0.0;
  bool cartesian = false;
  bool unbound_self_join = false;
};

/// Optional cost block attached by the analyzer's VL04x/VL05x pass
/// (AnalyzerOptions::cost). Serialised under "cost" in ToJson.
struct CostSummary {
  bool present = false;
  double program_cost = 0.0;
  uint64_t recursive_sccs = 0;
  uint64_t warded_only_sccs = 0;
  std::vector<CostPredicateEntry> predicates;
  std::vector<CostRuleEntry> rules;
};

struct AnalysisReport {
  std::vector<Diagnostic> diagnostics;
  CostSummary cost;

  size_t error_count() const;
  size_t warning_count() const;
  bool has_errors() const { return error_count() > 0; }

  /// Human-readable rendering, one diagnostic per line:
  ///   error[VL010] rule 2 (line 4, col 3): message
  ///       hint: ...
  std::string Render() const;

  /// The stable JSON document (schema_version 1); validated in CI by
  /// tools/check_json.py against tools/schemas/lint.json. `program_name`
  /// labels the document (usually the source file path). Cost figures are
  /// rounded to 6 significant digits.
  Json ToJson(const std::string& program_name) const;
};

}  // namespace vadalink::datalog::analysis
