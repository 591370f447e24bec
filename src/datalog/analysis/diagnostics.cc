#include "datalog/analysis/diagnostics.h"

#include <cmath>
#include <cstdlib>

namespace vadalink::datalog::analysis {

namespace {

/// Rounds to 6 significant digits. The cost model's values (integers,
/// powers of ten, the cap) then render the same on every platform.
double RoundSignificant6(double v) {
  if (v == 0.0 || !std::isfinite(v)) return v;
  const int shift = 5 - static_cast<int>(std::floor(std::log10(std::fabs(v))));
  double scale = 1.0;  // 10^|shift|, exact up to 1e22
  for (int i = 0; i < std::abs(shift); ++i) scale *= 10.0;
  return shift >= 0 ? std::round(v * scale) / scale
                    : std::round(v / scale) * scale;
}

Json Cost(double v) { return Json::Double(RoundSignificant6(v)); }

Json Count(uint64_t v) { return Json::Int(static_cast<int64_t>(v)); }

}  // namespace

const char* SeverityName(Severity s) {
  switch (s) {
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

size_t AnalysisReport::error_count() const {
  size_t n = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::kError) ++n;
  }
  return n;
}

size_t AnalysisReport::warning_count() const {
  return diagnostics.size() - error_count();
}

std::string AnalysisReport::Render() const {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += SeverityName(d.severity);
    out += "[" + d.code + "]";
    if (d.rule_index != Diagnostic::kNoRule) {
      out += " rule " + std::to_string(d.rule_index);
    }
    if (d.span.known()) {
      out += " (" + d.span.ToString() + ")";
    }
    out += ": " + d.message;
    if (!d.predicate.empty()) {
      out += " [predicate " + d.predicate + "]";
    }
    out += "\n";
    if (!d.hint.empty()) {
      out += "    hint: " + d.hint + "\n";
    }
  }
  return out;
}

Json AnalysisReport::ToJson(const std::string& program_name) const {
  Json summary = Json::MakeObject();
  summary.Set("errors", Count(error_count()));
  summary.Set("warnings", Count(warning_count()));
  summary.Set("diagnostics", Count(diagnostics.size()));
  Json diags = Json::MakeArray();
  for (const Diagnostic& d : diagnostics) {
    Json j = Json::MakeObject();
    j.Set("severity", Json::Str(SeverityName(d.severity)));
    j.Set("code", Json::Str(d.code));
    j.Set("rule", Json::Int(d.rule_index == Diagnostic::kNoRule
                                ? -1
                                : static_cast<int64_t>(d.rule_index)));
    j.Set("predicate", Json::Str(d.predicate));
    j.Set("line", Count(d.span.line));
    j.Set("col", Count(d.span.col));
    j.Set("message", Json::Str(d.message));
    j.Set("hint", Json::Str(d.hint));
    diags.Append(std::move(j));
  }
  Json doc = Json::MakeObject();
  doc.Set("schema_version", Json::Int(1));
  doc.Set("program", Json::Str(program_name));
  doc.Set("summary", std::move(summary));
  doc.Set("diagnostics", std::move(diags));
  if (!cost.present) return doc;

  Json predicates = Json::MakeArray();
  for (const CostPredicateEntry& p : cost.predicates) {
    Json j = Json::MakeObject();
    j.Set("predicate", Json::Str(p.predicate));
    j.Set("lo", Cost(p.lo));
    j.Set("hi", Cost(p.hi));
    j.Set("growth", Json::Str(p.growth));
    predicates.Append(std::move(j));
  }
  Json rules = Json::MakeArray();
  for (const CostRuleEntry& r : cost.rules) {
    Json j = Json::MakeObject();
    j.Set("rule", Count(r.rule));
    j.Set("join_cost", Cost(r.join_cost));
    j.Set("output_rows", Cost(r.output_rows));
    j.Set("cartesian", Json::Bool(r.cartesian));
    j.Set("unbound_self_join", Json::Bool(r.unbound_self_join));
    rules.Append(std::move(j));
  }
  Json c = Json::MakeObject();
  c.Set("program_cost", Cost(cost.program_cost));
  c.Set("recursive_sccs", Count(cost.recursive_sccs));
  c.Set("warded_only_sccs", Count(cost.warded_only_sccs));
  c.Set("predicates", std::move(predicates));
  c.Set("rules", std::move(rules));
  doc.Set("cost", std::move(c));
  return doc;
}

}  // namespace vadalink::datalog::analysis
