#include "datalog/engine.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "common/fault_injection.h"
#include "datalog/analysis/analyzer.h"
#include "datalog/analysis/cost.h"
#include "datalog/analysis/harmful.h"

namespace vadalink::datalog {

namespace {

/// Equality with int/double numeric coercion (1 == 1.0).
bool ValuesEqualCoerced(const Value& a, const Value& b) {
  if (a == b) return true;
  if (a.is_numeric() && b.is_numeric()) return a.AsNumber() == b.AsNumber();
  return false;
}

/// Static cost analysis of `program` seeded with the live relation sizes
/// of `db` (predicates with rows keep their actual cardinality; empty /
/// unknown ones fall back to the analysis defaults). Used for the
/// planner's cold-relation priors and Query()'s cost admission.
analysis::CostReport ComputeStaticCost(const Database* db,
                                       const Program& program) {
  const Catalog* cat = db->catalog();
  analysis::CostOptions copt;
  copt.edb_cardinalities.assign(cat->predicates.size(), -1.0);
  for (uint32_t p = 0; p < cat->predicates.size(); ++p) {
    const Relation* rel = db->relation(p);
    if (rel != nullptr && rel->size() > 0) {
      copt.edb_cardinalities[p] = static_cast<double>(rel->size());
    }
  }
  return analysis::AnalyzeCost(program, *cat, copt);
}

/// True if the expression tree contains a '#function' call (calls may
/// intern symbols or invent Skolem terms, so they disqualify a rule from
/// the parallel match phase).
bool HasCall(const Expr& e) {
  if (e.op == Expr::Op::kCall) return true;
  for (const Expr& c : e.children) {
    if (HasCall(c)) return true;
  }
  return false;
}

/// Evictability analysis of the streaming chase (DESIGN.md section 13).
///
/// A predicate p may have exhausted delta epochs released iff every future
/// read can only touch its current delta window:
///  * p is an IDB predicate (some rule head derives it) — EDB relations
///    are the caller's data and are never touched;
///  * p is never negated ("not p(...)" re-reads arbitrary old rows);
///  * every rule reading p positively is in p's own stratum (a later
///    stratum opens with a naive pass over the FULL relation), mentions p
///    exactly once among its positive atoms, and every other positive atom
///    of that rule is closed (not an IDB head — a delta firing on a
///    co-atom would join against old p rows);
///  * p is not an @output, unless `sink_set`: callers scan outputs after
///    the run, so their rows must survive — or be streamed out on
///    eviction;
///  * p is not the query goal (Engine::Query scans it for answers).
std::vector<bool> ComputeEvictable(const Program& program,
                                   const Stratification& strat,
                                   size_t num_preds, bool sink_set,
                                   uint32_t goal_pred) {
  std::vector<bool> is_head(num_preds, false);
  for (const Rule& rule : program.rules) {
    for (const Atom& head : rule.head) is_head[head.predicate] = true;
  }

  std::vector<bool> evictable = is_head;
  if (goal_pred < num_preds) evictable[goal_pred] = false;
  if (!sink_set) {
    for (uint32_t p : program.outputs) {
      if (p < num_preds) evictable[p] = false;
    }
  }

  std::vector<uint32_t> rule_stratum(program.rules.size(), 0);
  for (uint32_t s = 0; s < strat.strata.size(); ++s) {
    for (uint32_t r : strat.strata[s]) rule_stratum[r] = s;
  }

  for (uint32_t r = 0; r < program.rules.size(); ++r) {
    const Rule& rule = program.rules[r];
    std::vector<uint32_t> reads;  // positive IDB atoms of this rule
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kNegatedAtom) {
        evictable[lit.atom.predicate] = false;
      } else if (lit.kind == Literal::Kind::kAtom &&
                 is_head[lit.atom.predicate]) {
        reads.push_back(lit.atom.predicate);
      }
    }
    for (uint32_t p : reads) {
      size_t occurrences = 0;
      for (uint32_t q : reads) occurrences += (q == p);
      // More than one IDB atom in the body (p twice, or p joined with
      // another IDB predicate) means some delta firing re-reads old rows.
      if (occurrences != 1 || reads.size() != 1 ||
          rule_stratum[r] != strat.predicate_stratum[p]) {
        evictable[p] = false;
      }
    }
  }
  return evictable;
}

}  // namespace

Value Engine::AggState::Current(AggKind kind) const {
  switch (kind) {
    case AggKind::kMSum:
    case AggKind::kMProd:
      return all_int ? Value::Int(ival) : Value::Double(dval);
    case AggKind::kMMin:
    case AggKind::kMMax:
      return best;
    case AggKind::kMCount:
      return Value::Int(count);
  }
  return Value();
}

// ---------------------------------------------------------------------------
// Construction / preparation
// ---------------------------------------------------------------------------

Engine::Engine(Database* db, EngineOptions options)
    : db_(db), options_(options) {
  functions_.RegisterStandardLibrary();
}

Status Engine::Prepare(const Program& program) {
  compiled_.clear();
  compiled_.reserve(program.rules.size());

  Catalog* cat = db_->catalog();
  resolved_fns_.assign(cat->functions.size(), nullptr);
  for (uint32_t f = 0; f < cat->functions.size(); ++f) {
    resolved_fns_[f] = functions_.Find(cat->functions.Name(f));
  }

  for (uint32_t r = 0; r < program.rules.size(); ++r) {
    const Rule& src = program.rules[r];
    CompiledRule cr;
    cr.id = r;
    cr.rule = src;
    cr.rule.body.clear();

    // Greedy reorder: pull ready filters/assignments forward, keep positive
    // atoms in source order, hold the aggregate back until every atom and
    // negation is placed (a contribution must correspond to a full match of
    // the relational part of the body).
    const size_t nvars = src.var_names.size();
    std::vector<bool> placed(src.body.size(), false);
    std::vector<bool> bound(nvars, false);
    size_t relational_remaining = 0;
    for (const Literal& l : src.body) {
      if (l.kind == Literal::Kind::kAtom ||
          l.kind == Literal::Kind::kNegatedAtom) {
        ++relational_remaining;
      }
    }

    auto expr_ready = [&](const Expr& e) {
      std::vector<bool> used(nvars, false);
      CollectExprVars(e, &used);
      for (size_t v = 0; v < nvars; ++v) {
        if (used[v] && !bound[v]) return false;
      }
      return true;
    };

    size_t placed_count = 0;
    while (placed_count < src.body.size()) {
      int take = -1;
      // 1. any ready non-atom, non-aggregate literal
      for (size_t i = 0; i < src.body.size() && take < 0; ++i) {
        if (placed[i]) continue;
        const Literal& l = src.body[i];
        switch (l.kind) {
          case Literal::Kind::kComparison:
            if (expr_ready(l.lhs) && expr_ready(l.rhs)) take = (int)i;
            break;
          case Literal::Kind::kAssignment:
            if (l.rhs.is_aggregate()) {
              if (relational_remaining == 0 && expr_ready(l.rhs)) {
                take = (int)i;
              }
            } else if (expr_ready(l.rhs)) {
              take = (int)i;
            }
            break;
          case Literal::Kind::kNegatedAtom: {
            bool ok = true;
            for (const Term& t : l.atom.args) {
              if (t.is_var() && !bound[t.var]) ok = false;
            }
            if (ok) take = (int)i;
            break;
          }
          default:
            break;
        }
      }
      // 2. next positive atom in source order
      if (take < 0) {
        for (size_t i = 0; i < src.body.size(); ++i) {
          if (!placed[i] && src.body[i].kind == Literal::Kind::kAtom) {
            take = (int)i;
            break;
          }
        }
      }
      if (take < 0) {
        return Status::InvalidArgument(
            "rule at " + src.span.ToString() +
            " cannot be ordered for evaluation (unbound variables): " +
            RuleToString(src, *cat));
      }
      const Literal& l = src.body[take];
      placed[take] = true;
      ++placed_count;
      if (l.kind == Literal::Kind::kAtom) {
        --relational_remaining;
        for (const Term& t : l.atom.args) {
          if (t.is_var()) bound[t.var] = true;
        }
      } else if (l.kind == Literal::Kind::kNegatedAtom) {
        --relational_remaining;
      } else if (l.kind == Literal::Kind::kAssignment) {
        bound[l.target_var] = true;
      }
      cr.rule.body.push_back(l);
    }

    // Positive atom positions within the reordered body.
    for (size_t i = 0; i < cr.rule.body.size(); ++i) {
      if (cr.rule.body[i].kind == Literal::Kind::kAtom) {
        cr.positive_atoms.push_back(i);
      }
      if (cr.rule.body[i].kind == Literal::Kind::kAssignment &&
          cr.rule.body[i].rhs.is_aggregate()) {
        cr.has_agg = true;
        cr.agg_pos = i;
      }
    }

    // Frontier (body-bound head vars) and existential vars.
    std::vector<bool> body_bound = BodyBoundVars(cr.rule);
    std::vector<bool> in_head(nvars, false);
    for (const Atom& h : cr.rule.head) {
      for (const Term& t : h.args) {
        if (t.is_var()) in_head[t.var] = true;
      }
    }
    for (uint32_t v = 0; v < nvars; ++v) {
      if (in_head[v] && body_bound[v]) cr.frontier_vars.push_back(v);
      if (in_head[v] && !body_bound[v]) cr.existential_vars.push_back(v);
    }

    // Aggregate group key: head vars bound by the body, minus the target.
    if (cr.has_agg) {
      uint32_t target = cr.rule.body[cr.agg_pos].target_var;
      for (uint32_t v : cr.frontier_vars) {
        if (v != target) cr.agg_group_vars.push_back(v);
      }
    }

    // Validate function references are resolvable.
    for (const Literal& l : cr.rule.body) {
      Status st = Status::OK();
      auto check = [&](const Expr& e, auto&& self) -> void {
        if (!st.ok()) return;
        if (e.op == Expr::Op::kCall && resolved_fns_[e.function] == nullptr) {
          st = Status::InvalidArgument(
              "unknown function #" + cat->functions.Name(e.function) +
              " in rule at " + src.span.ToString());
        }
        for (const Expr& c : e.children) self(c, self);
      };
      if (l.kind == Literal::Kind::kComparison) {
        check(l.lhs, check);
        check(l.rhs, check);
      } else if (l.kind == Literal::Kind::kAssignment) {
        check(l.rhs, check);
      }
      VL_RETURN_NOT_OK(st);
    }

    // Planner / parallel eligibility (see CompiledRule). Reordering is
    // only legal when match enumeration order is invisible; the parallel
    // phase additionally excludes '#function' calls (they may intern
    // symbols) and needs an atom to anchor the fan-out on.
    cr.reorderable = !cr.has_agg && cr.existential_vars.empty();
    cr.parallel_ok = cr.reorderable && !cr.positive_atoms.empty();
    for (const Literal& l : cr.rule.body) {
      if (!cr.parallel_ok) break;
      if (l.kind == Literal::Kind::kComparison &&
          (HasCall(l.lhs) || HasCall(l.rhs))) {
        cr.parallel_ok = false;
      }
      if (l.kind == Literal::Kind::kAssignment && HasCall(l.rhs)) {
        cr.parallel_ok = false;
      }
    }

    compiled_.push_back(std::move(cr));
  }

  // Streaming: mark the rules whose null-carrying frontiers the pattern
  // memo may collapse. Only engaged for warded programs — the memo's
  // isomorphism argument is a wardedness property (analysis/harmful.h).
  if (options_.streaming) {
    analysis::HarmfulVarReport harmful =
        analysis::AnalyzeHarmfulVariables(program, *cat);
    if (harmful.warded) {
      for (CompiledRule& cr : compiled_) {
        cr.memo_eligible = harmful.rules[cr.id].memo_eligible;
      }
    }
  }

  // Static cardinality priors: the hi bounds of the cost analysis, seeded
  // with live relation sizes. BuildPlan falls back to them for relations
  // that are still cold (no rows, hence no index statistics) — before this,
  // every cold atom cost 0.0 and the planner ordered them arbitrarily.
  {
    analysis::CostReport cost = ComputeStaticCost(db_, program);
    cost_prior_hi_.assign(cost.predicates.size(), 0.0);
    for (size_t p = 0; p < cost.predicates.size(); ++p) {
      cost_prior_hi_[p] = cost.predicates[p].hi;
    }
    program_cost_estimate_ = cost.program_cost;
  }

  plan_cache_.clear();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Join planning
// ---------------------------------------------------------------------------

const Engine::JoinPlan& Engine::PlanFor(const CompiledRule& cr,
                                        int delta_occurrence) {
  const uint64_t key = (static_cast<uint64_t>(cr.id) << 16) |
                       static_cast<uint16_t>(delta_occurrence + 1);
  auto it = plan_cache_.find(key);
  if (it != plan_cache_.end()) {
    ++stats_.plan_cache_hits;
    return it->second;
  }
  ++stats_.plans_computed;
  return plan_cache_.emplace(key, BuildPlan(cr, delta_occurrence))
      .first->second;
}

Engine::JoinPlan Engine::BuildPlan(const CompiledRule& cr,
                                   int delta_occurrence) {
  const auto& body = cr.rule.body;
  const size_t nvars = cr.rule.var_names.size();
  const Database* cdb = static_cast<const Database*>(db_);
  const Catalog* cat = db_->catalog();
  const bool worst = options_.join_order == JoinOrder::kWorstCase;

  JoinPlan plan;
  plan.steps.reserve(body.size());
  std::vector<bool> bound(nvars, false);
  std::vector<bool> placed(body.size(), false);
  size_t relational_remaining = 0;
  for (const Literal& l : body) {
    if (l.kind == Literal::Kind::kAtom ||
        l.kind == Literal::Kind::kNegatedAtom) {
      ++relational_remaining;
    }
  }

  auto expr_ready = [&](const Expr& e) {
    std::vector<bool> used(nvars, false);
    CollectExprVars(e, &used);
    for (size_t v = 0; v < nvars; ++v) {
      if (used[v] && !bound[v]) return false;
    }
    return true;
  };

  // Probe column of an atom given the current bound set. kPlanned picks
  // the bound/constant column with the most distinct values (tightest
  // posting lists); non-reorderable rules and kWorstCase keep the legacy
  // first-bound-argument choice so their candidate enumeration matches
  // the compiled order exactly.
  auto choose_probe = [&](const Atom& a, bool best_distinct) {
    int probe = -1;
    size_t best = 0;
    const Relation* rel = cdb->relation(a.predicate);
    for (size_t p = 0; p < a.args.size(); ++p) {
      const Term& t = a.args[p];
      if (t.is_var() && !bound[t.var]) continue;
      if (!best_distinct) return static_cast<int>(p);
      const size_t d = rel == nullptr ? 0 : rel->DistinctCount(p);
      if (probe < 0 || d > best) {
        probe = static_cast<int>(p);
        best = d;
      }
    }
    return probe;
  };

  // Estimated rows the atom contributes per outer match: relation size
  // over the probe column's distinct count, or the full size when no
  // argument is bound yet. Cold relations (no rows, hence no index
  // statistics — typically IDB predicates before their stratum fills
  // them) fall back to the static cardinality prior from the cost
  // analysis, with a sqrt(N) distinct-count stand-in per bound column.
  auto atom_cost = [&](const Atom& a) -> double {
    const Relation* rel = cdb->relation(a.predicate);
    if (rel == nullptr || rel->size() == 0) {
      const double n = a.predicate < cost_prior_hi_.size()
                           ? cost_prior_hi_[a.predicate]
                           : 0.0;
      if (n <= 0.0) return 0.0;
      ++stats_.cost_priors_used;
      double best = n;
      const double d = std::max(1.0, std::sqrt(n));
      for (size_t p = 0; p < a.args.size(); ++p) {
        const Term& t = a.args[p];
        if (t.is_var() && !bound[t.var]) continue;
        best = std::min(best, n / d);
      }
      return best;
    }
    const double n = static_cast<double>(rel->size());
    double best = n;
    for (size_t p = 0; p < a.args.size(); ++p) {
      const Term& t = a.args[p];
      if (t.is_var() && !bound[t.var]) continue;
      const double d = static_cast<double>(rel->DistinctCount(p));
      if (d > 0) best = std::min(best, n / d);
    }
    return best;
  };

  auto place = [&](size_t i, bool is_delta) {
    const Literal& l = body[i];
    PlanStep step;
    step.lit = static_cast<uint32_t>(i);
    step.is_delta = is_delta;
    if (l.kind == Literal::Kind::kAtom) {
      step.probe_arg = choose_probe(l.atom, cr.reorderable && !worst);
      --relational_remaining;
      if (!plan.steps.empty() && step.probe_arg >= 0) {
        plan.warm_probes.push_back(
            {l.atom.predicate, static_cast<uint32_t>(step.probe_arg)});
      }
      if (!plan.desc.empty()) plan.desc += " ";
      plan.desc += cat->predicates.Name(l.atom.predicate);
      if (is_delta) plan.desc += "[delta]";
      plan.desc += step.probe_arg >= 0
                       ? "@" + std::to_string(step.probe_arg)
                       : "@scan";
      // Compile one action per column against the static bound set; a
      // repeated variable binds at its first column and checks after.
      step.args.reserve(l.atom.args.size());
      for (const Term& t : l.atom.args) {
        ArgOp op;
        if (!t.is_var()) {
          op.kind = ArgOp::Kind::kCheckConst;
          op.constant = t.constant;
        } else if (bound[t.var]) {
          op.kind = ArgOp::Kind::kCheckVar;
          op.var = t.var;
        } else {
          op.kind = ArgOp::Kind::kBindVar;
          op.var = t.var;
          bound[t.var] = true;
        }
        step.args.push_back(op);
      }
      if (step.probe_arg >= 0) {
        // choose_probe only picks constant or already-bound columns, so
        // the probe value source is static too — and every posting-list
        // row matches it exactly, making the column's check redundant.
        const Term& t = l.atom.args[static_cast<size_t>(step.probe_arg)];
        step.probe_is_var = t.is_var();
        if (t.is_var()) {
          step.probe_var = t.var;
        } else {
          step.probe_const = t.constant;
        }
        step.args[static_cast<size_t>(step.probe_arg)].kind =
            ArgOp::Kind::kSkip;
        // Inserts below this step only ever target the rule's head
        // predicates; if this atom's predicate is not one of them, its
        // index cannot move mid-iteration and the posting list may be
        // walked in place (epoch stays put, so the debug stamp agrees).
        step.probe_in_place = true;
        for (const Atom& h : cr.rule.head) {
          if (h.predicate == l.atom.predicate) step.probe_in_place = false;
        }
      }
    } else if (l.kind == Literal::Kind::kNegatedAtom) {
      --relational_remaining;
      if (!plan.desc.empty()) plan.desc += " ";
      plan.desc += "!" + cat->predicates.Name(l.atom.predicate);
    } else if (l.kind == Literal::Kind::kAssignment) {
      step.target_prebound = bound[l.target_var];
      bound[l.target_var] = true;
      if (!plan.desc.empty()) plan.desc += " ";
      plan.desc += l.rhs.is_aggregate() ? "agg" : "let";
    } else {
      if (!plan.desc.empty()) plan.desc += " ";
      plan.desc += "cmp";
    }
    placed[i] = true;
    plan.steps.push_back(step);
  };

  if (!cr.reorderable) {
    // Compiled order verbatim; only probe columns are chosen.
    for (size_t i = 0; i < body.size(); ++i) {
      const bool is_delta =
          delta_occurrence >= 0 && body[i].kind == Literal::Kind::kAtom &&
          cr.positive_atoms[static_cast<size_t>(delta_occurrence)] == i;
      place(i, is_delta);
    }
    return plan;
  }

  // Anchor: the delta atom in semi-naive rounds (bind the freshest facts
  // first), otherwise the cheapest atom (most expensive under kWorstCase).
  if (delta_occurrence >= 0) {
    place(cr.positive_atoms[static_cast<size_t>(delta_occurrence)],
          /*is_delta=*/true);
  } else if (!cr.positive_atoms.empty()) {
    size_t anchor = cr.positive_atoms[0];
    double anchor_cost = atom_cost(body[anchor].atom);
    for (size_t k = 1; k < cr.positive_atoms.size(); ++k) {
      const size_t i = cr.positive_atoms[k];
      const double c = atom_cost(body[i].atom);
      if (worst ? c > anchor_cost : c < anchor_cost) {
        anchor = i;
        anchor_cost = c;
      }
    }
    place(anchor, /*is_delta=*/false);
  }

  size_t placed_count = plan.steps.size();
  while (placed_count < body.size()) {
    // 1. Every ready filter / negation / assignment runs as early as
    //    possible (they only ever shrink the match set). The aggregate
    //    waits for the full relational part, exactly as in Prepare().
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (size_t i = 0; i < body.size(); ++i) {
        if (placed[i]) continue;
        const Literal& l = body[i];
        bool ready = false;
        switch (l.kind) {
          case Literal::Kind::kComparison:
            ready = expr_ready(l.lhs) && expr_ready(l.rhs);
            break;
          case Literal::Kind::kAssignment:
            ready = l.rhs.is_aggregate()
                        ? relational_remaining == 0 && expr_ready(l.rhs)
                        : expr_ready(l.rhs);
            break;
          case Literal::Kind::kNegatedAtom: {
            ready = true;
            for (const Term& t : l.atom.args) {
              if (t.is_var() && !bound[t.var]) ready = false;
            }
            break;
          }
          default:
            break;
        }
        if (ready) {
          place(i, false);
          ++placed_count;
          progressed = true;
        }
      }
    }
    if (placed_count == body.size()) break;

    // 2. Next atom by estimated selectivity (inverted under kWorstCase;
    //    ties broken by body position for determinism).
    int take = -1;
    double take_cost = 0.0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (placed[i] || body[i].kind != Literal::Kind::kAtom) continue;
      const double c = atom_cost(body[i].atom);
      if (take < 0 || (worst ? c > take_cost : c < take_cost)) {
        take = static_cast<int>(i);
        take_cost = c;
      }
    }
    if (take < 0) {
      // Unreachable: Prepare() proved a valid order exists, atoms have no
      // preconditions, and readiness is monotone in the bound set. Fall
      // back to compiled order to stay safe in release builds.
      assert(false && "join planner stuck on an orderable rule");
      for (size_t i = 0; i < body.size(); ++i) {
        if (!placed[i]) {
          place(i, false);
          ++placed_count;
        }
      }
      break;
    }
    place(static_cast<size_t>(take), false);
    ++placed_count;
  }
  return plan;
}

std::vector<std::string> Engine::PlanSummaries() const {
  std::vector<uint64_t> keys;
  keys.reserve(plan_cache_.size());
  for (const auto& [key, plan] : plan_cache_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  const Catalog* cat = db_->catalog();
  std::vector<std::string> out;
  out.reserve(keys.size());
  for (uint64_t key : keys) {
    const uint32_t rule = static_cast<uint32_t>(key >> 16);
    const int occ = static_cast<int>(key & 0xffff) - 1;
    std::string line = "rule " + std::to_string(rule);
    if (occ >= 0 && rule < compiled_.size()) {
      const CompiledRule& cr = compiled_[rule];
      const uint32_t pred =
          cr.rule.body[cr.positive_atoms[static_cast<size_t>(occ)]]
              .atom.predicate;
      line += " delta " + cat->predicates.Name(pred) + "#" +
              std::to_string(occ);
    }
    line += ": " + plan_cache_.at(key).desc;
    out.push_back(std::move(line));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

Result<Value> Engine::Eval(const Expr& e, const CompiledRule& rule,
                           const std::vector<Value>& subst) {
  switch (e.op) {
    case Expr::Op::kConst:
      return e.constant;
    case Expr::Op::kVar:
      return subst[e.var];
    case Expr::Op::kNeg: {
      VL_ASSIGN_OR_RETURN(Value v, Eval(e.children[0], rule, subst));
      if (v.is_int()) return Value::Int(-v.AsInt());
      if (v.is_double()) return Value::Double(-v.AsDouble());
      return Status::InvalidArgument("unary minus on non-numeric value");
    }
    case Expr::Op::kAdd:
    case Expr::Op::kSub:
    case Expr::Op::kMul:
    case Expr::Op::kDiv:
    case Expr::Op::kMod: {
      VL_ASSIGN_OR_RETURN(Value a, Eval(e.children[0], rule, subst));
      VL_ASSIGN_OR_RETURN(Value b, Eval(e.children[1], rule, subst));
      if (!a.is_numeric() || !b.is_numeric()) {
        return Status::InvalidArgument("arithmetic on non-numeric values");
      }
      if (e.op == Expr::Op::kDiv) {
        double denom = b.AsNumber();
        if (denom == 0.0) return Status::InvalidArgument("division by zero");
        return Value::Double(a.AsNumber() / denom);
      }
      if (a.is_int() && b.is_int()) {
        int64_t x = a.AsInt(), y = b.AsInt();
        switch (e.op) {
          case Expr::Op::kAdd: return Value::Int(x + y);
          case Expr::Op::kSub: return Value::Int(x - y);
          case Expr::Op::kMul: return Value::Int(x * y);
          case Expr::Op::kMod:
            if (y == 0) return Status::InvalidArgument("modulo by zero");
            return Value::Int(x % y);
          default: break;
        }
      }
      double x = a.AsNumber(), y = b.AsNumber();
      switch (e.op) {
        case Expr::Op::kAdd: return Value::Double(x + y);
        case Expr::Op::kSub: return Value::Double(x - y);
        case Expr::Op::kMul: return Value::Double(x * y);
        default:
          return Status::InvalidArgument("mod on non-integer values");
      }
    }
    case Expr::Op::kCall: {
      const ExternalFn* fn = resolved_fns_[e.function];
      if (fn == nullptr) {
        return Status::InvalidArgument(
            "unknown function #" +
            db_->catalog()->functions.Name(e.function));
      }
      std::vector<Value> args;
      args.reserve(e.children.size());
      for (const Expr& c : e.children) {
        VL_ASSIGN_OR_RETURN(Value v, Eval(c, rule, subst));
        args.push_back(v);
      }
      FunctionContext ctx{&db_->catalog()->symbols, db_->skolems()};
      return (*fn)(ctx, args);
    }
    case Expr::Op::kAggregate:
      return Status::Internal("aggregate evaluated outside assignment");
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> Engine::EvalComparison(const Literal& lit,
                                    const CompiledRule& rule,
                                    const std::vector<Value>& subst) {
  VL_ASSIGN_OR_RETURN(Value a, Eval(lit.lhs, rule, subst));
  VL_ASSIGN_OR_RETURN(Value b, Eval(lit.rhs, rule, subst));
  switch (lit.cmp) {
    case CmpOp::kEq: return ValuesEqualCoerced(a, b);
    case CmpOp::kNe: return !ValuesEqualCoerced(a, b);
    default: break;
  }
  // Ordered comparisons: numerics numerically, symbols lexicographically.
  int c;
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.AsNumber(), y = b.AsNumber();
    c = x < y ? -1 : (x > y ? 1 : 0);
  } else if (a.is_symbol() && b.is_symbol()) {
    const auto& sa = db_->catalog()->symbols.Name(a.symbol_id());
    const auto& sb = db_->catalog()->symbols.Name(b.symbol_id());
    c = sa.compare(sb);
    c = c < 0 ? -1 : (c > 0 ? 1 : 0);
  } else {
    return Status::InvalidArgument(
        "ordered comparison between incompatible values");
  }
  switch (lit.cmp) {
    case CmpOp::kLt: return c < 0;
    case CmpOp::kLe: return c <= 0;
    case CmpOp::kGt: return c > 0;
    case CmpOp::kGe: return c >= 0;
    default: return Status::Internal("unreachable comparison");
  }
}

// ---------------------------------------------------------------------------
// Rule evaluation
// ---------------------------------------------------------------------------

Status Engine::EmitHead(CompiledRule& cr, MatchCtx* ctx) {
  ++stats_.body_matches;
  VL_RETURN_NOT_OK(CheckRun(options_.run_ctx));

  // Invent nulls for existential vars, memoised on the frontier.
  if (!cr.existential_vars.empty()) {
    std::vector<Value> frontier;
    frontier.reserve(cr.frontier_vars.size());
    for (uint32_t v : cr.frontier_vars) frontier.push_back(ctx->subst[v]);
    // Streaming: a frontier differing from an earlier one only in its
    // labeled nulls re-fires the rule isomorphically — every fact it
    // would derive is a null renaming of facts already derived. Skip it.
    // Ground frontiers never enter the memo, so non-existential workloads
    // are byte-identical with streaming on or off.
    if (cr.memo_eligible) {
      bool has_null = false;
      for (const Value& v : frontier) has_null = has_null || v.is_null();
      if (has_null) {
        ++stats_.memo_queries;
        if (pattern_memo_.SeenOrInsert(cr.id, frontier)) {
          ++stats_.memo_hits;
          return Status::OK();
        }
      }
    }
    for (uint32_t v : cr.existential_vars) {
      size_t before = db_->nulls()->size();
      uint64_t id = db_->nulls()->Get(cr.id, v, frontier);
      if (db_->nulls()->size() > before) ++stats_.nulls_invented;
      ctx->subst[v] = Value::Null(id);
    }
  }

  for (const Atom& head : cr.rule.head) {
    std::vector<Value>& tuple = ctx->tuple_scratch;
    tuple.clear();
    tuple.reserve(head.args.size());
    for (const Term& t : head.args) {
      tuple.push_back(t.is_var() ? ctx->subst[t.var] : t.constant);
    }
    VL_ASSIGN_OR_RETURN(
        bool inserted,
        db_->Insert(head.predicate, tuple.data(), tuple.size()));
    if (inserted) {
      ++stats_.facts_derived;
      ctx->inserted_any = true;
      VL_RETURN_NOT_OK(ConsumeRunWork(options_.run_ctx, 1));
      if (options_.trace_provenance) {
        const Relation* rel = db_->relation(head.predicate);
        uint64_t key = (static_cast<uint64_t>(head.predicate) << 32) |
                       static_cast<uint64_t>(rel->size() - 1);
        provenance_.emplace(key, Derivation{cr.id, ctx->premises});
      }
    }
  }
  if (db_->TotalFacts() > options_.max_facts) {
    return Status::ResourceExhausted("fact limit exceeded (" +
                                     std::to_string(options_.max_facts) +
                                     "); chase aborted");
  }
  return Status::OK();
}

Status Engine::MatchFrom(
    CompiledRule& cr, const JoinPlan& plan, size_t step,
    const std::vector<std::pair<size_t, size_t>>& deltas, MatchCtx* ctx) {
  if (step == plan.steps.size()) {
    if (ctx->collect != nullptr) {
      // Parallel collect phase: capture the match, defer every mutation
      // (insert, stats, provenance) to the sequential commit.
      CollectedMatch m;
      m.premises = ctx->premises;
      m.head_tuples.reserve(cr.rule.head.size());
      for (const Atom& head : cr.rule.head) {
        std::vector<Value> tuple;
        tuple.reserve(head.args.size());
        for (const Term& t : head.args) {
          tuple.push_back(t.is_var() ? ctx->subst[t.var] : t.constant);
        }
        m.head_tuples.push_back(std::move(tuple));
      }
      ctx->collect->push_back(std::move(m));
      return Status::OK();
    }
    return EmitHead(cr, ctx);
  }
  const PlanStep& ps = plan.steps[step];
  const Literal& lit = cr.rule.body[ps.lit];
  switch (lit.kind) {
    case Literal::Kind::kAtom: {
      // Const lookup: the non-const overload may resize the relation
      // vector, which the parallel collect phase must never do (and the
      // sequential path does not need).
      const Relation* rel =
          static_cast<const Database*>(db_)->relation(lit.atom.predicate);
      if (rel == nullptr || rel->size() == 0) return Status::OK();
      if (rel->arity() != lit.atom.args.size()) {
        return Status::InvalidArgument(
            "arity mismatch for predicate '" +
            db_->catalog()->predicates.Name(lit.atom.predicate) +
            "' in rule at " + cr.rule.span.ToString());
      }
      size_t lo = 0, hi = rel->size();
      if (ps.is_delta) {
        lo = deltas[lit.atom.predicate].first;
        hi = std::min(hi, deltas[lit.atom.predicate].second);
        if (lo >= hi) return Status::OK();
      }

      // Bind one candidate row against the atom's compiled per-column
      // actions and recurse. Boundness is static per plan position, so
      // there is no runtime bound-set and nothing to unbind on a failed
      // or exhausted match: stale substitution entries are always
      // overwritten by a later bind before any read. Cells are read
      // column-wise before the recursive call; row ids are stable under
      // appends, so nothing here dangles when a recursive insert
      // reallocates a column.
      auto try_row = [&](uint32_t idx) -> Status {
        VL_RETURN_NOT_OK(CheckRun(options_.run_ctx));
        for (size_t a = 0; a < ps.args.size(); ++a) {
          const ArgOp& op = ps.args[a];
          const Value& cell = rel->at(a, idx);
          switch (op.kind) {
            case ArgOp::Kind::kBindVar:
              ctx->subst[op.var] = cell;
              break;
            case ArgOp::Kind::kCheckVar:
              if (!(cell == ctx->subst[op.var])) return Status::OK();
              break;
            case ArgOp::Kind::kCheckConst:
              if (!(cell == op.constant)) return Status::OK();
              break;
            case ArgOp::Kind::kSkip:
              break;
          }
        }
        if (ctx->track_premises) {
          ctx->premises.push_back({lit.atom.predicate, idx});
          Status st = MatchFrom(cr, plan, step + 1, deltas, ctx);
          ctx->premises.pop_back();
          return st;
        }
        return MatchFrom(cr, plan, step + 1, deltas, ctx);
      };

      if (ps.probe_arg >= 0) {
        const Value& pv =
            ps.probe_is_var ? ctx->subst[ps.probe_var] : ps.probe_const;
        PostingView hits = rel->Probe(static_cast<size_t>(ps.probe_arg), pv);
        ++ctx->probes;
        if (hits.empty()) return Status::OK();
        const uint32_t* b = hits.begin();
        const uint32_t* e = hits.end();
        if (lo > 0 || hi < rel->size()) {
          // Posting lists are ascending row ids; slice the delta window.
          b = std::lower_bound(b, e, static_cast<uint32_t>(lo));
          e = std::lower_bound(b, e, static_cast<uint32_t>(hi));
        }
        if (ctx->collect != nullptr || ps.probe_in_place) {
          // Read-only phase, or a predicate no insert below can touch:
          // iterate the posting list in place.
          for (const uint32_t* p = b; p != e; ++p) {
            VL_RETURN_NOT_OK(try_row(*p));
          }
        } else {
          // Inserts deeper in the recursion can extend the index and move
          // the posting list; run over a copied snapshot (per-step scratch,
          // no steady-state allocation).
          std::vector<uint32_t>& cands = ctx->cand[step];
          cands.assign(b, e);
          for (uint32_t idx : cands) VL_RETURN_NOT_OK(try_row(idx));
        }
      } else {
        // Full scan of the (delta) range; row ids are stable, no copy.
        for (size_t idx = lo; idx < hi; ++idx) {
          VL_RETURN_NOT_OK(try_row(static_cast<uint32_t>(idx)));
        }
      }
      return Status::OK();
    }

    case Literal::Kind::kNegatedAtom: {
      std::vector<Value>& tuple = ctx->tuple_scratch;
      tuple.clear();
      tuple.reserve(lit.atom.args.size());
      for (const Term& t : lit.atom.args) {
        tuple.push_back(t.is_var() ? ctx->subst[t.var] : t.constant);
      }
      const Relation* rel =
          static_cast<const Database*>(db_)->relation(lit.atom.predicate);
      if (rel != nullptr && rel->arity() != SIZE_MAX &&
          rel->arity() != tuple.size()) {
        return Status::InvalidArgument(
            "arity mismatch under negation for predicate '" +
            db_->catalog()->predicates.Name(lit.atom.predicate) + "'");
      }
      if (rel != nullptr && rel->Contains(tuple.data(), tuple.size())) {
        return Status::OK();
      }
      return MatchFrom(cr, plan, step + 1, deltas, ctx);
    }

    case Literal::Kind::kComparison: {
      // Fast path for the overwhelmingly common shape: both operands are
      // plain variables or constants, compared as numbers or for
      // (in)equality. Anything else (symbols, arithmetic, calls) takes
      // the general evaluator.
      const Expr& le = lit.lhs;
      const Expr& re = lit.rhs;
      if ((le.op == Expr::Op::kVar || le.op == Expr::Op::kConst) &&
          (re.op == Expr::Op::kVar || re.op == Expr::Op::kConst)) {
        const Value& a =
            le.op == Expr::Op::kVar ? ctx->subst[le.var] : le.constant;
        const Value& b =
            re.op == Expr::Op::kVar ? ctx->subst[re.var] : re.constant;
        bool pass = false;
        bool handled = true;
        switch (lit.cmp) {
          case CmpOp::kEq: pass = ValuesEqualCoerced(a, b); break;
          case CmpOp::kNe: pass = !ValuesEqualCoerced(a, b); break;
          default:
            if (a.is_numeric() && b.is_numeric()) {
              const double x = a.AsNumber(), y = b.AsNumber();
              switch (lit.cmp) {
                case CmpOp::kLt: pass = x < y; break;
                case CmpOp::kLe: pass = x <= y; break;
                case CmpOp::kGt: pass = x > y; break;
                case CmpOp::kGe: pass = x >= y; break;
                default: handled = false; break;
              }
            } else {
              handled = false;
            }
        }
        if (handled) {
          if (!pass) return Status::OK();
          return MatchFrom(cr, plan, step + 1, deltas, ctx);
        }
      }
      VL_ASSIGN_OR_RETURN(bool pass, EvalComparison(lit, cr, ctx->subst));
      if (!pass) return Status::OK();
      return MatchFrom(cr, plan, step + 1, deltas, ctx);
    }

    case Literal::Kind::kAssignment: {
      if (!lit.rhs.is_aggregate()) {
        Value v;
        if (lit.rhs.op == Expr::Op::kVar) {
          v = ctx->subst[lit.rhs.var];
        } else if (lit.rhs.op == Expr::Op::kConst) {
          v = lit.rhs.constant;
        } else {
          VL_ASSIGN_OR_RETURN(Value ev, Eval(lit.rhs, cr, ctx->subst));
          v = ev;
        }
        if (ps.target_prebound) {
          if (!ValuesEqualCoerced(ctx->subst[lit.target_var], v)) {
            return Status::OK();
          }
          return MatchFrom(cr, plan, step + 1, deltas, ctx);
        }
        ctx->subst[lit.target_var] = v;
        return MatchFrom(cr, plan, step + 1, deltas, ctx);
      }

      // Monotonic aggregate: consume the contribution (at most once per
      // distinct contributor binding) and continue with the running value.
      const Expr& agg = lit.rhs;
      AggKey key;
      key.rule = cr.id;
      key.group.reserve(cr.agg_group_vars.size());
      for (uint32_t v : cr.agg_group_vars) key.group.push_back(ctx->subst[v]);

      std::vector<Value> contrib;
      contrib.reserve(agg.contributors.size());
      for (uint32_t v : agg.contributors) contrib.push_back(ctx->subst[v]);

      AggState& state = agg_states_[key];
      if (!state.contributors.insert(contrib).second) {
        // Already contributed: the running value is unchanged, and any head
        // facts it could produce were already produced. Prune.
        return Status::OK();
      }

      if (agg.agg == AggKind::kMCount) {
        ++state.count;
      } else {
        VL_ASSIGN_OR_RETURN(Value v, Eval(agg.children[0], cr, ctx->subst));
        if (agg.agg == AggKind::kMMin || agg.agg == AggKind::kMMax) {
          if (!v.is_numeric()) {
            return Status::InvalidArgument("mmin/mmax on non-numeric value");
          }
          if (!state.initialized) {
            state.best = v;
          } else {
            bool better = agg.agg == AggKind::kMMin
                              ? v.AsNumber() < state.best.AsNumber()
                              : v.AsNumber() > state.best.AsNumber();
            if (better) state.best = v;
          }
        } else {
          if (!v.is_numeric()) {
            return Status::InvalidArgument("msum/mprod on non-numeric value");
          }
          if (v.is_double()) state.all_int = false;
          if (!state.initialized) {
            state.dval = v.AsNumber();
            state.ival = v.is_int() ? v.AsInt() : 0;
          } else if (agg.agg == AggKind::kMSum) {
            state.dval += v.AsNumber();
            state.ival += v.is_int() ? v.AsInt() : 0;
          } else {  // kMProd
            state.dval *= v.AsNumber();
            state.ival *= v.is_int() ? v.AsInt() : 1;
          }
        }
        state.initialized = true;
      }

      ctx->subst[lit.target_var] = state.Current(agg.agg);
      Status st = MatchFrom(cr, plan, step + 1, deltas, ctx);
      // Note: the contribution is intentionally NOT rolled back — it was a
      // genuine match of the relational body; only post-aggregate filters
      // (e.g. thresholds) may have rejected emission this time.
      return st;
    }
  }
  return Status::Internal("unreachable literal kind");
}

Status Engine::EvalRule(CompiledRule& cr, int delta_occurrence,
                        const std::vector<std::pair<size_t, size_t>>& deltas) {
  const JoinPlan& plan = PlanFor(cr, delta_occurrence);
  const size_t nvars = cr.rule.var_names.size();
  MatchCtx ctx;
  ctx.subst.assign(nvars, Value());
  ctx.track_premises = options_.trace_provenance;
  ctx.cand.resize(plan.steps.size());
  Status st = MatchFrom(cr, plan, 0, deltas, &ctx);
  stats_.join_probes += ctx.probes;
  return st;
}

Status Engine::CommitMatch(CompiledRule& cr, const CollectedMatch& match) {
  ++stats_.body_matches;
  VL_RETURN_NOT_OK(CheckRun(options_.run_ctx));
  for (size_t h = 0; h < cr.rule.head.size(); ++h) {
    const Atom& head = cr.rule.head[h];
    VL_ASSIGN_OR_RETURN(bool inserted,
                        db_->Insert(head.predicate, match.head_tuples[h]));
    if (inserted) {
      ++stats_.facts_derived;
      VL_RETURN_NOT_OK(ConsumeRunWork(options_.run_ctx, 1));
      if (options_.trace_provenance) {
        const Relation* rel = db_->relation(head.predicate);
        uint64_t key = (static_cast<uint64_t>(head.predicate) << 32) |
                       static_cast<uint64_t>(rel->size() - 1);
        provenance_.emplace(key, Derivation{cr.id, match.premises});
      }
    }
  }
  if (db_->TotalFacts() > options_.max_facts) {
    return Status::ResourceExhausted("fact limit exceeded (" +
                                     std::to_string(options_.max_facts) +
                                     "); chase aborted");
  }
  return Status::OK();
}

Status Engine::ParallelEvalRule(
    CompiledRule& cr, int delta_occurrence,
    const std::vector<std::pair<size_t, size_t>>& deltas) {
  const JoinPlan& plan = PlanFor(cr, delta_occurrence);
  const Database* cdb = static_cast<const Database*>(db_);
  // Warm every index the workers will probe; from here to the commit loop
  // the database is only read (enforced by the parallel-read guard below).
  for (const auto& [pred, arg_pos] : plan.warm_probes) {
    const Relation* r = cdb->relation(pred);
    if (r != nullptr) r->WarmIndex(arg_pos);
  }

  // Anchor atom (plan step 0, guaranteed an atom by parallel_ok):
  // enumerate its candidates exactly like MatchFrom would, then fan the
  // list out in chunks.
  const PlanStep& anchor = plan.steps[0];
  const Literal& lit = cr.rule.body[anchor.lit];
  const Relation* rel = cdb->relation(lit.atom.predicate);
  if (rel == nullptr || rel->size() == 0) return Status::OK();
  if (rel->arity() != lit.atom.args.size()) {
    return Status::InvalidArgument(
        "arity mismatch for predicate '" +
        db_->catalog()->predicates.Name(lit.atom.predicate) +
        "' in rule at " + cr.rule.span.ToString());
  }
  size_t lo = 0, hi = rel->size();
  if (anchor.is_delta) {
    lo = deltas[lit.atom.predicate].first;
    hi = std::min(hi, deltas[lit.atom.predicate].second);
    if (lo >= hi) return Status::OK();
  }
  uint64_t anchor_probes = 0;
  std::vector<uint32_t> candidates;
  if (anchor.probe_arg >= 0) {
    // No variable is bound at depth 0, so the probe term is a constant.
    assert(!anchor.probe_is_var);
    PostingView hits =
        rel->Probe(static_cast<size_t>(anchor.probe_arg), anchor.probe_const);
    ++anchor_probes;
    const uint32_t* b = hits.begin();
    const uint32_t* e = hits.end();
    b = std::lower_bound(b, e, static_cast<uint32_t>(lo));
    e = std::lower_bound(b, e, static_cast<uint32_t>(hi));
    candidates.assign(b, e);
  } else {
    candidates.reserve(hi - lo);
    for (size_t idx = lo; idx < hi; ++idx) {
      candidates.push_back(static_cast<uint32_t>(idx));
    }
  }
  if (candidates.empty()) return Status::OK();

  const size_t nvars = cr.rule.var_names.size();
  const size_t g = ResolveGrain(candidates.size(), 0, options_.pool);
  const size_t num_chunks = (candidates.size() + g - 1) / g;
  std::vector<std::vector<CollectedMatch>> chunk_matches(num_chunks);
  std::vector<uint64_t> chunk_probes(num_chunks, 0);

  // Workers only read: Insert and cold-index Probe debug-assert until the
  // matching guard below is released.
  db_->BeginParallelRead();
  Status match_st = ParallelFor(
      options_.pool, candidates.size(), 0, options_.run_ctx,
      [&](size_t begin, size_t end, size_t chunk) {
        MatchCtx ctx;
        ctx.subst.assign(nvars, Value());
        ctx.track_premises = options_.trace_provenance;
        ctx.cand.resize(plan.steps.size());
        ctx.collect = &chunk_matches[chunk];
        Status st = Status::OK();
        for (size_t i = begin; i < end && st.ok(); ++i) {
          st = CheckRun(options_.run_ctx);
          if (!st.ok()) break;
          uint32_t idx = candidates[i];
          bool match = true;
          for (size_t a = 0; a < anchor.args.size() && match; ++a) {
            const ArgOp& op = anchor.args[a];
            const Value& cell = rel->at(a, idx);
            switch (op.kind) {
              case ArgOp::Kind::kBindVar:
                ctx.subst[op.var] = cell;
                break;
              case ArgOp::Kind::kCheckVar:
                match = cell == ctx.subst[op.var];
                break;
              case ArgOp::Kind::kCheckConst:
                match = cell == op.constant;
                break;
              case ArgOp::Kind::kSkip:
                break;
            }
          }
          if (match) {
            if (ctx.track_premises) {
              ctx.premises.push_back({lit.atom.predicate, idx});
            }
            st = MatchFrom(cr, plan, 1, deltas, &ctx);
            if (ctx.track_premises) ctx.premises.pop_back();
          }
        }
        // Per-chunk totals are summed after the join (order-independent),
        // so the published probe count is identical at every thread count.
        chunk_probes[chunk] = ctx.probes;
        return st;
      });
  db_->EndParallelRead();

  stats_.join_probes += anchor_probes;
  for (uint64_t p : chunk_probes) stats_.join_probes += p;

  // Single-threaded merge in ascending chunk order keeps insert order —
  // and thus fact indices, provenance and stats — deterministic. Chunks
  // that completed before a governor trip still commit, mirroring the
  // sequential "facts derived before the trip stay" behavior.
  for (const auto& matches : chunk_matches) {
    for (const CollectedMatch& m : matches) {
      VL_RETURN_NOT_OK(CommitMatch(cr, m));
    }
  }
  return match_st;
}

// ---------------------------------------------------------------------------
// Fixpoint driver
// ---------------------------------------------------------------------------

std::vector<size_t> Engine::RelationSizes() const {
  const size_t num_preds = db_->catalog()->predicates.size();
  std::vector<size_t> out(num_preds, 0);
  for (uint32_t p = 0; p < num_preds; ++p) {
    const Relation* rel = static_cast<const Database*>(db_)->relation(p);
    out[p] = rel ? rel->size() : 0;
  }
  return out;
}

Status Engine::EvalStratum(const std::vector<uint32_t>& rule_ids,
                           const std::vector<size_t>* initial_before) {
  const size_t num_preds = db_->catalog()->predicates.size();
  auto sizes = [&]() { return RelationSizes(); };

  // Parallel delta joins need a pool with real workers and an eligible
  // rule; everything else takes the sequential evaluator. threads = 1
  // keeps the legacy path bit-identical.
  const bool pooled =
      options_.pool != nullptr && options_.pool->thread_count() > 1;
  auto eval_rule = [&](CompiledRule& cr, int delta_occurrence,
                       const std::vector<std::pair<size_t, size_t>>& deltas) {
    if (pooled && cr.parallel_ok) {
      return ParallelEvalRule(cr, delta_occurrence, deltas);
    }
    return EvalRule(cr, delta_occurrence, deltas);
  };

  std::vector<size_t> before;
  if (initial_before == nullptr) {
    // Naive first pass.
    before = sizes();
    for (uint32_t r : rule_ids) {
      VL_RETURN_NOT_OK(eval_rule(compiled_[r], -1, {}));
    }
  } else {
    // Incremental: the delta window opens at the previous run's sizes.
    before = *initial_before;
    before.resize(num_preds, 0);
  }
  std::vector<size_t> after = sizes();
  stats_.peak_resident_facts =
      std::max(stats_.peak_resident_facts, db_->ResidentFacts());

  // Semi-naive iterations.
  size_t iteration = 0;
  while (after != before) {
    if (++iteration > options_.max_iterations) {
      return Status::ResourceExhausted(
          "iteration limit exceeded; chase aborted");
    }
    VL_RETURN_NOT_OK(CheckRunNow(options_.run_ctx));
    ++stats_.iterations;
    std::vector<std::pair<size_t, size_t>> deltas(num_preds);
    size_t delta_total = 0;
    for (uint32_t p = 0; p < num_preds; ++p) {
      deltas[p] = {before[p], after[p]};
      delta_total += after[p] - before[p];
    }
    // Streaming chase: rows below a predicate's delta window were fully
    // consumed — as the naive pass or an earlier delta anchor — and the
    // evictability analysis guarantees no plan reads them again, so their
    // column storage can go. @output rows stream to the sink first.
    for (uint32_t p = 0; !evictable_.empty() && p < num_preds; ++p) {
      if (!evictable_[p] || deltas[p].first == 0) continue;
      Relation* rel = db_->relation(p);
      const size_t watermark = deltas[p].first;
      if (watermark <= rel->first_resident()) continue;
      if (sink_outputs_[p]) {
        std::vector<Value> tuple(rel->arity());
        for (size_t r = rel->first_resident(); r < watermark; ++r) {
          for (size_t pos = 0; pos < tuple.size(); ++pos) {
            tuple[pos] = rel->at(pos, static_cast<uint32_t>(r));
          }
          options_.evict_sink(p, tuple.data(), tuple.size());
        }
      }
      stats_.evicted_rows += db_->EvictBelow(p, watermark);
    }
    // The per-iteration delta is a property of the semi-naive schedule,
    // not of the execution order, so the histogram is identical at every
    // thread count.
    MetricRecord(options_.metrics, "engine.delta.size", delta_total);
    before = after;
    for (uint32_t r : rule_ids) {
      CompiledRule& cr = compiled_[r];
      for (size_t k = 0; k < cr.positive_atoms.size(); ++k) {
        uint32_t pred =
            cr.rule.body[cr.positive_atoms[k]].atom.predicate;
        if (deltas[pred].first >= deltas[pred].second) continue;
        VL_RETURN_NOT_OK(eval_rule(cr, static_cast<int>(k), deltas));
      }
    }
    after = sizes();
    stats_.peak_resident_facts =
        std::max(stats_.peak_resident_facts, db_->ResidentFacts());
  }
  return Status::OK();
}

void Engine::PublishChaseMetrics() {
  MetricsRegistry* m = options_.metrics;
  if (m != nullptr) {
    // Saturating diff: stats_.strata is overwritten (not accumulated) per
    // call, so an incremental run of a smaller program could dip below the
    // published mark.
    auto diff = [](size_t now, size_t pub) { return now > pub ? now - pub : 0; };
    MetricAdd(m, "engine.strata", diff(stats_.strata, published_.strata));
    MetricAdd(m, "engine.iterations",
              diff(stats_.iterations, published_.iterations));
    MetricAdd(m, "engine.body_matches",
              diff(stats_.body_matches, published_.body_matches));
    MetricAdd(m, "engine.facts_derived",
              diff(stats_.facts_derived, published_.facts_derived));
    MetricAdd(m, "engine.nulls.invented",
              diff(stats_.nulls_invented, published_.nulls_invented));
    MetricAdd(m, "engine.plan.probes",
              diff(stats_.join_probes, published_.join_probes));
    MetricAdd(m, "engine.plan.computed",
              diff(stats_.plans_computed, published_.plans_computed));
    MetricAdd(m, "engine.plan.cache_hits",
              diff(stats_.plan_cache_hits, published_.plan_cache_hits));
    // engine.cost.*: the static cost analysis feeding the planner. The
    // program estimate is a property of the last Prepare()d program, so
    // it publishes as a gauge; priors_used counts cold-relation plan
    // decisions taken from the static intervals.
    MetricAdd(m, "engine.cost.priors_used",
              diff(stats_.cost_priors_used, published_.cost_priors_used));
    MetricSet(m, "engine.cost.program_estimate", program_cost_estimate_);
    // engine.memory.*: the streaming chase's space account. The peak is a
    // per-run high-water mark, so it publishes as a gauge, not a counter.
    if (options_.streaming) {
      MetricSet(m, "engine.memory.peak_resident_facts",
                stats_.peak_resident_facts);
      MetricAdd(m, "engine.memory.evicted_rows",
                diff(stats_.evicted_rows, published_.evicted_rows));
      MetricAdd(m, "engine.memory.memo_queries",
                diff(stats_.memo_queries, published_.memo_queries));
      MetricAdd(m, "engine.memory.memo_hits",
                diff(stats_.memo_hits, published_.memo_hits));
    }
  }
  published_ = stats_;
}

Status Engine::Preflight(const Program& program) {
  if (!options_.preflight) return Status::OK();
  analysis::AnalysisReport report =
      analysis::AnalyzeProgram(program, *db_->catalog());
  if (report.has_errors()) {
    return Status::InvalidArgument(
        "program rejected by static analysis pre-flight (" +
        std::to_string(report.error_count()) + " error(s)):\n" +
        report.Render());
  }
  if (options_.metrics != nullptr && !report.diagnostics.empty()) {
    MetricAdd(options_.metrics, "analysis.warnings",
              report.warning_count());
    for (const analysis::Diagnostic& d : report.diagnostics) {
      MetricAdd(options_.metrics, "analysis.diag." + d.code, 1);
    }
  }
  return Status::OK();
}

Status Engine::Run(const Program& program) {
  Status st = RunImpl(program);
  last_abort_status_ = st;  // OK after a completed run
  return st;
}

Result<QueryReport> Engine::Query(const Program& program,
                                  const QueryGoal& goal) {
  const auto plan_start = std::chrono::steady_clock::now();
  Status preflight = Preflight(program);
  if (!preflight.ok()) {
    last_abort_status_ = preflight;
    return preflight;
  }

  MagicResult magic = MagicRewrite(program, db_->catalog(), goal);
  query_program_ = std::make_unique<Program>(std::move(magic.program));

  // Static cost of the program the chase will actually run (rewritten or
  // pruned), seeded with live relation sizes. Everything up to here —
  // preflight, dataflow, rewrite, estimation — is the planning phase the
  // plan_us clock covers.
  const double estimated_cost =
      ComputeStaticCost(db_, *query_program_).program_cost;
  const uint64_t plan_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - plan_start)
          .count());
  if (options_.metrics != nullptr) {
    MetricRecord(options_.metrics, "engine.query.plan.us", plan_us);
  }

  // The rewritten program was already vetted through the source program's
  // pre-flight; its __magic_* constructs sit outside the analyzer's
  // warded fragment, so the inner run skips the gate. The goal is pinned
  // so the streaming chase never evicts the predicate the answer scan
  // below reads.
  const bool saved_preflight = options_.preflight;
  options_.preflight = false;
  Status st = RunImpl(*query_program_, goal.atom.predicate);
  options_.preflight = saved_preflight;
  last_abort_status_ = st;
  if (!st.ok()) return st;

  QueryReport report;
  report.rewritten = magic.rewritten;
  report.fallback_reason = magic.fallback_reason;
  report.fallback_code = magic.fallback_code;
  report.rules_pruned = magic.rules_pruned;
  report.magic_rules = magic.magic_rules;
  report.adornments = magic.adornments;
  report.facts_derived = stats_.facts_derived;
  report.estimated_cost = estimated_cost;
  report.plan_us = plan_us;
  for (RowRef row : db_->Scan(goal.atom.predicate)) {
    std::vector<Value> tuple = row.ToTuple();
    if (GoalMatches(goal, tuple)) report.answers.push_back(std::move(tuple));
  }
  std::sort(report.answers.begin(), report.answers.end());

  if (options_.metrics != nullptr) {
    MetricAdd(options_.metrics, "engine.query.runs", 1);
    if (!report.fallback_reason.empty()) {
      MetricAdd(options_.metrics, "engine.query.fallbacks", 1);
      // Per-cause breakdown: dashboards can tell a structural fallback
      // (negation, existentials) from an aggregate-escape one.
      if (!report.fallback_code.empty()) {
        MetricAdd(options_.metrics,
                  "engine.query.fallback." + report.fallback_code, 1);
      }
    }
    MetricAdd(options_.metrics, "engine.query.rules_pruned",
              report.rules_pruned);
    MetricAdd(options_.metrics, "engine.query.magic_rules",
              report.magic_rules);
    MetricAdd(options_.metrics, "engine.query.answers",
              report.answers.size());
  }
  return report;
}

Status Engine::RunIncremental(const Program& program) {
  if (last_run_aborted_) {
    // Name the aborting run's limit status so the caller can tell a
    // deadline trip from a budget trip from a cancellation without
    // spelunking: "previous run aborted (DeadlineExceeded: ...)".
    std::string cause = last_abort_status_.ok() ? "unknown cause"
                                                : last_abort_status_.ToString();
    return Status::InvalidArgument(
        "previous run aborted (" + cause +
        "); the delta window is unreliable — call Run() to re-establish "
        "the fixpoint");
  }
  if (db_->HasEvicted()) {
    // An incremental pass joins new deltas against the FULL old relations;
    // the streaming chase released exactly that column data.
    return Status::FailedPrecondition(
        "the streaming chase evicted " + std::to_string(db_->EvictedRows()) +
        " fact row(s) from this database; an incremental continuation "
        "would join against storage that no longer exists — re-run the "
        "program with streaming off on a fresh database to continue "
        "incrementally");
  }
  Status st = RunIncrementalImpl(program);
  last_abort_status_ = st;
  return st;
}

Status Engine::RunImpl(const Program& program, uint32_t pinned_pred) {
  VL_FAULT_POINT("engine.run");
  program_ = &program;
  stats_ = EngineStats{};
  published_ = EngineStats{};
  agg_states_.clear();
  // Pessimistically aborted until the chase completes, so an early return
  // on any path below leaves the engine in the "aborted" state.
  last_run_aborted_ = true;

  VL_RETURN_NOT_OK(Preflight(program));

  for (const Atom& fact : program.facts) {
    std::vector<Value> tuple;
    tuple.reserve(fact.args.size());
    for (const Term& t : fact.args) tuple.push_back(t.constant);
    VL_ASSIGN_OR_RETURN(bool inserted,
                        db_->Insert(fact.predicate, std::move(tuple)));
    (void)inserted;
  }

  VL_RETURN_NOT_OK(Prepare(program));
  VL_ASSIGN_OR_RETURN(Stratification strat,
                      Stratify(program, *db_->catalog()));
  stats_.strata = strat.strata.size();

  // Streaming chase setup: decide which predicates may shed exhausted
  // delta epochs and re-home their relations into paged storage.
  // Provenance pins every derived row (Explain reads them back), so
  // eviction stays off under trace_provenance.
  evictable_.clear();
  sink_outputs_.clear();
  pattern_memo_ = PatternMemo();
  if (options_.streaming && !options_.trace_provenance) {
    const size_t num_preds = db_->catalog()->predicates.size();
    evictable_ = ComputeEvictable(program, strat, num_preds,
                                  options_.evict_sink != nullptr, pinned_pred);
    sink_outputs_.assign(num_preds, false);
    if (options_.evict_sink != nullptr) {
      for (uint32_t p : program.outputs) {
        if (p < num_preds) sink_outputs_[p] = evictable_[p];
      }
    }
    for (uint32_t p = 0; p < num_preds; ++p) {
      if (evictable_[p]) db_->SetStreaming(p);
    }
  }

  ScopedSpan span(options_.metrics, "chase", options_.run_ctx);
  for (const auto& stratum_rules : strat.strata) {
    if (!stratum_rules.empty()) {
      VL_FAULT_POINT("engine.stratum");
      VL_RETURN_NOT_OK(EvalStratum(stratum_rules, nullptr));
    }
  }
  last_run_sizes_ = RelationSizes();
  last_run_aborted_ = false;
  PublishChaseMetrics();
  return Status::OK();
}

Status Engine::RunIncrementalImpl(const Program& program) {
  program_ = &program;
  for (const Rule& rule : program.rules) {
    for (const Literal& lit : rule.body) {
      if (lit.kind == Literal::Kind::kNegatedAtom) {
        return Status::Unsupported(
            "RunIncremental does not support negation (new facts could "
            "invalidate earlier conclusions); use Run()");
      }
    }
  }

  VL_RETURN_NOT_OK(Preflight(program));

  for (const Atom& fact : program.facts) {
    std::vector<Value> tuple;
    tuple.reserve(fact.args.size());
    for (const Term& t : fact.args) tuple.push_back(t.constant);
    VL_ASSIGN_OR_RETURN(bool inserted,
                        db_->Insert(fact.predicate, std::move(tuple)));
    (void)inserted;
  }

  VL_RETURN_NOT_OK(Prepare(program));
  VL_ASSIGN_OR_RETURN(Stratification strat,
                      Stratify(program, *db_->catalog()));
  stats_.strata = strat.strata.size();
  // Continuations never evict: the incremental delta windows are anchored
  // at the previous run's sizes, not at this run's consumption frontier.
  evictable_.clear();
  sink_outputs_.clear();
  std::vector<size_t> window_start = last_run_sizes_;
  last_run_aborted_ = true;
  ScopedSpan span(options_.metrics, "chase", options_.run_ctx);
  for (const auto& stratum_rules : strat.strata) {
    if (!stratum_rules.empty()) {
      VL_RETURN_NOT_OK(EvalStratum(stratum_rules, &window_start));
    }
  }
  last_run_sizes_ = RelationSizes();
  last_run_aborted_ = false;
  PublishChaseMetrics();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

std::string Engine::Explain(uint32_t predicate,
                            const std::vector<Value>& tuple,
                            size_t max_depth) const {
  std::string out;
  const Catalog* cat = db_->catalog();

  auto render = [&](uint32_t pred, RowRef row) {
    std::string s = cat->predicates.Name(pred) + "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ", ";
      s += row[i].ToString(cat->symbols);
    }
    return s + ")";
  };

  struct Item {
    uint32_t pred;
    uint32_t idx;
    size_t depth;
  };
  const Relation* rel = static_cast<const Database*>(db_)->relation(predicate);
  if (rel == nullptr) return "(unknown predicate)\n";
  int64_t idx = rel->Find(tuple);
  if (idx < 0) return "(fact not present)\n";

  std::vector<Item> stack{{predicate, static_cast<uint32_t>(idx), 0}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const Relation* r =
        static_cast<const Database*>(db_)->relation(item.pred);
    out += std::string(item.depth * 2, ' ') +
           render(item.pred, r->Row(item.idx));
    uint64_t key =
        (static_cast<uint64_t>(item.pred) << 32) | item.idx;
    auto it = provenance_.find(key);
    if (it == provenance_.end()) {
      out += "  (asserted)\n";
      continue;
    }
    out += "  <- rule " + std::to_string(it->second.rule);
    if (program_ != nullptr && it->second.rule < program_->rules.size()) {
      out += " [line " +
             std::to_string(program_->rules[it->second.rule].span.line) + "]";
    }
    out += "\n";
    if (item.depth + 1 <= max_depth) {
      for (auto rit = it->second.premises.rbegin();
           rit != it->second.premises.rend(); ++rit) {
        stack.push_back({rit->first, rit->second, item.depth + 1});
      }
    }
  }
  return out;
}

}  // namespace vadalink::datalog
