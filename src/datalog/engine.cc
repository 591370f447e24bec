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
/// intern symbols or invent Skolem terms, so a rule whose match phase
/// makes one matches on the calling thread).
bool HasCall(const Expr& e) {
  if (e.op == Expr::Op::kCall) return true;
  for (const Expr& c : e.children) {
    if (HasCall(c)) return true;
  }
  return false;
}

/// True if every variable `e` reads (an aggregate's contributors too) is
/// bound.
bool ExprReady(const Expr& e, const std::vector<bool>& bound) {
  std::vector<bool> used(bound.size(), false);
  CollectExprVars(e, &used);
  for (size_t v = 0; v < used.size(); ++v) {
    if (used[v] && !bound[v]) return false;
  }
  return true;
}

/// Atoms and negated atoms in `body`.
size_t CountRelational(const std::vector<Literal>& body) {
  size_t n = 0;
  for (const Literal& l : body) {
    n += l.kind == Literal::Kind::kAtom ||
         l.kind == Literal::Kind::kNegatedAtom;
  }
  return n;
}

/// When a non-atom literal may be placed, given the variables bound so
/// far — the one readiness rule of Prepare's compiled order and
/// BuildPlan's join order: a comparison or assignment once every
/// variable it reads is bound, a negated atom once all of its variables
/// are, and the aggregate only once no relational literal is left
/// (`relational_remaining` == 0), so each contribution is a full match of
/// the relational body. Positive atoms are never ready here; each caller
/// places them by its own policy.
bool FilterReady(const Literal& l, const std::vector<bool>& bound,
                 size_t relational_remaining) {
  switch (l.kind) {
    case Literal::Kind::kComparison:
      return ExprReady(l.lhs, bound) && ExprReady(l.rhs, bound);
    case Literal::Kind::kAssignment:
      return (!l.rhs.is_aggregate() || relational_remaining == 0) &&
             ExprReady(l.rhs, bound);
    case Literal::Kind::kNegatedAtom:
      for (const Term& t : l.atom.args) {
        if (t.is_var() && !bound[t.var]) return false;
      }
      return true;
    case Literal::Kind::kAtom:
      return false;
  }
  return false;
}

/// kInvalidArgument unless `rel`, which holds rows, has the arity of
/// `atom`.
Status CheckArity(const Relation& rel, const Atom& atom, const Rule& rule,
                  const Catalog& cat) {
  if (rel.arity() == atom.args.size()) return Status::OK();
  return Status::InvalidArgument(
      "arity mismatch for predicate '" + cat.predicates.Name(atom.predicate) +
      "' in rule at " + rule.span.ToString());
}

/// Anchor candidates per match-phase chunk: the pool's grain when set,
/// else an equal share of the pass per pool thread, but at least
/// kMinChunk (a chunk must pay for its dispatch) and at most kMaxChunk
/// (the buffer holds one wave of chunks, so this bounds the memory a pass
/// holds beyond the database).
constexpr size_t kMinChunk = 64;
constexpr size_t kMaxChunk = 4096;

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
    size_t relational_remaining = CountRelational(src.body);

    size_t placed_count = 0;
    while (placed_count < src.body.size()) {
      int take = -1;
      // 1. the first ready filter, negation or assignment
      for (size_t i = 0; i < src.body.size() && take < 0; ++i) {
        if (!placed[i] &&
            FilterReady(src.body[i], bound, relational_remaining)) {
          take = static_cast<int>(i);
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

    // Reordering is only legal when match enumeration order is invisible
    // (see CompiledRule). The match phase ends at the aggregate, which
    // BuildPlan keeps at its compiled position.
    cr.reorderable = !cr.has_agg && cr.existential_vars.empty();
    const size_t match_end = cr.has_agg ? cr.agg_pos : cr.rule.body.size();
    for (size_t i = 0; i < match_end; ++i) {
      const Literal& l = cr.rule.body[i];
      if ((l.kind == Literal::Kind::kComparison &&
           (HasCall(l.lhs) || HasCall(l.rhs))) ||
          (l.kind == Literal::Kind::kAssignment && HasCall(l.rhs))) {
        cr.calls_in_match = true;
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
  plan.match_end = body.size();
  std::vector<bool> bound(nvars, false);
  std::vector<bool> placed(body.size(), false);
  size_t relational_remaining = CountRelational(body);

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
      }
    } else if (l.kind == Literal::Kind::kNegatedAtom) {
      --relational_remaining;
      if (!plan.desc.empty()) plan.desc += " ";
      plan.desc += "!" + cat->predicates.Name(l.atom.predicate);
    } else if (l.kind == Literal::Kind::kAssignment) {
      step.target_prebound = bound[l.target_var];
      bound[l.target_var] = true;
      if (l.rhs.is_aggregate()) plan.match_end = plan.steps.size();
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
        if (!placed[i] && FilterReady(body[i], bound, relational_remaining)) {
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

Status Engine::MatchRow(CompiledRule& cr, const JoinPlan& plan, size_t step,
                        const Relation& rel, uint32_t row,
                        const PassView& view, MatchCtx* ctx) {
  // Boundness is static per plan position, so there is no runtime
  // bound-set and nothing to unbind on a failed or exhausted match: stale
  // substitution entries are always overwritten by a later bind before
  // any read.
  VL_RETURN_NOT_OK(CheckRun(options_.run_ctx));
  const PlanStep& ps = plan.steps[step];
  for (size_t a = 0; a < ps.args.size(); ++a) {
    const ArgOp& op = ps.args[a];
    const Value& cell = rel.at(a, row);
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
    ctx->premises.push_back({cr.rule.body[ps.lit].atom.predicate, row});
    Status st = MatchFrom(cr, plan, step + 1, view, ctx);
    ctx->premises.pop_back();
    return st;
  }
  return MatchFrom(cr, plan, step + 1, view, ctx);
}

Status Engine::MatchFrom(CompiledRule& cr, const JoinPlan& plan, size_t step,
                         const PassView& view, MatchCtx* ctx) {
  if (ctx->buffering && step == plan.match_end) {
    // Match phase: buffer the match; its commit resumes here.
    ctx->buffered_substs.insert(ctx->buffered_substs.end(),
                                ctx->subst.begin(), ctx->subst.end());
    ctx->buffered_premises.insert(ctx->buffered_premises.end(),
                                  ctx->premises.begin(),
                                  ctx->premises.end());
    ++ctx->buffered;
    return Status::OK();
  }
  if (step == plan.steps.size()) return EmitHead(cr, ctx);
  const PlanStep& ps = plan.steps[step];
  const Literal& lit = cr.rule.body[ps.lit];
  switch (lit.kind) {
    case Literal::Kind::kAtom: {
      const auto [lo, hi] = view[step];
      if (lo >= hi) return Status::OK();
      // Const lookup: the non-const overload may resize the relation
      // vector, which the match phase must never do.
      const Relation* rel =
          static_cast<const Database*>(db_)->relation(lit.atom.predicate);
      VL_RETURN_NOT_OK(CheckArity(*rel, lit.atom, cr.rule, *db_->catalog()));
      if (ps.probe_arg >= 0) {
        const Value& pv =
            ps.probe_is_var ? ctx->subst[ps.probe_var] : ps.probe_const;
        PostingView hits = rel->Probe(static_cast<size_t>(ps.probe_arg), pv);
        ++ctx->probes;
        const uint32_t* b = hits.begin();
        const uint32_t* e = hits.end();
        if (lo > 0 || hi < rel->size()) {
          // Posting lists are ascending row ids; slice the pass's window.
          b = std::lower_bound(b, e, static_cast<uint32_t>(lo));
          e = std::lower_bound(b, e, static_cast<uint32_t>(hi));
        }
        // The match phase never inserts, so the list is walked in place.
        for (const uint32_t* p = b; p != e; ++p) {
          VL_RETURN_NOT_OK(MatchRow(cr, plan, step, *rel, *p, view, ctx));
        }
      } else {
        for (size_t idx = lo; idx < hi; ++idx) {
          VL_RETURN_NOT_OK(MatchRow(cr, plan, step, *rel,
                                    static_cast<uint32_t>(idx), view, ctx));
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
      return MatchFrom(cr, plan, step + 1, view, ctx);
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
          return MatchFrom(cr, plan, step + 1, view, ctx);
        }
      }
      VL_ASSIGN_OR_RETURN(bool pass, EvalComparison(lit, cr, ctx->subst));
      if (!pass) return Status::OK();
      return MatchFrom(cr, plan, step + 1, view, ctx);
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
          return MatchFrom(cr, plan, step + 1, view, ctx);
        }
        ctx->subst[lit.target_var] = v;
        return MatchFrom(cr, plan, step + 1, view, ctx);
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
      Status st = MatchFrom(cr, plan, step + 1, view, ctx);
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
  const Database* cdb = db_;

  // The frozen view: every atom step reads only the rows its relation held
  // when the pass began (the delta atom only its delta window). A pass
  // never joins against what it derives itself, so committing after each
  // wave commits exactly what one commit at the end would.
  PassView view(plan.steps.size(), {0, 0});
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    const Literal& lit = cr.rule.body[plan.steps[s].lit];
    if (lit.kind != Literal::Kind::kAtom) continue;
    const Relation* rel = cdb->relation(lit.atom.predicate);
    view[s].second = rel == nullptr ? 0 : rel->size();
    if (plan.steps[s].is_delta) {
      view[s].first = deltas[lit.atom.predicate].first;
      view[s].second =
          std::min(view[s].second, deltas[lit.atom.predicate].second);
    }
  }

  // Anchor candidates. When step 0 is an atom: its rows in the view — a
  // row range for a scan, a copy of the posting-list slice for a probe (a
  // commit may move the list) — each matched from step 1 on. Otherwise
  // the pass is one candidate, matched from step 0.
  const Relation* anchor = nullptr;
  bool anchor_probes = false;
  std::vector<uint32_t> slice;
  size_t n = 1;
  if (!plan.steps.empty() &&
      cr.rule.body[plan.steps[0].lit].kind == Literal::Kind::kAtom) {
    const PlanStep& ps = plan.steps[0];
    const Atom& atom = cr.rule.body[ps.lit].atom;
    const auto [lo, hi] = view[0];
    if (lo >= hi) return Status::OK();
    anchor = cdb->relation(atom.predicate);
    VL_RETURN_NOT_OK(CheckArity(*anchor, atom, cr.rule, *db_->catalog()));
    anchor_probes = ps.probe_arg >= 0;
    if (anchor_probes) {
      // No variable is bound at step 0, so the probe term is a constant.
      assert(!ps.probe_is_var);
      PostingView hits =
          anchor->Probe(static_cast<size_t>(ps.probe_arg), ps.probe_const);
      ++stats_.join_probes;
      const uint32_t* b =
          std::lower_bound(hits.begin(), hits.end(), static_cast<uint32_t>(lo));
      slice.assign(b, std::lower_bound(b, hits.end(),
                                       static_cast<uint32_t>(hi)));
      n = slice.size();
    } else {
      n = hi - lo;
    }
    if (n == 0) return Status::OK();
  }

  // The match phase fans out over the pool unless it calls a '#function';
  // a null or 1-thread pool, or a single chunk, runs on this thread.
  ThreadPool* pool = cr.calls_in_match ? nullptr : options_.pool;
  const size_t threads = pool == nullptr ? 1 : pool->thread_count();
  const size_t share = pool != nullptr && pool->default_grain() > 0
                           ? pool->default_grain()
                           : (n + threads - 1) / threads;
  const size_t grain = std::clamp(share, kMinChunk, kMaxChunk);
  const size_t nvars = cr.rule.var_names.size();
  const size_t atoms = cr.positive_atoms.size();
  if (chunk_ctxs_.size() < threads) chunk_ctxs_.resize(threads);
  for (size_t c = 0; c < threads; ++c) {
    chunk_ctxs_[c].subst.assign(nvars, Value());
    chunk_ctxs_[c].track_premises = options_.trace_provenance;
    chunk_ctxs_[c].buffering = true;
  }
  commit_ctx_.subst.assign(nvars, Value());
  commit_ctx_.track_premises = options_.trace_provenance;

  // One wave: at most one chunk per pool thread matches, then the wave
  // commits; the buffer never holds more than one wave.
  for (size_t first = 0; first < n; first += threads * grain) {
    for (const auto& [pred, arg_pos] : plan.warm_probes) {
      const Relation* r = cdb->relation(pred);
      if (r != nullptr) r->WarmIndex(arg_pos);
    }
    for (size_t c = 0; c < threads; ++c) {
      MatchCtx& ctx = chunk_ctxs_[c];
      ctx.buffered = 0;
      ctx.buffered_substs.clear();
      ctx.buffered_premises.clear();
    }
    // Chunks only read: Insert and cold-index Probe debug-assert until
    // the matching EndParallelRead.
    db_->BeginParallelRead();
    const Status match_st = ParallelFor(
        pool, std::min(threads * grain, n - first), grain, options_.run_ctx,
        [&](size_t begin, size_t end, size_t chunk) {
          MatchCtx& ctx = chunk_ctxs_[chunk];
          for (size_t i = first + begin; i < first + end; ++i) {
            if (anchor == nullptr) {
              VL_RETURN_NOT_OK(MatchFrom(cr, plan, 0, view, &ctx));
            } else {
              const uint32_t row = anchor_probes
                                       ? slice[i]
                                       : static_cast<uint32_t>(view[0].first + i);
              VL_RETURN_NOT_OK(
                  MatchRow(cr, plan, 0, *anchor, row, view, &ctx));
            }
          }
          return Status::OK();
        });
    db_->EndParallelRead();

    // Commit in chunk order, which is the order one thread matches in.
    // Chunks matched before a governor trip still commit, as the facts a
    // chase derived before the trip stay.
    Status commit_st = Status::OK();
    for (size_t c = 0; c < threads; ++c) {
      MatchCtx& chunk = chunk_ctxs_[c];
      stats_.join_probes += chunk.probes;
      chunk.probes = 0;
      for (size_t m = 0; m < chunk.buffered && commit_st.ok(); ++m) {
        std::copy_n(chunk.buffered_substs.begin() + m * nvars, nvars,
                    commit_ctx_.subst.begin());
        if (commit_ctx_.track_premises) {
          commit_ctx_.premises.assign(
              chunk.buffered_premises.begin() + m * atoms,
              chunk.buffered_premises.begin() + (m + 1) * atoms);
        }
        commit_st = MatchFrom(cr, plan, plan.match_end, view, &commit_ctx_);
      }
    }
    VL_RETURN_NOT_OK(match_st);
    VL_RETURN_NOT_OK(commit_st);
  }
  return Status::OK();
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

  std::vector<size_t> before;
  if (initial_before == nullptr) {
    // Naive first pass.
    before = sizes();
    for (uint32_t r : rule_ids) {
      VL_RETURN_NOT_OK(EvalRule(compiled_[r], -1, {}));
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
        VL_RETURN_NOT_OK(EvalRule(cr, static_cast<int>(k), deltas));
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
