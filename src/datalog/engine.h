// The reasoning engine: a semi-naive, stratified chase for existential
// rules with Skolem functions and monotonic aggregation — the fragment of
// Vadalog the paper's Algorithms 2-9 are written in.
//
// Design notes:
//  * Existential head variables are satisfied with labeled nulls memoised
//    on (rule, variable, frontier) — i.e. the Skolem chase — so re-firing a
//    rule on the same frontier reuses its nulls and recursion terminates
//    whenever the Skolem chase does (all warded programs in this codebase).
//  * Monotonic aggregates keep per-(rule, group) running state; a body
//    match contributes at most once per distinct contributor-variable
//    binding, and each contribution emits the updated running value
//    (Section 4 of the paper: "subsequent invocations yield updated values
//    ... the final value is the minimum/maximum value").
//  * Semi-naive deltas are index ranges over the append-only relations.
//  * One rule evaluator: each pass of a rule matches read-only against the
//    relations as they stood when the pass began, buffers its matches,
//    and commits them in order (EmitHead). A thread pool only changes how
//    many chunks of the pass match at once, never what is committed.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/run_context.h"
#include "common/status.h"
#include "datalog/ast.h"
#include "datalog/builtins.h"
#include "datalog/database.h"
#include "datalog/magic.h"
#include "datalog/pattern_memo.h"
#include "datalog/stratify.h"

namespace vadalink::datalog {

/// Join-order policy of the per-rule planner.
enum class JoinOrder {
  /// Order body atoms by estimated selectivity (relation size over the
  /// probe column's distinct count), anchoring the delta atom first in
  /// semi-naive rounds. The default.
  kPlanned,
  /// Deliberately order atoms by *descending* cost — the worst plan the
  /// planner could produce. Exists for benchmarks and the property test
  /// that pins join-order invariance of the final fact set.
  kWorstCase,
};

struct EngineOptions {
  /// Abort if one stratum runs more than this many fixpoint iterations.
  size_t max_iterations = 1000000;
  /// Abort once the database holds more than this many facts.
  size_t max_facts = 50000000;
  /// Record one derivation per fact for Explain().
  bool trace_provenance = false;
  /// Optional run governor: deadline / work budget / cancellation, polled
  /// inside the match loops and charged one work unit per derived fact.
  /// nullptr = unlimited. Must outlive the engine calls that use it.
  const RunContext* run_ctx = nullptr;
  /// Optional thread pool for the match phase of rule evaluation (not
  /// owned; must outlive the engine calls that use it). Every pass of a
  /// rule matches read-only against the relations as they stood when the
  /// pass began and commits its matches single-threaded in chunk order,
  /// so the pool only decides how many chunks match at once: the facts,
  /// their row order and every engine counter are identical at every
  /// thread count. A rule whose match phase calls a '#function' matches
  /// on the calling thread (calls may intern symbols). nullptr or a
  /// 1-thread pool matches every chunk on the calling thread.
  ThreadPool* pool = nullptr;
  /// Optional metrics sink (not owned; must outlive the engine calls that
  /// use it). Run() publishes engine.* counters from EngineStats at the
  /// end of each call (deterministic totals) and records the per-iteration
  /// semi-naive delta size into the engine.delta.size histogram. nullptr =
  /// no recording.
  MetricsRegistry* metrics = nullptr;
  /// Run the static analyzer (datalog/analysis) before evaluating. Any
  /// analyzer *error* (safety, wardedness, stratification, arity) fails
  /// the call with kInvalidArgument carrying the rendered diagnostics;
  /// warnings are published to metrics ("analysis.warnings" plus one
  /// "analysis.diag.<code>" counter per diagnostic code) and do not block
  /// evaluation.
  bool preflight = true;
  /// Join-order policy (see JoinOrder). Only rules without aggregates and
  /// without existential variables are reordered — for those the match
  /// enumeration order is semantically visible (running aggregate values,
  /// labeled-null identity), so they always evaluate in compiled order.
  JoinOrder join_order = JoinOrder::kPlanned;
  /// Space-bounded streaming chase (DESIGN.md section 13). Run() releases
  /// the column storage of exhausted semi-naive delta epochs for every
  /// predicate the evictability analysis accepts (read only through its
  /// own delta window), and memoizes labeled-null frontier patterns up to
  /// null renaming so isomorphic re-firings of existential rules are
  /// skipped. The final fact set over resident + sunk rows is identical
  /// to a non-streaming run at every thread count (the memo engages only
  /// on null-carrying frontiers, which ground-frontier programs never
  /// produce). Incompatible with trace_provenance (eviction silently
  /// stays off) and with RunIncremental continuation (rejected with
  /// kFailedPrecondition once anything was evicted).
  bool streaming = false;
  /// Streaming only: rows of @output predicates are handed here right
  /// before their storage is released, making outputs evictable too.
  /// Without a sink, output predicates always stay resident. Called
  /// single-threaded, in row order, during Run().
  std::function<void(uint32_t predicate, const Value* vals, size_t n)>
      evict_sink;
};

/// Outcome of one Engine::Query call.
struct QueryReport {
  /// True when the demand transformation applied; false when the engine
  /// saturated the (relevance-pruned) dependency cone of the goal instead.
  bool rewritten = false;
  /// Why the demand transformation was not applicable (see magic.h);
  /// empty when `rewritten`, and also for all-free goals, which have no
  /// bound position to push demand from. Never silently dropped: a
  /// non-empty reason is surfaced here and counted in
  /// "engine.query.fallbacks" plus one "engine.query.fallback.<code>"
  /// counter keyed by the stable slug below.
  std::string fallback_reason;
  /// Stable slug for fallback_reason (see MagicResult::fallback_code);
  /// empty exactly when fallback_reason is.
  std::string fallback_code;
  /// Input rules dropped by the goal-directed dataflow analysis.
  size_t rules_pruned = 0;
  /// Demand (magic + adornment-bridge) rules added by the rewrite.
  size_t magic_rules = 0;
  /// Distinct (predicate, adornment) demands processed.
  size_t adornments = 0;
  /// Facts the (rewritten) chase derived — the query-focus work measure.
  size_t facts_derived = 0;
  /// Static cost estimate (analysis/cost.h program_cost) of the program
  /// the chase actually ran — the rewritten program when `rewritten`,
  /// the pruned source program otherwise. Exported to bench output as
  /// the estimated-vs-actual ratio numerator.
  double estimated_cost = 0.0;
  /// Wall-clock microseconds spent before evaluation started: preflight,
  /// dataflow analysis, magic rewrite and cost estimation. Mirrored into
  /// the "engine.query.plan.us" histogram.
  uint64_t plan_us = 0;
  /// Goal-matching tuples of the goal predicate, sorted. Exactly equal to
  /// the goal-matching subset of the full-saturation fact set.
  std::vector<std::vector<Value>> answers;
};

struct EngineStats {
  size_t strata = 0;
  size_t iterations = 0;
  size_t body_matches = 0;
  size_t facts_derived = 0;
  size_t nulls_invented = 0;
  /// Index probes issued by the join loops (plan quality signal).
  size_t join_probes = 0;
  /// Join plans built / served from the per-(rule, delta) cache.
  size_t plans_computed = 0;
  size_t plan_cache_hits = 0;
  /// Streaming chase (EngineOptions::streaming): high-water mark of
  /// Database::ResidentFacts() across the run, rows whose column storage
  /// was released, and pattern-memo traffic (EmitHead consultations /
  /// suppressed isomorphic re-firings).
  size_t peak_resident_facts = 0;
  size_t evicted_rows = 0;
  size_t memo_queries = 0;
  size_t memo_hits = 0;
  /// Join-plan atom orderings decided from the static cost analysis's
  /// cardinality interval because the relation was still cold (no rows,
  /// no index statistics). Mirrored into "engine.cost.priors_used".
  size_t cost_priors_used = 0;
};

class Engine {
 public:
  explicit Engine(Database* db, EngineOptions options = {});

  /// Function table used for '#name(...)' calls. The standard library is
  /// pre-registered; domain modules may add more before Run().
  FunctionRegistry* functions() { return &functions_; }

  /// Evaluates `program` to fixpoint over the engine's database. Facts in
  /// the program are asserted first. Idempotent w.r.t. already present
  /// facts. Aggregate state is reset at the start of each call.
  ///
  /// With EngineOptions::streaming, exhausted delta epochs of evictable
  /// predicates are released as the chase progresses; the final answer
  /// set (output predicates, query answers) is unchanged, but evicted
  /// rows are no longer resident afterwards and a later RunIncremental
  /// on the same database is rejected with kFailedPrecondition.
  ///
  /// Error codes:
  ///  * kInvalidArgument — the static-analysis pre-flight found an error
  ///    (unsafe rule, wardedness violation, negation through recursion,
  ///    arity conflict; see datalog/analysis), a rule cannot be ordered
  ///    for evaluation, an unknown '#function' is referenced, or a runtime
  ///    arity mismatch is detected;
  ///  * kResourceExhausted — max_iterations or max_facts exceeded, or the
  ///    RunContext work budget ran out;
  ///  * kDeadlineExceeded — the RunContext wall-clock deadline expired;
  ///  * kCancelled — RunContext::RequestCancel() was observed.
  Status Run(const Program& program);

  /// Goal-directed evaluation: magic-set rewrites `program` for `goal`
  /// (datalog/magic.h) and chases the rewritten program, deriving only
  /// goal-relevant facts — the join planner, plan cache and chunked match
  /// phase apply to the rewritten rules unchanged. Returns the
  /// sorted goal-matching answers plus rewrite statistics; when the
  /// rewrite is not applicable the report carries the fallback reason and
  /// the engine saturates the goal's relevance-pruned dependency cone
  /// instead (still exact, never silent). The static-analysis pre-flight
  /// runs against the *source* program — the synthesized __magic_*
  /// predicates are safe by construction but outside the analyzer's
  /// warded fragment. Error codes are those of Run().
  Result<QueryReport> Query(const Program& program, const QueryGoal& goal);

  /// Incremental continuation after a completed Run() of the same program:
  /// only facts inserted into the database since that run are treated as
  /// deltas (the initial naive pass is skipped), and aggregate state, null
  /// memoisation and provenance carry over. Sound because the engine's
  /// fragment without negation is monotonic; programs using negation are
  /// rejected (a new fact could invalidate earlier conclusions). Also
  /// rejected after an aborted run (deadline / budget / cancellation): the
  /// delta window is then unreliable, so callers must re-establish the
  /// fixpoint with Run() — which is sound, because every fact an aborted
  /// chase derived is a genuine consequence.
  ///
  /// Error codes (in addition to everything Run() can return):
  ///  * kInvalidArgument — the previous run aborted (deadline / budget /
  ///    cancellation), so the delta window is unreliable;
  ///  * kUnsupported — the program uses negation, which is not monotonic
  ///    under fact insertion;
  ///  * kFailedPrecondition — the streaming chase evicted facts from this
  ///    database: a continuation would need to join against column data
  ///    that no longer exists. Re-run with streaming off (fresh database)
  ///    to regain incremental continuation.
  Status RunIncremental(const Program& program);

  const EngineStats& stats() const { return stats_; }

  /// Re-points the run governor / metrics sink for the next call. A
  /// resident engine (the serving layer) runs many RunIncremental calls,
  /// each under its own per-request RunContext; constructor options alone
  /// cannot express that.
  void set_run_ctx(const RunContext* run_ctx) { options_.run_ctx = run_ctx; }
  void set_metrics(MetricsRegistry* metrics) { options_.metrics = metrics; }

  /// Status of the limit trip (deadline / budget / cancellation) or error
  /// that aborted the last Run()/RunIncremental(); OK when the last run
  /// completed. RunIncremental's rejection message after an aborted run
  /// names this status.
  const Status& last_abort_status() const { return last_abort_status_; }

  /// Provenance: a one-derivation explanation tree for a fact (requires
  /// options.trace_provenance). Facts without a recorded derivation print
  /// as "(asserted)".
  std::string Explain(uint32_t predicate, const std::vector<Value>& tuple,
                      size_t max_depth = 6) const;

  /// Human-readable descriptions of every join plan built during the last
  /// Run/RunIncremental, sorted by (rule, delta occurrence). One line per
  /// cached plan, e.g. "rule 1 delta tc: tc[delta] e@0". For benchmarks
  /// and diagnostics.
  std::vector<std::string> PlanSummaries() const;

 private:
  /// A rule with its body reordered for evaluability plus the metadata the
  /// evaluator needs (positive atom positions, frontier, aggregate info).
  struct CompiledRule {
    Rule rule;
    uint32_t id = 0;
    std::vector<size_t> positive_atoms;
    std::vector<uint32_t> frontier_vars;
    std::vector<uint32_t> existential_vars;
    bool has_agg = false;
    size_t agg_pos = 0;
    std::vector<uint32_t> agg_group_vars;
    /// True when the planner may reorder this rule's atoms: no aggregate
    /// (running values are enumeration-order-sensitive) and no
    /// existential variables (null ids are assigned in enumeration
    /// order). Non-reorderable rules keep compiled literal order; the
    /// planner still picks probe columns for them.
    bool reorderable = false;
    /// A literal of the match phase (the body before the aggregate, or
    /// the whole body) calls a '#function'. Calls may intern symbols, so
    /// such a rule matches its chunks on the calling thread; every other
    /// rule, aggregates and existentials included, fans out over the
    /// pool (aggregate state and null invention live in the commit).
    bool calls_in_match = false;
    /// Streaming only: the rule invents nulls and its frontier admits
    /// nulls (analysis/harmful.h), so EmitHead consults the pattern memo
    /// before firing on a null-carrying frontier.
    bool memo_eligible = false;
  };

  /// Compiled per-column action of an atom step. Boundness at every plan
  /// position is static (the planner knows which variables earlier steps
  /// bound), so the match loop needs no runtime bound-set: each column
  /// either binds a fresh variable or checks against a bound one / a
  /// constant.
  struct ArgOp {
    /// kSkip marks the probe column: every row of a posting list already
    /// matches the probe value exactly, so rechecking it is redundant.
    enum class Kind : uint8_t { kCheckConst, kCheckVar, kBindVar, kSkip };
    Kind kind = Kind::kBindVar;
    uint32_t var = 0;  // kCheckVar / kBindVar
    Value constant;    // kCheckConst
  };

  /// One literal of a join plan, in execution order.
  struct PlanStep {
    uint32_t lit = 0;    // index into CompiledRule::rule.body
    int probe_arg = -1;  // atoms: argument position to probe, -1 = scan
    bool is_delta = false;  // atom bound to the semi-naive delta window
    bool probe_is_var = false;  // probe value: subst[probe_var] or constant
    uint32_t probe_var = 0;
    Value probe_const;
    /// Assignments: target variable already bound by an earlier step
    /// (turns the assignment into an equality filter).
    bool target_prebound = false;
    std::vector<ArgOp> args;  // atoms: one action per column
  };

  /// The execution plan of one (rule, delta occurrence) pair: a
  /// permutation of the body literals with a probe column per atom,
  /// chosen from relation statistics at first use and cached for the
  /// rest of the run.
  struct JoinPlan {
    std::vector<PlanStep> steps;
    /// First step of the commit phase: the aggregate's step, or
    /// steps.size() for a rule without one. Prepare places the aggregate
    /// after every relational literal, so the steps from here on are
    /// only the aggregate, comparisons and assignments.
    size_t match_end = 0;
    /// (predicate, argument position) the non-anchor atoms probe;
    /// warmed before each wave of the match phase so Probe is a pure
    /// read from the workers.
    std::vector<std::pair<uint32_t, uint32_t>> warm_probes;
    std::string desc;  // human-readable summary (PlanSummaries)
  };

  /// Scratch threaded through the match recursion, one per chunk of the
  /// match phase plus one for the commit phase; kept across passes, so
  /// the steady state allocates nothing. Cache-line aligned: chunks write
  /// their counters and buffers concurrently, and contexts sharing a line
  /// kept the 4-thread match phase of close links as slow as 1 thread.
  struct alignas(64) MatchCtx {
    /// The substitution. There is no companion bound-set: boundness is
    /// static per plan position (encoded in the ArgOps), and stale
    /// entries are always overwritten by a later bind before any read.
    std::vector<Value> subst;
    std::vector<std::pair<uint32_t, uint32_t>> premises;
    bool track_premises = false;
    /// Match phase: a match reaching JoinPlan::match_end is appended to
    /// the flat buffer below (match i's substitution at stride
    /// subst.size(), its premises at stride positive-atom count).
    /// Commit phase (false): the match runs on to EmitHead.
    bool buffering = false;
    size_t buffered = 0;
    std::vector<Value> buffered_substs;
    std::vector<std::pair<uint32_t, uint32_t>> buffered_premises;
    std::vector<Value> tuple_scratch;  // head/negation buffer
    uint64_t probes = 0;               // local, merged to stats_
  };

  /// Rows [first, second) of each plan step's relation a pass may read:
  /// the delta window for the delta atom, otherwise every row the
  /// relation held when the pass began (the frozen view).
  using PassView = std::vector<std::pair<size_t, size_t>>;

  struct VecValueHash {
    size_t operator()(const std::vector<Value>& v) const {
      return HashValues(v);
    }
  };

  /// Running state of one monotonic aggregate group.
  struct AggState {
    std::unordered_set<std::vector<Value>, VecValueHash> contributors;
    bool initialized = false;
    bool all_int = true;
    double dval = 0.0;
    int64_t ival = 0;
    Value best;
    int64_t count = 0;

    Value Current(AggKind kind) const;
  };

  /// Mandatory static-analysis gate for Run/RunIncremental (unless
  /// options_.preflight is off): errors -> kInvalidArgument with rendered
  /// diagnostics, warnings -> metrics counters.
  Status Preflight(const Program& program);

  /// Bodies of Run/RunIncremental; the public wrappers capture a failing
  /// status into last_abort_status_. The streaming chase never evicts
  /// `pinned_pred` (Query's goal predicate, which it scans afterwards);
  /// UINT32_MAX pins nothing.
  Status RunImpl(const Program& program, uint32_t pinned_pred = UINT32_MAX);
  Status RunIncrementalImpl(const Program& program);

  Status Prepare(const Program& program);
  /// initial_before: per-predicate fact counts marking the start of the
  /// delta window; nullptr = full naive pass first.
  Status EvalStratum(const std::vector<uint32_t>& rule_ids,
                     const std::vector<size_t>* initial_before);
  std::vector<size_t> RelationSizes() const;

  /// Publishes the engine.* counters from stats_ into options_.metrics
  /// (no-op without a registry). RunIncremental keeps accumulating stats_
  /// on top of the preceding Run, so only the delta since the last publish
  /// is added — registry totals stay exact across mixed call sequences.
  void PublishChaseMetrics();

  /// The cached plan for (rule, delta occurrence), built on first use
  /// from the relation statistics current at that moment.
  const JoinPlan& PlanFor(const CompiledRule& rule, int delta_occurrence);
  JoinPlan BuildPlan(const CompiledRule& rule, int delta_occurrence);

  /// One pass of a rule: the anchor step's candidates are split into
  /// chunks that match read-only (over options_.pool unless the match
  /// phase calls a '#function') into per-chunk buffers; after each wave
  /// of at most one chunk per pool thread, the buffered matches are
  /// committed in chunk order. Every thread count runs this same code
  /// and commits the same matches in the same order.
  Status EvalRule(CompiledRule& rule, int delta_occurrence,
                  const std::vector<std::pair<size_t, size_t>>& deltas);
  Status MatchFrom(CompiledRule& rule, const JoinPlan& plan, size_t step,
                   const PassView& view, MatchCtx* ctx);
  /// Binds row `row` of atom step `step` against its ArgOps and, on a
  /// match, continues with the next step.
  Status MatchRow(CompiledRule& rule, const JoinPlan& plan, size_t step,
                  const Relation& rel, uint32_t row, const PassView& view,
                  MatchCtx* ctx);
  /// The only routine that inserts derived facts: null invention (and the
  /// streaming pattern memo), the insert, stats, provenance, the work
  /// charge and the fact limit.
  Status EmitHead(CompiledRule& rule, MatchCtx* ctx);
  Result<Value> Eval(const Expr& e, const CompiledRule& rule,
                     const std::vector<Value>& subst);
  Result<bool> EvalComparison(const Literal& lit, const CompiledRule& rule,
                              const std::vector<Value>& subst);

  Database* db_;
  EngineOptions options_;
  FunctionRegistry functions_;
  EngineStats stats_;
  /// stats_ values already mirrored into options_.metrics (see
  /// PublishChaseMetrics).
  EngineStats published_;

  std::vector<CompiledRule> compiled_;
  /// Match-phase scratch (one per pool thread) and commit-phase scratch
  /// of EvalRule, reused across passes.
  std::vector<MatchCtx> chunk_ctxs_;
  MatchCtx commit_ctx_;
  /// Streaming chase state (empty / unused unless options_.streaming).
  /// evictable_[p] — the evictability analysis accepted predicate p, so
  /// EvalStratum releases its exhausted delta epochs; sink_outputs_[p] —
  /// p is an @output streamed through options_.evict_sink on eviction.
  std::vector<bool> evictable_;
  std::vector<bool> sink_outputs_;
  PatternMemo pattern_memo_;
  // (rule id << 16 | delta occurrence + 1) -> cached join plan; cleared
  // by Prepare() at the start of each run.
  std::unordered_map<uint64_t, JoinPlan> plan_cache_;
  // Static cardinality priors (analysis/cost.h hi bounds, indexed by
  // predicate id) computed by Prepare(); BuildPlan falls back to them for
  // relations with no rows yet. Empty when the analysis found nothing.
  std::vector<double> cost_prior_hi_;
  // Program-level static cost estimate of the last Prepare()d program;
  // published as the "engine.cost.program_estimate" gauge.
  double program_cost_estimate_ = 0.0;
  // function id (catalog) -> resolved callable
  std::vector<const ExternalFn*> resolved_fns_;

  // Aggregate state, reset per Run(): (rule, group key) -> running state.
  struct AggKey {
    uint32_t rule;
    std::vector<Value> group;
    bool operator==(const AggKey& o) const {
      return rule == o.rule && group == o.group;
    }
  };
  struct AggKeyHash {
    size_t operator()(const AggKey& k) const {
      return HashCombine(k.rule, HashValues(k.group));
    }
  };
  std::unordered_map<AggKey, AggState, AggKeyHash> agg_states_;

  // Provenance: (pred, tuple idx) -> derivation.
  struct Derivation {
    uint32_t rule;
    std::vector<std::pair<uint32_t, uint32_t>> premises;
  };
  std::unordered_map<uint64_t, Derivation> provenance_;

  // Per-predicate fact counts at the end of the last (incremental) run,
  // marking the delta window start for RunIncremental.
  std::vector<size_t> last_run_sizes_;
  // True while a run is in flight and after one aborted; RunIncremental
  // refuses to continue from an aborted run.
  bool last_run_aborted_ = false;
  // Rewritten program of the last Query(): program_ points into it, so it
  // must outlive the run (Explain/PlanSummaries read through program_).
  std::unique_ptr<Program> query_program_;
  // Why the last run aborted (OK after a completed run); see
  // last_abort_status().
  Status last_abort_status_;

  const Program* program_ = nullptr;
};

}  // namespace vadalink::datalog
