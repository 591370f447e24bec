// Engine mode matrix: every program below must reach the same answers in
// every engine configuration — join order {planned, worst case} x threads
// {1, 2, 8} x streaming {off, on with an evict_sink} — and along the two
// other routes to a fixpoint: a Run on half the EDB continued by
// RunIncremental on the rest (negation-free programs), and a bound
// Engine::Query goal, which must return the goal-matching subset of
// saturation.
//
// Ground rows must be equal as sets. Rows carrying labeled nulls are
// compared after renaming their nulls in first-occurrence order (the
// canonical form of datalog/pattern_memo.h), and Skolem terms render
// structurally, since both kinds of id follow creation order.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/mapping.h"
#include "core/vadalog_programs.h"
#include "datalog/engine.h"
#include "datalog/magic.h"
#include "datalog/parser.h"
#include "gen/register_simulator.h"

namespace vadalink::datalog {
namespace {

struct Fact {
  uint32_t pred;
  std::vector<Value> tuple;
};

/// predicate name -> rendered rows.
using Answers = std::map<std::string, std::set<std::string>>;

void RenderValue(const Value& v, Database* db, std::map<uint64_t, size_t>* nulls,
                 std::string* out) {
  if (v.is_null()) {
    auto it = nulls->emplace(v.null_id(), nulls->size()).first;
    *out += "_" + std::to_string(it->second);
    return;
  }
  if (v.is_skolem()) {
    const SkolemRegistry::Entry* e = db->skolems()->Find(v.skolem_id());
    if (e == nullptr) {
      *out += "#?";
      return;
    }
    *out += "#" + db->catalog()->symbols.Name(e->tag_symbol) + "(";
    for (const Value& a : e->args) {
      RenderValue(a, db, nulls, out);
      *out += ",";
    }
    *out += ")";
    return;
  }
  *out += v.ToString(db->catalog()->symbols);
}

std::string RenderRow(const Value* vals, size_t n, Database* db) {
  std::map<uint64_t, size_t> nulls;
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) out += "|";
    RenderValue(vals[i], db, &nulls, &out);
  }
  return out;
}

std::string RenderRow(RowRef row, Database* db) {
  std::vector<Value> t = row.ToTuple();
  return RenderRow(t.data(), t.size(), db);
}

struct Mode {
  JoinOrder order = JoinOrder::kPlanned;
  size_t threads = 1;
  bool streaming = false;

  std::string Name() const {
    return std::string(order == JoinOrder::kPlanned ? "planned" : "worst") +
           " threads=" + std::to_string(threads) +
           (streaming ? " streaming" : "");
  }
};

std::vector<Mode> AllModes() {
  std::vector<Mode> modes;
  for (JoinOrder order : {JoinOrder::kPlanned, JoinOrder::kWorstCase}) {
    for (size_t threads : {1, 2, 8}) {
      for (bool streaming : {false, true}) {
        modes.push_back({order, threads, streaming});
      }
    }
  }
  return modes;
}

/// One program of the matrix with its EDB. The program's @output
/// predicates are the relations compared (the evict_sink streams exactly
/// those, so streaming runs can be compared on them too).
class MatrixCase {
 public:
  /// `edb` builds the EDB in the case's catalog (nullptr: the program's
  /// own facts only).
  MatrixCase(const std::string& rules,
             const std::function<std::vector<Fact>(Catalog*)>& edb) {
    if (edb) edb_ = edb(&catalog_);
    auto program = ParseProgram(rules, &catalog_);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (!program.ok()) return;
    program_ = std::move(program).value();
    // Facts written in the program join the EDB, so the continuation
    // splits them too.
    for (const Atom& a : program_.facts) {
      Fact f{a.predicate, {}};
      for (const Term& t : a.args) f.tuple.push_back(t.constant);
      edb_.push_back(std::move(f));
    }
    program_.facts.clear();
    for (const Rule& r : program_.rules) {
      for (const Literal& l : r.body) {
        if (l.kind == Literal::Kind::kNegatedAtom) has_negation_ = true;
      }
    }
  }

  Catalog* catalog() { return &catalog_; }
  bool has_negation() const { return has_negation_; }

  /// Saturates the program under `mode`. With `split`, a Run over the
  /// even-indexed EDB facts is continued by RunIncremental after the
  /// odd-indexed ones are inserted. `stats`, when given, receives the
  /// engine's stats.
  Answers Saturate(const Mode& mode, bool split = false,
                   EngineStats* stats = nullptr) {
    Database db(&catalog_);
    Answers out;
    auto pool = Pool(mode.threads);
    EngineOptions opts;
    opts.pool = pool.get();
    opts.join_order = mode.order;
    opts.streaming = mode.streaming;
    if (mode.streaming) {
      opts.evict_sink = [&](uint32_t pred, const Value* vals, size_t n) {
        out[catalog_.predicates.Name(pred)].insert(RenderRow(vals, n, &db));
      };
    }
    Engine engine(&db, opts);
    Insert(&db, split ? 0 : -1);
    Status st = engine.Run(program_);
    EXPECT_TRUE(st.ok()) << mode.Name() << ": " << st.ToString();
    if (split) {
      Insert(&db, 1);
      st = engine.RunIncremental(program_);
      EXPECT_TRUE(st.ok()) << mode.Name() << " (continued): " << st.ToString();
    }
    for (uint32_t p : program_.outputs) {
      std::set<std::string>& rows = out[catalog_.predicates.Name(p)];
      for (RowRef row : db.Scan(p)) rows.insert(RenderRow(row, &db));
    }
    if (stats != nullptr) *stats = engine.stats();
    return out;
  }

  /// Engine::Query under `mode`, rendered.
  std::set<std::string> Query(const Mode& mode, const QueryGoal& goal) {
    Database db(&catalog_);
    auto pool = Pool(mode.threads);
    EngineOptions opts;
    opts.pool = pool.get();
    opts.join_order = mode.order;
    opts.streaming = mode.streaming;
    if (mode.streaming) {
      opts.evict_sink = [](uint32_t, const Value*, size_t) {};
    }
    Engine engine(&db, opts);
    Insert(&db, -1);
    auto report = engine.Query(program_, goal);
    EXPECT_TRUE(report.ok()) << mode.Name() << ": "
                             << report.status().ToString();
    std::set<std::string> out;
    if (!report.ok()) return out;
    for (const auto& t : report->answers) {
      out.insert(RenderRow(t.data(), t.size(), &db));
    }
    return out;
  }

  /// The goal-matching rows of a reference saturation.
  std::set<std::string> GoalSubset(const QueryGoal& goal) {
    Database db(&catalog_);
    Engine engine(&db);
    Insert(&db, -1);
    EXPECT_TRUE(engine.Run(program_).ok());
    std::set<std::string> out;
    for (RowRef row : db.Scan(goal.atom.predicate)) {
      std::vector<Value> t = row.ToTuple();
      if (GoalMatches(goal, t)) out.insert(RenderRow(t.data(), t.size(), &db));
    }
    return out;
  }

 private:
  static std::unique_ptr<ThreadPool> Pool(size_t threads) {
    ParallelOptions par;
    par.threads = threads;
    return MakeThreadPool(par);
  }

  /// parity -1: every EDB fact; 0 / 1: the even / odd-indexed ones.
  void Insert(Database* db, int parity) {
    for (size_t i = 0; i < edb_.size(); ++i) {
      if (parity >= 0 && static_cast<int>(i % 2) != parity) continue;
      EXPECT_TRUE(db->Insert(edb_[i].pred, edb_[i].tuple).ok());
    }
  }

  Catalog catalog_;
  Program program_;
  std::vector<Fact> edb_;
  bool has_negation_ = false;
};

/// Runs `c` through the whole matrix. `goal_text` is a bound goal; a '?'
/// in it is replaced by the first argument of the first reference row of
/// the goal predicate, so the goal has answers on any EDB.
void CheckMatrix(MatrixCase& c, std::string goal_text) {
  const Mode reference_mode;
  const Answers reference = c.Saturate(reference_mode);
  size_t rows = 0;
  for (const auto& [pred, set] : reference) rows += set.size();
  ASSERT_GT(rows, 0u) << "the reference saturation derived no output";

  for (const Mode& mode : AllModes()) {
    EXPECT_EQ(c.Saturate(mode), reference) << mode.Name();
    if (!c.has_negation() && !mode.streaming) {
      EXPECT_EQ(c.Saturate(mode, /*split=*/true), reference)
          << mode.Name() << ", Run on half the EDB + RunIncremental";
    }
  }

  const size_t hole = goal_text.find('?');
  if (hole != std::string::npos) {
    const std::string pred = goal_text.substr(0, goal_text.find('('));
    auto it = reference.find(pred);
    ASSERT_TRUE(it != reference.end() && !it->second.empty())
        << "no reference row to bind the goal of " << pred;
    const std::string& row = *it->second.begin();
    goal_text.replace(hole, 1, row.substr(0, row.find('|')));
  }
  auto goal = ParseQueryGoal(goal_text, c.catalog());
  ASSERT_TRUE(goal.ok()) << goal.status().ToString();
  const std::set<std::string> expected = c.GoalSubset(*goal);
  ASSERT_FALSE(expected.empty()) << goal_text;
  for (const Mode& mode : AllModes()) {
    EXPECT_EQ(c.Query(mode, *goal), expected) << goal_text << ", "
                                              << mode.Name();
  }
}

/// The domain encoding of a small generated register, plus one family
/// per true family link (familymember(x, x), familymember(x, y)).
std::vector<Fact> RegisterEdb(Catalog* catalog) {
  gen::RegisterConfig cfg;
  // Large enough that passes exceed one chunk and fan out.
  cfg.persons = 150;
  cfg.companies = 100;
  cfg.seed = 11;
  gen::RegisterData reg = gen::GenerateRegister(cfg);
  Database db(catalog);
  core::MappingOptions opts;
  opts.predicates = core::DomainPredicates();
  EXPECT_TRUE(core::LoadGraphFacts(reg.graph, &db, opts).ok());
  std::vector<Fact> edb;
  for (const auto& name : opts.predicates) {
    const uint32_t p = catalog->predicates.Intern(name);
    for (RowRef row : db.Scan(p)) edb.push_back({p, row.ToTuple()});
  }
  const uint32_t member = catalog->predicates.Intern("familymember");
  for (const gen::FamilyLink& link : reg.true_family_links) {
    for (graph::NodeId p : {link.x, link.y}) {
      edb.push_back({member,
                     {Value::Int(link.x), Value::Int(static_cast<int64_t>(p))}});
    }
  }
  return edb;
}

/// `count` random edges e(a, b) over `nodes` integer nodes.
std::vector<Fact> RandomEdges(Catalog* catalog, int64_t nodes, int count) {
  const uint32_t e = catalog->predicates.Intern("e");
  Rng rng(99);
  std::vector<Fact> edb;
  for (int i = 0; i < count; ++i) {
    edb.push_back({e,
                   {Value::Int(rng.UniformInt(0, nodes - 1)),
                    Value::Int(rng.UniformInt(0, nodes - 1))}});
  }
  return edb;
}

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(VL_SOURCE_DIR) + "/examples/programs/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ParallelEngineMatrixTest, ControlProgram) {
  MatrixCase c(core::ControlProgram() + "@output(\"ctrl\").\n", RegisterEdb);
  CheckMatrix(c, "control(?, X)");
}

TEST(ParallelEngineMatrixTest, CloseLinkProgram) {
  MatrixCase c(core::CloseLinkProgram(0.2, 8), RegisterEdb);
  CheckMatrix(c, "closelink(?, Y)");
}

TEST(ParallelEngineMatrixTest, FamilyControlProgram) {
  MatrixCase c(core::FamilyControlProgram() + "@output(\"fctrl\").\n",
               RegisterEdb);
  CheckMatrix(c, "familycontrol(?, Y)");
}

TEST(ParallelEngineMatrixTest, InputPromotionProgram) {
  // #sk calls in the match phase and existential link ids in the head.
  MatrixCase c(core::InputPromotionProgram() +
                   "@output(\"gnode\").\n@output(\"gnodetype\").\n"
                   "@output(\"gedgetype\").\n",
               RegisterEdb);
  CheckMatrix(c, "gnodetype(Z, \"Company\")");
}

TEST(ParallelEngineMatrixTest, PscWardedExample) {
  // Invented nulls feed back into their own recursive component.
  MatrixCase c(ReadExample("psc_warded.vada") +
                   "@output(\"entity\").\n@output(\"company\").\n",
               nullptr);
  CheckMatrix(c, "psc(\"C\", P)");
}

TEST(ParallelEngineMatrixTest, PureExistentialRule) {
  MatrixCase c(R"(
    emp(X) -> worksfor(X, D).
    @output("worksfor").
  )",
               [](Catalog* cat) {
                 const uint32_t emp = cat->predicates.Intern("emp");
                 std::vector<Fact> edb;
                 for (int64_t i = 0; i < 40; ++i) {
                   edb.push_back({emp, {Value::Int(i)}});
                 }
                 return edb;
               });
  CheckMatrix(c, "worksfor(3, D)");
}

TEST(ParallelEngineMatrixTest, StratifiedNegation) {
  MatrixCase c(R"(
    e(X, Y) -> reach(X, Y).
    reach(X, Y), e(Y, Z) -> reach(X, Z).
    e(X, _Y) -> node(X).
    e(_X, Y) -> node(Y).
    node(X), node(Y), not reach(X, Y) -> unreach(X, Y).
    @output("reach").
    @output("unreach").
  )",
               [](Catalog* cat) { return RandomEdges(cat, 30, 45); });
  CheckMatrix(c, "unreach(?, Y)");
}

TEST(ParallelEngineMatrixTest, TransitiveClosure) {
  // Right- and left-linear forms: the left-linear rule probes the
  // relation its own pass derives.
  MatrixCase c(R"(
    e(X, Y) -> tc(X, Y).
    tc(X, Y), e(Y, Z) -> tc(X, Z).
    e(X, Y) -> tcl(X, Y).
    e(X, Y), tcl(Y, Z) -> tcl(X, Z).
    @output("tc").
    @output("tcl").
  )",
               [](Catalog* cat) { return RandomEdges(cat, 60, 100); });
  CheckMatrix(c, "tc(?, X)");
}

bool SameStats(const EngineStats& a, const EngineStats& b) {
  return a.strata == b.strata && a.iterations == b.iterations &&
         a.body_matches == b.body_matches &&
         a.facts_derived == b.facts_derived &&
         a.nulls_invented == b.nulls_invented &&
         a.join_probes == b.join_probes &&
         a.plans_computed == b.plans_computed &&
         a.plan_cache_hits == b.plan_cache_hits &&
         a.peak_resident_facts == b.peak_resident_facts &&
         a.evicted_rows == b.evicted_rows &&
         a.memo_queries == b.memo_queries && a.memo_hits == b.memo_hits &&
         a.cost_priors_used == b.cost_priors_used;
}

TEST(ParallelEngineMatrixTest, StatsIdenticalAcrossThreadCounts) {
  // Every thread count runs one evaluator and commits the same matches in
  // the same order, so every engine counter agrees with threads = 1, not
  // only the final fact set.
  std::vector<std::unique_ptr<MatrixCase>> cases;
  cases.push_back(std::make_unique<MatrixCase>(core::ControlProgram(),
                                               RegisterEdb));
  cases.push_back(std::make_unique<MatrixCase>(
      core::CloseLinkProgram(0.2, 8), RegisterEdb));
  cases.push_back(std::make_unique<MatrixCase>(
      core::InputPromotionProgram(), RegisterEdb));
  cases.push_back(std::make_unique<MatrixCase>(
      R"(
    e(X, Y) -> tcl(X, Y).
    e(X, Y), tcl(Y, Z) -> tcl(X, Z).
    @output("tcl").
  )",
      [](Catalog* cat) { return RandomEdges(cat, 60, 100); }));
  // 2,500 disjoint 4-node paths with every path's last hop listed first
  // and its first hop last: at 1 thread the naive pass of the
  // left-linear rule spans two waves, and the second wave's probes must
  // not see the rows the first wave committed (the frozen view).
  cases.push_back(std::make_unique<MatrixCase>(
      R"(
    e(X, Y) -> tcl(X, Y).
    e(X, Y), tcl(Y, Z) -> tcl(X, Z).
    @output("tcl").
  )",
      [](Catalog* cat) {
        const uint32_t e = cat->predicates.Intern("e");
        std::vector<Fact> edb;
        for (int64_t hop = 2; hop >= 0; --hop) {
          for (int64_t path = 0; path < 2500; ++path) {
            edb.push_back({e,
                           {Value::Int(4 * path + hop),
                            Value::Int(4 * path + hop + 1)}});
          }
        }
        return edb;
      }));
  for (auto& c : cases) {
    for (const Mode& mode : AllModes()) {
      if (mode.threads == 1) continue;
      Mode one = mode;
      one.threads = 1;
      EngineStats base, stats;
      const Answers want = c->Saturate(one, false, &base);
      EXPECT_EQ(c->Saturate(mode, false, &stats), want) << mode.Name();
      EXPECT_TRUE(SameStats(stats, base))
          << mode.Name() << ": iterations " << stats.iterations << " vs "
          << base.iterations << ", body matches " << stats.body_matches
          << " vs " << base.body_matches << ", probes " << stats.join_probes
          << " vs " << base.join_probes;
    }
  }
}

}  // namespace
}  // namespace vadalink::datalog
