// Workload `serve`: an in-process serve::Server on an ephemeral loopback
// port, loaded with a register and core::ControlProgram(), under open-loop
// keyed screening traffic (control / ubo / closelinks on Zipf-skewed keys)
// with health probes and a small share of ingest writes, in the request mix
// of bench/bench_serve_load. Each write publishes a new graph version,
// which turns every cached answer cold.
//
// The load generator walks a fixed ascending ladder of offered rates and
// drains each rung before the next: a warm-up rung, the long reference
// rung, then several climbs from the reference rate up, each climb
// stopping at its first missed rung. It pipelines requests by protocol id over one
// connection: this thread sends on schedule, a receiver thread reads
// responses. Every request is timed from its scheduled send time, so a
// stall also charges the requests queued behind it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "company/close_link.h"
#include "company/company_graph.h"
#include "company/groups.h"
#include "core/knowledge_graph.h"
#include "core/vadalog_programs.h"
#include "datalog/parser.h"
#include "gen/register_simulator.h"
#include "serve/client.h"
#include "serve/server.h"

namespace perfbench {

namespace serve = vadalink::serve;
using serve::Json;
using vadalink::MetricsRegistry;

namespace {

enum class Op { kControl, kUbo, kCloseLinks, kHealth, kIngest };

const char* OpName(Op op) {
  switch (op) {
    case Op::kControl: return "control";
    case Op::kUbo: return "ubo";
    case Op::kCloseLinks: return "closelinks";
    case Op::kHealth: return "health";
    case Op::kIngest: return "ingest";
  }
  return "?";
}

enum class Outcome { kCold, kHot, kStale, kShed, kError, kLost };

/// One planned request and what happened to it. The response is kept as
/// its raw line (parsed again by the checks after the ladder), so what the
/// load generator holds in memory hardly depends on how far the ladder
/// climbs.
struct Record {
  Op op = Op::kControl;
  size_t step = 0;  // index into the schedule
  std::string line;
  Clock::time_point scheduled;
  Clock::time_point sent;
  Clock::time_point received;
  uint64_t floor_version = 0;  // highest version seen before it was sent
  bool was_sent = false;
  bool answered = false;
  Outcome outcome = Outcome::kLost;  // set when answered
  std::string response;
};

Outcome Classify(const Json& response) {
  const Json* ok = response.Find("ok");
  if (ok == nullptr || !ok->AsBool()) {
    const Json* err = response.Find("error");
    const Json* code = err != nullptr ? err->Find("code") : nullptr;
    bool shed = code != nullptr && code->is_string() &&
                (code->AsString() == "ResourceExhausted" ||
                 code->AsString() == "DeadlineExceeded");
    return shed ? Outcome::kShed : Outcome::kError;
  }
  const Json* stale = response.Find("stale");
  if (stale != nullptr && stale->AsBool()) return Outcome::kStale;
  const Json* cached = response.Find("cached");
  return cached != nullptr && cached->AsBool() ? Outcome::kHot : Outcome::kCold;
}

Outcome Classify(const Record& rec) {
  return rec.was_sent && rec.answered ? rec.outcome : Outcome::kLost;
}

double LatencyMs(const Record& rec) {
  return std::chrono::duration<double, std::milli>(rec.received -
                                                   rec.scheduled)
      .count();
}

/// One rung as run: its index in the ladder, the climb it belongs to (0
/// for the warm-up and the reference rung, which run once) and the
/// records planned for it.
struct Step {
  size_t rung = 0;
  size_t climb = 0;
  bool reference = false;
  size_t first = 0;
  size_t n = 0;
};

/// The run's schedule: the warm-up rungs below the reference, the
/// reference rung for `reference_share` of the run, then climbs 1 to
/// `climbs` from the reference rate up, each rung for `step_share`.
std::vector<Step> Schedule(const Sizes& sz, double seconds) {
  std::vector<Step> out;
  size_t first = 0;
  auto add = [&](size_t k, size_t climb, bool reference) {
    const double share = reference ? sz.reference_share : sz.step_share;
    const size_t n = static_cast<size_t>(sz.ladder_rps[k] * seconds * share);
    out.push_back({k, climb, reference, first, n});
    first += n;
  };
  for (size_t k = 0; k < sz.reference_rung; ++k) add(k, 0, false);
  add(sz.reference_rung, 0, true);
  for (size_t c = 1; c <= sz.climbs; ++c) {
    for (size_t k = sz.reference_rung; k < sz.ladder_rps.size(); ++k) {
      add(k, c, false);
    }
  }
  return out;
}

/// The seeded traffic plan: the op mix of Sizes, Zipf-skewed keys over
/// seeded permutations of the key spaces, and valid ingests only (a
/// Shareholding edge into a company with w in (0, 1]).
class Traffic {
 public:
  Traffic(const vadalink::gen::RegisterData& data, const Sizes& sz,
          uint64_t seed)
      : sz_(sz), rng_(seed ^ 0x5e4eULL) {
    for (size_t n = 0; n < data.graph.node_count(); ++n) {
      control_keys_.push_back(static_cast<int64_t>(n));
    }
    for (auto c : data.companies) company_keys_.push_back(c);
    Shuffle(&control_keys_);
    Shuffle(&company_keys_);
  }

  const std::vector<int64_t>& control_keys() const { return control_keys_; }
  const std::vector<int64_t>& company_keys() const { return company_keys_; }

  Record Next(int64_t id) {
    Record rec;
    Json params = Json::MakeObject();
    const int dice = static_cast<int>(rng_.UniformU64(100));
    const int control = sz_.control_pct, ubo = control + sz_.ubo_pct,
              closelinks = ubo + sz_.closelinks_pct,
              health = closelinks + sz_.health_pct;
    if (dice < control) {
      rec.op = Op::kControl;
      params.Set("source", Json::Int(Zipf(control_keys_)));
    } else if (dice < ubo) {
      rec.op = Op::kUbo;
      params.Set("target", Json::Int(Zipf(company_keys_)));
    } else if (dice < closelinks) {
      rec.op = Op::kCloseLinks;
      params.Set("company", Json::Int(Zipf(company_keys_)));
    } else if (dice < health) {
      rec.op = Op::kHealth;
    } else {
      rec.op = Op::kIngest;
      int64_t dst = company_keys_[rng_.UniformU64(company_keys_.size())];
      int64_t src = dst;
      while (src == dst) {
        src = control_keys_[rng_.UniformU64(control_keys_.size())];
      }
      Json edge = Json::MakeObject();
      edge.Set("src", Json::Int(src));
      edge.Set("dst", Json::Int(dst));
      edge.Set("label", Json::Str("Shareholding"));
      edge.Set("w", Json::Double(rng_.UniformDouble(0.01, 0.2)));
      Json edges = Json::MakeArray();
      edges.Append(std::move(edge));
      params.Set("edges", std::move(edges));
    }
    rec.line = RequestLine(id, OpName(rec.op), std::move(params));
    return rec;
  }

  static std::string RequestLine(int64_t id, const char* op, Json params) {
    Json req = Json::MakeObject();
    req.Set("id", Json::Int(id));
    req.Set("op", Json::Str(op));
    req.Set("params", std::move(params));
    return req.Dump();
  }

 private:
  int64_t Zipf(const std::vector<int64_t>& keys) {
    return keys[rng_.PowerLaw(sz_.zipf_alpha, keys.size()) - 1];
  }
  void Shuffle(std::vector<int64_t>* v) {
    for (size_t i = v->size(); i > 1; --i) {
      std::swap((*v)[i - 1], (*v)[rng_.UniformU64(i)]);
    }
  }

  const Sizes& sz_;
  vadalink::Rng rng_;
  std::vector<int64_t> control_keys_;
  std::vector<int64_t> company_keys_;
};

/// Per-rung result of the ladder.
struct Rung {
  double offered_rps = 0.0;
  double completed_rps = 0.0;
  double read_p50_ms = 0.0;
  double read_p99_ms = 0.0;  // over the reads answered ok
  double drain_ms = 0.0;
  double pressure = 0.0;
  size_t reads = 0;
  bool ran = false;
  bool pass = false;
};

/// A server and the registry it reports into (declared first, so it
/// outlives the server).
struct Instance {
  std::unique_ptr<MetricsRegistry> registry;
  std::unique_ptr<serve::Server> server;
};

Instance StartServer(const vadalink::gen::RegisterData& data, const Sizes& sz,
                     bool with_registry, Report* r) {
  Instance in;
  if (with_registry) in.registry = std::make_unique<MetricsRegistry>();
  serve::ServiceOptions svc;  // CLI defaults: 1,024-entry cache, query mode
  serve::ServerOptions srv;
  srv.port = 0;
  srv.max_inflight = sz.serve_workers;
  in.server =
      std::make_unique<serve::Server>(svc, srv, in.registry.get());
  if (auto st = in.server->Init(data.graph, vadalink::core::ControlProgram());
      !st.ok()) {
    r->Fail("serve: Server::Init failed: " + st.ToString());
  }
  return in;
}

/// Figures of one rung from its records (records [first, first + n)).
/// `pressure` is the all-reads p99 over the latency limit, a failed read
/// counting as infinitely late; the rung passes when it is at most 1 (the
/// load generator separately fails a rung whose backlog keeps growing).
Rung RungStats(const std::vector<Record>& records, size_t first, size_t n,
               Clock::time_point t0, double rate, const Sizes& sz) {
  Rung rung;
  rung.ran = true;
  rung.offered_rps = rate;
  std::vector<double> ok_reads, all_reads;
  size_t ok = 0;
  Clock::time_point last = t0, last_scheduled = t0;
  for (size_t i = first; i < first + n; ++i) {
    const Record& rec = records[i];
    if (!rec.was_sent) continue;  // the rung was cut short by its backlog
    last_scheduled = rec.scheduled;
    Outcome o = Classify(rec);
    const bool good = o == Outcome::kCold || o == Outcome::kHot;
    if (rec.answered) last = std::max(last, rec.received);
    if (good) ++ok;
    if (rec.op == Op::kIngest) continue;
    if (good) ok_reads.push_back(LatencyMs(rec));
    all_reads.push_back(good ? LatencyMs(rec) : INFINITY);
  }
  rung.drain_ms = std::max(
      0.0,
      std::chrono::duration<double, std::milli>(last - last_scheduled).count());
  rung.completed_rps =
      static_cast<double>(ok) / std::max(1e-9, SecondsBetween(t0, last));
  rung.reads = all_reads.size();
  rung.read_p50_ms = Quantile(ok_reads, 0.5);
  rung.read_p99_ms = Quantile(ok_reads, 0.99);
  const double p99 = Quantile(all_reads, 0.99);
  rung.pressure = std::isfinite(p99) && !all_reads.empty()
                      ? p99 / sz.latency_limit_ms
                      : 100.0;
  rung.pass = rung.pressure <= 1.0;
  return rung;
}

/// Drives `records` (already planned, ids = indexes) through the server
/// step by step. A climb ends at its first rung that misses the latency
/// limit or backs up. Returns one result per step.
std::vector<Rung> RunLadder(int port, const Sizes& sz,
                            const std::vector<Step>& schedule,
                            std::vector<Record>* records, Report* r) {
  std::vector<Rung> out(schedule.size());
  auto conn = serve::Client::Connect("127.0.0.1", port, 5000);
  if (!conn.ok()) {
    r->Fail("serve: cannot connect: " + conn.status().ToString());
    return out;
  }
  serve::Client client = std::move(conn).value();
  const int64_t sentinel = static_cast<int64_t>(records->size());
  std::atomic<size_t> received{0};
  std::atomic<uint64_t> max_version{0};
  std::atomic<bool> transport_failed{false};
  std::vector<std::string> receiver_errors;

  // Receiver: reads until the sentinel's response (sent after the last
  // rung drains) or a transport failure.
  std::thread receiver([&] {
    while (true) {
      auto line = client.ReadLine();
      Clock::time_point now = Clock::now();
      if (!line.ok()) {
        transport_failed = true;
        receiver_errors.push_back("serve: transport: " +
                                  line.status().ToString());
        return;
      }
      auto parsed = Json::Parse(*line);
      const Json* id = parsed.ok() ? parsed->Find("id") : nullptr;
      if (id == nullptr || !id->is_int() || id->AsInt() < 0 ||
          id->AsInt() > sentinel) {
        receiver_errors.push_back("serve: response without a request id: " +
                                  line->substr(0, 120));
        continue;
      }
      if (id->AsInt() == sentinel) return;
      Record& rec = (*records)[static_cast<size_t>(id->AsInt())];
      if (rec.answered) {
        receiver_errors.push_back("serve: two responses for one request");
        continue;
      }
      rec.received = now;
      const Json* v = parsed->Find("graph_version");
      if (v != nullptr && v->is_int()) {
        uint64_t ver = static_cast<uint64_t>(v->AsInt());
        uint64_t seen = max_version.load();
        while (ver > seen && !max_version.compare_exchange_weak(seen, ver)) {
        }
      }
      rec.outcome = Classify(*parsed);
      rec.response = std::move(line).value();
      rec.answered = true;
      received.fetch_add(1);
    }
  });

  struct RanStep {
    size_t step;
    Clock::time_point t0;
    bool backlog;
  };
  std::vector<RanStep> ran;
  bool stalled = false;
  size_t sent = 0;
  size_t missed_climb = 0;  // climb 0 (warm-up, reference) is never skipped
  for (size_t s = 0; s < schedule.size(); ++s) {
    const Step& step = schedule[s];
    if (step.climb > 0 && step.climb == missed_climb) continue;
    const double rate = sz.ladder_rps[step.rung];
    const size_t n = step.n, next = step.first;
    Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
    bool backlog = false;
    for (size_t i = 0; i < n && !transport_failed && !stalled; ++i) {
      // A growing backlog ends the rung before the server's admission
      // queue fills: such a rung already misses the limit, and the sheds
      // that would follow say nothing more.
      if (sent - received.load() >= sz.max_outstanding) {
        backlog = true;
        break;
      }
      Record& rec = (*records)[next + i];
      rec.scheduled =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(i) /
                                                 rate));
      std::this_thread::sleep_until(rec.scheduled);
      rec.floor_version = max_version.load();
      rec.sent = Clock::now();
      rec.was_sent = true;
      if (!client.SendLine(rec.line).ok()) {
        transport_failed = true;
        break;
      }
      ++sent;
    }
    // Drain: every request of the rung answered (bounded wait).
    Clock::time_point drain_start = Clock::now();
    while (received.load() < sent && !transport_failed &&
           SecondsSince(drain_start) < 20.0) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (received.load() < sent) stalled = true;
    ran.push_back({s, t0, backlog});
    if (!stalled) out[s] = RungStats(*records, next, n, t0, rate, sz);
    const bool pass = !stalled && !backlog && out[s].pass;
    if (stalled || transport_failed) break;
    if (!pass) missed_climb = step.climb;
  }
  if (!transport_failed) {
    (void)client.SendLine(
        Traffic::RequestLine(sentinel, "health", Json::MakeObject()));
  }
  receiver.join();
  for (std::string& e : receiver_errors) r->Fail(std::move(e));
  if (stalled) r->Fail("serve: a rung did not drain within 20 s");
  // Final per-step figures, now that the receiver has stopped writing.
  for (const RanStep& g : ran) {
    const Step& step = schedule[g.step];
    Rung& rung = out[g.step];
    rung = RungStats(*records, step.first, step.n, g.t0,
                     sz.ladder_rps[step.rung], sz);
    if (g.backlog) {
      rung.pass = false;
      rung.pressure = std::max(rung.pressure, 1.0);
    }
  }
  return out;
}

/// Highest offered rate that meets the latency limit without a backlog.
/// Between the last passing rung and the first failing one it interpolates
/// log(pressure) linearly in the rate: near saturation a queue's tail
/// latency grows roughly exponentially with the offered rate.
double MaxRps(const std::vector<Rung>& rungs) {
  double pass_rate = 0.0, pass_pressure = 1e-3;
  for (const Rung& g : rungs) {
    if (!g.ran) break;
    if (g.pass) {
      pass_rate = g.offered_rps;
      pass_pressure = std::max(g.pressure, 1e-3);
      continue;
    }
    double f = -std::log(pass_pressure) /
               (std::log(g.pressure) - std::log(pass_pressure));
    return pass_rate + std::clamp(f, 0.0, 1.0) * (g.offered_rps - pass_rate);
  }
  return pass_rate;
}

/// MaxRps of each climb, climbs 1 to `climbs` in order.
std::vector<double> ClimbMaxRps(const Sizes& sz,
                                const std::vector<Step>& schedule,
                                const std::vector<Rung>& results) {
  std::vector<double> out;
  for (size_t c = 1; c <= sz.climbs; ++c) {
    std::vector<Rung> climb;
    for (size_t s = 0; s < schedule.size(); ++s) {
      if (schedule[s].climb == c) climb.push_back(results[s]);
    }
    out.push_back(MaxRps(climb));
  }
  return out;
}

}  // namespace

Report RunServe(const Options& opt) {
  const Sizes& sz = opt.sizes;
  Report r;
  SpanLog log(opt.trace);

  // ---- set-up: generation and Server::Init (initial Reason + publish) ----
  vadalink::gen::RegisterData data;
  Instance inst;
  const std::vector<double> setup = TimeSetup(sz, [&] {
    inst.server.reset();  // stop the previous server before its registry
    inst.registry.reset();
    vadalink::gen::RegisterConfig rc;
    rc.persons = sz.serve_persons;
    rc.companies = CompaniesFor(rc.persons);
    rc.seed = opt.seed;
    data = vadalink::gen::GenerateRegister(rc);
    inst = StartServer(data, sz, opt.trace, &r);
  });
  if (auto st = inst.server->Start(); !st.ok()) {
    r.Fail("serve: Start failed: " + st.ToString());
    return r;
  }

  // ---- plan the traffic ----
  const std::vector<Step> schedule = Schedule(sz, opt.seconds);
  Traffic traffic(data, sz, opt.seed);
  std::vector<Record> records;
  for (size_t s = 0; s < schedule.size(); ++s) {
    for (size_t i = 0; i < schedule[s].n; ++i) {
      records.push_back(traffic.Next(static_cast<int64_t>(records.size())));
      records.back().step = s;
    }
  }

  // ---- timed region: the ladder ----
  std::vector<Rung> rungs =
      RunLadder(inst.server->port(), sz, schedule, &records, &r);

  // ---- output checks and metrics (untimed) ----
  std::vector<double> cold, hot, ingest, cold_control;
  std::vector<VersionObservation> versions;
  size_t stale = 0, shed = 0, errors = 0, lost = 0, malformed = 0;
  for (const Record& rec : records) {
    if (!rec.was_sent) continue;
    ++r.attempted;
    Outcome o = Classify(rec);
    Json response;
    if (rec.answered) {
      auto parsed = Json::Parse(rec.response);
      std::string bad =
          parsed.ok() ? CheckServeResponse(
                            *parsed, OpName(rec.op),
                            static_cast<int64_t>(&rec - records.data()))
                      : "response is not JSON";
      if (!bad.empty()) {
        if (++malformed <= 3) r.Fail("serve: " + bad);
      }
      if (parsed.ok()) response = std::move(parsed).value();
    }
    switch (o) {
      case Outcome::kStale: ++stale; break;
      case Outcome::kShed: ++shed; break;
      case Outcome::kError: ++errors; break;
      case Outcome::kLost: ++lost; break;
      default: break;
    }
    if (o != Outcome::kCold && o != Outcome::kHot) {
      ++r.failed;
      continue;
    }
    VersionObservation seen;
    seen.floor = rec.floor_version;
    const Json* v = response.Find("graph_version");
    seen.version = v != nullptr && v->is_int() ? v->AsInt() : 0;
    if (rec.op == Op::kIngest) {
      const Json* res = response.Find("result");
      const Json* created = res != nullptr ? res->Find("graph_version") : nullptr;
      seen.ingest = true;
      seen.created =
          created != nullptr && created->is_int() ? created->AsInt() : 0;
    }
    versions.push_back(seen);
    if (!schedule[rec.step].reference || rec.op == Op::kHealth) continue;
    if (rec.op == Op::kIngest) {
      ingest.push_back(LatencyMs(rec));
    } else if (o == Outcome::kHot) {
      hot.push_back(LatencyMs(rec));
    } else {
      cold.push_back(LatencyMs(rec));
      if (rec.op == Op::kControl) cold_control.push_back(LatencyMs(rec));
    }
  }
  if (errors > 0) {
    r.Fail("serve: " + std::to_string(errors) +
           " request(s) answered with an error other than a shed");
  }
  for (std::string& f : CheckVersionOrder(versions)) r.Fail(std::move(f));

  // Final sample: the engine-routed control answer of each key against the
  // same request pinned to the compiled path with "threshold": 0.5.
  std::vector<int64_t> sample_keys;
  std::vector<std::vector<int64_t>> engine_ids, compiled_ids;
  {
    auto conn = serve::Client::Connect("127.0.0.1", inst.server->port(), 10000);
    if (!conn.ok()) {
      r.Fail("serve: cannot connect for the final sample");
    } else {
      const auto& keys = traffic.control_keys();
      for (size_t i = 0; i < std::min(sz.oracle_sample, keys.size()); ++i) {
        Json q1 = Json::MakeObject();
        q1.Set("source", Json::Int(keys[i]));
        Json q2 = Json::MakeObject();
        q2.Set("source", Json::Int(keys[i]));
        q2.Set("threshold", Json::Double(0.5));
        auto a = conn->Call("control", std::move(q1));
        auto b = conn->Call("control", std::move(q2));
        r.attempted += 2;
        auto answered = [](const vadalink::Result<Json>& resp) {
          const Json* ok = resp.ok() ? resp->Find("ok") : nullptr;
          return ok != nullptr && ok->is_bool() && ok->AsBool();
        };
        if (!answered(a) || !answered(b)) {
          r.failed += 2;
          r.Fail("serve: final-sample control request failed");
          continue;
        }
        sample_keys.push_back(keys[i]);
        engine_ids.push_back(ControlledIds(*a));
        compiled_ids.push_back(ControlledIds(*b));
      }
    }
  }
  const KeySample key_sample =
      CompareKeySample(sample_keys, engine_ids, compiled_ids);
  const size_t mismatched_keys = key_sample.mismatched_keys;

  const double setup_s = Median(setup);
  const double rss = PeakRssMb();
  // max_rps is the best climb's: a stall of the shared machine only ever
  // lowers a climb, so the best one comes closest to what the server
  // sustains. Its rungs are the ones reported.
  const std::vector<double> climb_rps = ClimbMaxRps(sz, schedule, rungs);
  const size_t best_climb =
      1 + static_cast<size_t>(
              std::max_element(climb_rps.begin(), climb_rps.end()) -
              climb_rps.begin());
  const double max_rps = climb_rps[best_climb - 1];
  const double f1 = key_sample.f1;
  Tail cold_tail = SupportedTail(cold, 99), hot_tail = SupportedTail(hot, 99);
  Tail ingest_tail = SupportedTail(ingest, 90);
  auto pct = [](const char* cls, const Tail& t) {
    return std::string(cls) + "_p" + std::to_string(static_cast<int>(t.pct)) +
           "_ms";
  };
  r.Show("setup_s", setup_s, "s", setup.size());
  r.Show("peak_rss_mb", rss, "MB");
  r.Show("cold_p50_ms", Median(cold), "ms", cold.size());
  r.Show(pct("cold", cold_tail), cold_tail.value, "ms", cold.size());
  r.Show("cold_control_p50_ms", Median(cold_control), "ms",
         cold_control.size());
  r.Show("hot_p50_ms", Median(hot), "ms", hot.size());
  r.Show(pct("hot", hot_tail), hot_tail.value, "ms", hot.size());
  r.Show("ingest_p50_ms", Median(ingest), "ms", ingest.size());
  r.Show(pct("ingest", ingest_tail), ingest_tail.value, "ms", ingest.size());
  r.Show("max_rps", max_rps, "req/s");
  r.Show("oracle_mismatches", static_cast<double>(mismatched_keys), "count",
         sample_keys.size());
  r.notes.push_back(
      "reference rung " + std::to_string(static_cast<int>(
                              sz.ladder_rps[sz.reference_rung])) +
      " req/s; latency limit " +
      std::to_string(static_cast<int>(sz.latency_limit_ms)) +
      " ms on all-reads p99; failed: " + std::to_string(shed) + " shed, " +
      std::to_string(stale) + " stale, " + std::to_string(errors) +
      " errors, " + std::to_string(lost) + " lost");
  std::vector<double> late;
  for (const Record& rec : records) {
    if (rec.was_sent) {
      late.push_back(std::chrono::duration<double, std::milli>(
                         rec.sent - rec.scheduled)
                         .count());
    }
  }
  r.notes.push_back("load generator sent late by p50 " +
                    std::to_string(Quantile(late, 0.5)) + " ms, p99 " +
                    std::to_string(Quantile(late, 0.99)) + " ms (n=" +
                    std::to_string(late.size()) + ")");
  for (size_t s = 0; s < rungs.size(); ++s) {
    const Rung& g = rungs[s];
    if (!g.ran) continue;
    char buf[220];
    std::snprintf(buf, sizeof(buf),
                  "rung %zu (climb %zu): offered %.0f req/s, completed %.1f "
                  "req/s, read p50 %.3f ms, p99 %.3f ms (n=%zu), drain %.1f "
                  "ms, pressure %.3f, %s",
                  schedule[s].rung, schedule[s].climb, g.offered_rps,
                  g.completed_rps, g.read_p50_ms, g.read_p99_ms, g.reads,
                  g.drain_ms, g.pressure, g.pass ? "pass" : "miss");
    r.notes.push_back(buf);
  }
  std::string climbs = "max_rps per climb:";
  for (double v : climb_rps) climbs += " " + std::to_string(v);
  r.notes.push_back(climbs + " (best: climb " + std::to_string(best_climb) +
                    ")");

  if (!opt.trace) {
    r.Emit("setup_s", setup_s);
    r.Emit("peak_rss_mb", rss);
    r.Emit("op_p50_ms", Median(cold_control));
    r.Emit("ops_per_s", max_rps);
    r.Emit("answer_f1", f1);
    return r;
  }

  // ---- traced run: spans per request, layer probes, per-layer table ----
  // Each answered request becomes a span under its rung's span, from its
  // scheduled send time to its response, carrying the request id.
  for (size_t first = 0; first < records.size();) {
    size_t end = first;
    Clock::time_point start = records[first].scheduled, stop = start;
    while (end < records.size() && records[end].step == records[first].step) {
      if (records[end].answered) stop = std::max(stop, records[end].received);
      ++end;
    }
    if (records[first].was_sent) {
      const Step& step = schedule[records[first].step];
      uint64_t rung_span =
          log.Add("serve.rung" + std::to_string(step.rung) + ".climb" +
                      std::to_string(step.climb),
                  start, stop, 0, -1);
      for (size_t i = first; i < end; ++i) {
        if (records[i].answered) {
          log.Add(std::string("serve.request.") + OpName(records[i].op),
                  records[i].scheduled, records[i].received, rung_span,
                  static_cast<int64_t>(i));
        }
      }
    }
    first = end;
  }
  auto cg = vadalink::company::CompanyGraph::FromPropertyGraph(data.graph);
  const auto& company_keys = traffic.company_keys();
  const size_t sample = std::min(sz.oracle_sample, company_keys.size());
  double ubo_s = 0.0, closelinks_s = 0.0;
  MetricsRegistry probe_reg;
  if (cg.ok()) {
    vadalink::company::CloseLinkConfig cfg;
    cfg.metrics = &probe_reg;
    for (size_t i = 0; i < sample; ++i) {
      auto c = static_cast<vadalink::graph::NodeId>(company_keys[i]);
      {
        SpanLog::Scope span(&log, "company.UltimateOwnersOf");
        Clock::time_point t0 = Clock::now();
        (void)vadalink::company::UltimateOwnersOf(*cg, c, 0.25);
        ubo_s += SecondsSince(t0);
      }
      {
        SpanLog::Scope span(&log, "company.CloseLinksOf");
        Clock::time_point t0 = Clock::now();
        (void)vadalink::company::CloseLinksOf(*cg, c, cfg);
        closelinks_s += SecondsSince(t0);
      }
    }
  }
  double parse_s = 0.0, publish_s = 0.0, copy_s = 0.0;
  const int probe_reps = 5;
  for (int i = 0; i < probe_reps; ++i) {
    vadalink::datalog::Catalog cat;
    {
      SpanLog::Scope span(&log, "datalog.ParseProgram");
      Clock::time_point t0 = Clock::now();
      (void)vadalink::datalog::ParseProgram(vadalink::core::ControlProgram(),
                                            &cat);
      parse_s += SecondsSince(t0);
    }
    {
      SpanLog::Scope span(&log, "serve.publish");
      Clock::time_point t0 = Clock::now();
      vadalink::graph::PropertyGraph copy;
      {
        SpanLog::Scope child(&log, "graph.copy");
        Clock::time_point c0 = Clock::now();
        copy = data.graph;
        copy_s += SecondsSince(c0);
      }
      (void)vadalink::company::CompanyGraph::FromPropertyGraph(copy);
      publish_s += SecondsSince(t0);
    }
  }
  // In-process Handle for cached keys: the first call fills the cache, the
  // timed second call is a hit at the same version.
  double handle_s = 0.0;
  size_t handled = 0;
  for (size_t i = 0; i < sample; ++i) {
    serve::Request req;
    req.id = Json::Int(static_cast<int64_t>(i));
    req.op = "ubo";
    req.params = Json::MakeObject();
    req.params.Set("target", Json::Int(company_keys[i]));
    (void)inst.server->service().Handle(req, nullptr);
    SpanLog::Scope span(&log, "serve.ReasoningService.Handle(hot)");
    Clock::time_point t0 = Clock::now();
    std::string line = inst.server->service().Handle(req, nullptr);
    handle_s += SecondsSince(t0);
    auto parsed = Json::Parse(line);
    const Json* cached = parsed.ok() ? parsed->Find("cached") : nullptr;
    handled += cached != nullptr && cached->AsBool() ? 1 : 0;
  }
  if (handled != sample) {
    r.notes.push_back("in-process Handle served " + std::to_string(handled) +
                      " of " + std::to_string(sample) + " probes from cache");
  }

  MetricsRegistry& reg = *inst.registry;
  auto cnt = [&](const char* name) {
    return static_cast<double>(reg.CounterValue(name));
  };
  const double hits = cnt("serve.cache.hits"), misses = cnt("serve.cache.misses");
  const auto inc = reg.SpanValue("reason_incremental");
  const double inc_n = std::max<double>(1.0, static_cast<double>(inc.count));
  const double engine_queries = cnt("serve.query.engine");
  const double query_runs = cnt("engine.query.runs");
  const double samples = static_cast<double>(std::max<size_t>(1, sample));
  // Tracing overhead under like conditions: two services initialised from
  // the same graph, one reporting into a registry and one without, answer
  // the same cold engine-routed control reads, alternating which goes
  // first.
  std::vector<double> with_registry_s, without_registry_s;
  {
    MetricsRegistry overhead_reg;
    serve::ReasoningService traced_svc({}, &overhead_reg), plain_svc({}, nullptr);
    const std::string program = vadalink::core::ControlProgram();
    if (!traced_svc.Init(data.graph, program).ok() ||
        !plain_svc.Init(data.graph, program).ok()) {
      r.Fail("serve: ReasoningService::Init failed");
    }
    const auto& keys = traffic.control_keys();
    for (size_t i = 0; i < std::min(sz.overhead_keys, keys.size()); ++i) {
      serve::Request req;
      req.id = Json::Int(static_cast<int64_t>(i));
      req.op = "control";
      req.params = Json::MakeObject();
      req.params.Set("source", Json::Int(keys[i]));
      for (int side = 0; side < 2; ++side) {
        const bool traced = (i + side) % 2 == 0;
        Clock::time_point t0 = Clock::now();
        (void)(traced ? traced_svc : plain_svc).Handle(req, nullptr);
        (traced ? with_registry_s : without_registry_s)
            .push_back(SecondsSince(t0));
      }
    }
  }
  const double overhead =
      Median(without_registry_s) > 0
          ? Median(with_registry_s) / Median(without_registry_s) - 1.0
          : 0.0;

  std::vector<LayerRow> rows = {
      {"serve", "reason_incremental (per ingest)", inc_n,
       RegistrySeconds(reg, "reason_incremental") / inc_n,
       (RegistrySeconds(reg, "reason_incremental") -
        RegistrySeconds(reg, "reason_incremental/chase")) /
           inc_n},
      {"datalog", "reason_incremental/chase", inc_n,
       RegistrySeconds(reg, "reason_incremental/chase") / inc_n,
       RegistrySeconds(reg, "reason_incremental/chase") / inc_n},
      {"datalog", "chase (engine-routed control, per query)", engine_queries,
       engine_queries > 0 ? RegistrySeconds(reg, "chase") / engine_queries
                          : 0.0,
       engine_queries > 0 ? RegistrySeconds(reg, "chase") / engine_queries
                          : 0.0},
      {"datalog", "bench: ParseProgram(control)", probe_reps,
       parse_s / probe_reps, parse_s / probe_reps},
      {"serve", "bench: publish (copy + CompanyGraph)", probe_reps,
       publish_s / probe_reps, (publish_s - copy_s) / probe_reps},
      {"graph", "bench: publish/graph copy", probe_reps, copy_s / probe_reps,
       copy_s / probe_reps},
      {"company", "bench: UltimateOwnersOf", samples, ubo_s / samples,
       ubo_s / samples},
      {"company", "bench: CloseLinksOf", samples, closelinks_s / samples,
       closelinks_s / samples},
      {"serve", "bench: Handle (cached ubo)", samples, handle_s / samples,
       handle_s / samples},
  };
  std::vector<CounterRow> counters = {
      {"serve.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
       "hits " + std::to_string(static_cast<uint64_t>(hits)) + " / (hits + "
       "misses " + std::to_string(static_cast<uint64_t>(misses)) + ")"},
      {"serve.cache.stale_served", cnt("serve.cache.stale_served"), "total"},
      {"serve.requests.shed", cnt("serve.requests.shed"), "total"},
      {"serve.requests.errors", cnt("serve.requests.errors"), "total"},
      {"serve.snapshots.published", cnt("serve.snapshots.published"),
       "total, including Init"},
      {"serve.ingest.applied", cnt("serve.ingest.applied"), "total"},
      {"serve.ingest.recoveries", cnt("serve.ingest.recoveries"), "total"},
      {"company.ownership.paths_expanded",
       static_cast<double>(
           probe_reg.CounterValue("company.ownership.paths_expanded")) /
           samples,
       "per CloseLinksOf probe"},
      {"serve.engine_chase_ms",
       engine_queries > 0
           ? RegistrySeconds(reg, "chase") * 1e3 / engine_queries
           : 0.0,
       "root chase span / serve.query.engine " +
           std::to_string(static_cast<uint64_t>(engine_queries))},
      {"serve.engine_plan_ms",
       query_runs > 0 ? cnt("engine.query.plan_us") / query_runs / 1e3 : 0.0,
       "engine.query.plan_us / engine.query.runs " +
           std::to_string(static_cast<uint64_t>(query_runs))},
      {"serve.ingest_reason_ms",
       RegistrySeconds(reg, "reason_incremental") * 1e3 / inc_n,
       "reason_incremental span / count"},
      {"serve.ingest_chase_ms",
       RegistrySeconds(reg, "reason_incremental/chase") * 1e3 / inc_n,
       "its chase child / count"},
      {"loadgen.late_p99_ms", Quantile(late, 0.99),
       "send time - scheduled time, n=" + std::to_string(late.size())},
      {"trace.overhead", overhead,
       "median cold control Handle with registry / without - 1 (n=" +
           std::to_string(with_registry_s.size()) + " each, alternating)"},
  };
  // The batch path over the serve graph: one traced full Reason of the
  // served program (what Server::Init runs) plus the fact-mapping probes.
  {
    MetricsRegistry reason_reg;
    vadalink::core::KnowledgeGraph kg;
    *kg.mutable_graph() = data.graph;
    const std::string program = vadalink::core::ControlProgram();
    if (!kg.AddRules(program).ok() || !kg.Reason(nullptr, &reason_reg).ok()) {
      r.Fail("serve: traced Reason of the served program failed");
    }
    AddReasonLayers(data.graph, program, reason_reg, 1, &log, &r, &rows,
                    &counters);
  }
  r.layer_table = LayerTable(rows, counters);

  r.Emit("company.ubo_ms", ubo_s * 1e3 / samples);
  r.Emit("company.closelinks_of_ms", closelinks_s * 1e3 / samples);
  r.Emit("datalog.parse_ms", parse_s * 1e3 / probe_reps);
  r.Emit("serve.publish_ms", publish_s * 1e3 / probe_reps);
  r.Emit("graph.copy_ms", copy_s * 1e3 / probe_reps);
  r.Emit("serve.handle_hot_us", handle_s * 1e6 / samples);
  r.Emit("oracle_mismatches", static_cast<double>(mismatched_keys));
  for (const CounterRow& c : counters) r.Emit(c.name, c.value);
  // Per rung: the warm-up and reference rungs, and the best climb's rungs
  // above the reference.
  for (size_t s = 0; s < schedule.size(); ++s) {
    if (schedule[s].climb != 0 && (schedule[s].climb != best_climb ||
                                   schedule[s].rung <= sz.reference_rung)) {
      continue;
    }
    const std::string p = "serve.rung" + std::to_string(schedule[s].rung) + ".";
    r.Emit(p + "offered_rps", rungs[s].offered_rps);
    r.Emit(p + "completed_rps", rungs[s].completed_rps);
    r.Emit(p + "read_p50_ms", rungs[s].read_p50_ms);
    r.Emit(p + "read_p99_ms", rungs[s].read_p99_ms);
  }
  if (!opt.trace_dir.empty() &&
      !log.Write(opt.trace_dir + "/serve-spans.json")) {
    r.notes.push_back("could not write the span list");
  }
  return r;
}

}  // namespace perfbench
