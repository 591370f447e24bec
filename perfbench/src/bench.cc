#include "bench.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "serve/json.h"

namespace perfbench {

bool LoadDeclared(const std::string& path, std::vector<Declared>* e2e,
                  std::vector<Declared>* layer) {
  using vadalink::serve::Json;
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream ss;
  ss << in.rdbuf();
  auto doc = Json::Parse(ss.str());
  if (!doc.ok()) return false;
  for (auto [key, out] : {std::make_pair("end_to_end", e2e),
                          std::make_pair("per_layer", layer)}) {
    const Json* list = doc->Find(key);
    if (list == nullptr || !list->is_array()) return false;
    for (const Json& m : list->AsArray()) {
      const Json* name = m.Find("name");
      const Json* unit = m.Find("unit");
      if (name == nullptr || unit == nullptr || !name->is_string() ||
          !unit->is_string()) {
        return false;
      }
      out->push_back({name->AsString(), unit->AsString()});
    }
  }
  return true;
}

Sizes Sizes::Tiny() {
  Sizes s;
  s.augment_persons = 60;
  s.augment_graphs = 2;
  s.augment_rounds = 2;
  s.reason_persons = 300;
  s.pool_threads = 2;
  s.serve_persons = 150;
  s.ladder_rps = {50, 100, 150};
  s.reference_rung = 1;
  s.reference_share = 0.4;
  s.step_share = 0.2;
  s.climbs = 2;
  // Enough ingests at the reference rung to time.
  s.health_pct = 0;
  s.ingest_pct = 10;
  s.oracle_sample = 10;
  s.overhead_keys = 10;
  s.setup_budget_s = 0.05;
  s.setup_min_repeats = 2;
  return s;
}

// ---- statistics -------------------------------------------------------------

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || !std::isfinite(v[hi])) return frac == 0.0 ? v[lo] : v[hi];
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail SupportedTail(const std::vector<double>& v, double wanted_pct) {
  Tail t;
  t.n = v.size();
  for (double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct > wanted_pct) continue;
    double beyond = static_cast<double>(v.size()) * (1.0 - pct / 100.0);
    if (beyond >= 10.0 || pct == 50.0) {
      t.pct = pct;
      t.value = Quantile(v, pct / 100.0);
      return t;
    }
  }
  return t;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

// ---- report -----------------------------------------------------------------

namespace {

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

void PrintReport(const std::string& workload, const Report& r, bool trace) {
  std::printf("== workload %s (%s run)\n", workload.c_str(),
              trace ? "traced" : "untraced");
  if (!r.printed.empty()) {
    std::printf("%-28s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
    for (const Metric& m : r.printed) {
      std::printf("%-28s %16.6g  %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(),
                  m.n > 0 ? ("n=" + std::to_string(m.n)).c_str() : "");
    }
  }
  double share = r.attempted > 0 ? static_cast<double>(r.failed) /
                                       static_cast<double>(r.attempted)
                                 : 0.0;
  std::printf("operations: %llu attempted, %llu failed (%.4f%%)\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), 100.0 * share);
  for (const std::string& n : r.notes) std::printf("note: %s\n", n.c_str());
  for (const std::string& f : r.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("output checks: %s\n", r.correct ? "pass" : "FAIL");
  std::fputs(r.layer_table.c_str(), stdout);
}

std::string ResultLine(Report* r, const std::vector<Declared>& declared,
                       bool trace) {
  std::string metrics;
  for (const Declared& d : declared) {
    auto it = r->values.find(d.name);
    double v = it != r->values.end() ? it->second : 0.0;
    if (!trace && (it == r->values.end() || !(v > 0.0))) {
      r->Fail("end-to-end metric " + d.name + " was not measured");
    }
    if (!std::isfinite(v)) {
      r->Fail("metric " + d.name + " is not finite");
      v = 0.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += Quote(d.name) + ": {\"value\": " + Number(v) +
               ", \"unit\": " + Quote(d.unit) + "}";
  }
  std::string out = "{\"correct\": ";
  out += r->correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r->attempted);
  out += ", \"failed\": " + std::to_string(r->failed);
  out += ", \"metrics\": {" + metrics + "}}";
  return out;
}

// ---- bench-side tracing -----------------------------------------------------

namespace {
thread_local std::vector<uint64_t> tls_open_scopes;
}

SpanLog::Scope::Scope(SpanLog* log, std::string name)
    : log_(log != nullptr && log->enabled() ? log : nullptr) {
  if (log_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(log_->mu_);
    id_ = log_->next_id_++;
  }
  parent_ = tls_open_scopes.empty() ? 0 : tls_open_scopes.back();
  tls_open_scopes.push_back(id_);
  name_ = std::move(name);
  start_ = Clock::now();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Clock::time_point end = Clock::now();
  tls_open_scopes.pop_back();
  std::lock_guard<std::mutex> lock(log_->mu_);
  log_->spans_.push_back({id_, parent_, std::move(name_), start_, end, -1});
}

uint64_t SpanLog::Add(std::string name, Clock::time_point start,
                      Clock::time_point end, uint64_t parent,
                      int64_t request_id) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  spans_.push_back({id, parent, std::move(name), start, end, request_id});
  return id;
}

bool SpanLog::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"name\": %s, "
                 "\"start_us\": %.3f, \"end_us\": %.3f",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 Quote(s.name).c_str(), us(s.start), us(s.end));
    if (s.request_id >= 0) {
      std::fprintf(f, ", \"request_id\": %lld",
                   static_cast<long long>(s.request_id));
    }
    std::fprintf(f, "}%s\n", i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---- program-side spans -----------------------------------------------------

double RegistrySeconds(const vadalink::MetricsRegistry& reg,
                       const std::string& path) {
  return static_cast<double>(reg.SpanValue(path).total_micros) * 1e-6;
}

double RoundSeconds(const vadalink::MetricsRegistry& reg, size_t rounds,
                    const std::string& suffix) {
  double total = 0.0;
  for (size_t k = 0; k < rounds; ++k) {
    total += RegistrySeconds(
        reg, "augment/round" + std::to_string(k) + "/" + suffix);
  }
  return total;
}

std::string LayerTable(const std::vector<LayerRow>& rows,
                       const std::vector<CounterRow>& counters) {
  std::string out;
  char buf[512];
  out += "-- per-layer spans (seconds per operation; self = span minus child "
         "spans)\n";
  std::snprintf(buf, sizeof(buf), "%-8s %-42s %8s %12s %12s\n", "layer",
                "span", "count", "total_s", "self_s");
  out += buf;
  for (const LayerRow& r : rows) {
    std::snprintf(buf, sizeof(buf), "%-8s %-42s %8.4g %12.6f %12.6f\n",
                  r.layer.c_str(), r.span.c_str(), r.count, r.total, r.self);
    out += buf;
  }
  out += "-- counters and ratios (with their bases)\n";
  for (const CounterRow& c : counters) {
    std::snprintf(buf, sizeof(buf), "%-34s %16.6g  %s\n", c.name.c_str(),
                  c.value, c.base.c_str());
    out += buf;
  }
  return out;
}

}  // namespace perfbench
