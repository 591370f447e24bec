#include "common/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "common/run_context.h"

namespace vadalink {

namespace {

/// Per-thread span nesting stack: pointers into live ScopedSpan paths.
thread_local std::vector<const std::string*> g_span_stack;

}  // namespace

uint64_t MetricsHistogram::BucketUpperBound(size_t i) {
  if (i == 0) return 0;
  if (i >= kBuckets - 1) return ~uint64_t{0};
  return (uint64_t{1} << i) - 1;
}

uint64_t MetricsHistogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

MetricsCounter* MetricsRegistry::Counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name), std::make_unique<MetricsCounter>())
             .first;
  }
  return it->second.get();
}

MetricsGauge* MetricsRegistry::Gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<MetricsGauge>())
             .first;
  }
  return it->second.get();
}

MetricsHistogram* MetricsRegistry::Histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<MetricsHistogram>())
             .first;
  }
  return it->second.get();
}

uint64_t MetricsRegistry::CounterValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

double MetricsRegistry::GaugeValue(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

SpanStats MetricsRegistry::SpanValue(std::string_view path) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(path);
  return it == spans_.end() ? SpanStats{} : it->second;
}

void MetricsRegistry::RecordSpan(const std::string& path, uint64_t micros,
                                 const RunContext* run_ctx) {
  StatusCode trip = StatusCode::kOk;
  if (run_ctx != nullptr) trip = run_ctx->CheckNow().code();
  std::lock_guard<std::mutex> lock(mu_);
  SpanStats& s = spans_[path];
  ++s.count;
  s.total_micros += micros;
  switch (trip) {
    case StatusCode::kDeadlineExceeded: ++s.deadline_hits; break;
    case StatusCode::kResourceExhausted: ++s.budget_trips; break;
    case StatusCode::kCancelled: ++s.cancellations; break;
    default: break;
  }
}

Json MetricsRegistry::ToJson(const MetricsJsonOptions& options) const {
  auto u64 = [](uint64_t v) { return Json::Int(static_cast<int64_t>(v)); };
  std::lock_guard<std::mutex> lock(mu_);
  Json counters = Json::MakeObject();
  for (const auto& [name, c] : counters_) {
    counters.Set(name, u64(c->value()));
  }
  Json gauges = Json::MakeObject();
  for (const auto& [name, g] : gauges_) {
    gauges.Set(name, Json::Double(g->value()));
  }
  Json histograms = Json::MakeObject();
  for (const auto& [name, h] : histograms_) {
    // "*.us" histograms are wall-clock derived; emit only on request so
    // the default document stays byte-stable run-to-run.
    if (!options.include_timings && name.ends_with(".us")) continue;
    Json buckets = Json::MakeArray();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < MetricsHistogram::kBuckets; ++i) {
      cumulative += h->bucket(i);
      buckets.Append(u64(cumulative));
    }
    Json hist = Json::MakeObject();
    // The last cumulative bucket, not count(): a concurrent Record() then
    // cannot make the two disagree.
    hist.Set("count", u64(cumulative));
    hist.Set("sum", u64(h->sum()));
    hist.Set("buckets", std::move(buckets));
    histograms.Set(name, std::move(hist));
  }
  Json spans = Json::MakeObject();
  for (const auto& [path, s] : spans_) {
    Json span = Json::MakeObject();
    span.Set("count", u64(s.count));
    span.Set("deadline_hits", u64(s.deadline_hits));
    span.Set("budget_trips", u64(s.budget_trips));
    span.Set("cancellations", u64(s.cancellations));
    if (options.include_timings) span.Set("us", u64(s.total_micros));
    spans.Set(path, std::move(span));
  }
  Json doc = Json::MakeObject();
  doc.Set("schema_version", Json::Int(1));
  doc.Set("counters", std::move(counters));
  doc.Set("gauges", std::move(gauges));
  doc.Set("histograms", std::move(histograms));
  doc.Set("spans", std::move(spans));
  return doc;
}

std::string MetricsRegistry::TraceReport() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  for (const auto& [path, s] : spans_) {
    size_t depth = 0;
    size_t name_start = 0;
    for (size_t i = 0; i < path.size(); ++i) {
      if (path[i] == '/') {
        ++depth;
        name_start = i + 1;
      }
    }
    out.append(2 * depth, ' ');
    out += path.substr(name_start);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  count=%" PRIu64 " wall=%.3fms",
                  s.count, static_cast<double>(s.total_micros) / 1e3);
    out += buf;
    if (s.deadline_hits > 0) {
      std::snprintf(buf, sizeof(buf), " deadline_hits=%" PRIu64,
                    s.deadline_hits);
      out += buf;
    }
    if (s.budget_trips > 0) {
      std::snprintf(buf, sizeof(buf), " budget_trips=%" PRIu64,
                    s.budget_trips);
      out += buf;
    }
    if (s.cancellations > 0) {
      std::snprintf(buf, sizeof(buf), " cancellations=%" PRIu64,
                    s.cancellations);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

ScopedSpan::ScopedSpan(MetricsRegistry* reg, std::string_view name,
                       const RunContext* run_ctx)
    : reg_(reg), run_ctx_(run_ctx) {
  if (reg_ == nullptr) return;
  if (!g_span_stack.empty()) {
    path_ = *g_span_stack.back();
    path_ += '/';
  }
  path_ += name;
  g_span_stack.push_back(&path_);
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  if (reg_ == nullptr) return;
  auto elapsed = std::chrono::steady_clock::now() - start_;
  uint64_t micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  g_span_stack.pop_back();
  reg_->RecordSpan(path_, micros, run_ctx_);
  reg_->Histogram(path_ + ".us")->Record(micros);
}

}  // namespace vadalink
