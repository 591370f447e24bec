// Metrics & tracing — the observability layer of the pipeline.
//
// A MetricsRegistry holds three kinds of named instruments plus a span
// tree, all thread-safe and cheap enough for per-item hot loops:
//
//  * Counter   — monotonic uint64, relaxed atomic adds. Counters measure
//    *work* (facts derived, pairs scored, walks generated), so their
//    totals are thread-count invariant whenever the work itself is.
//  * Gauge     — last-written double (k-means inertia, effective k, ...).
//  * Histogram — fixed log2-scale buckets (bucket i counts values whose
//    bit width is i, i.e. upper bounds 0, 1, 3, 7, ..., 2^k-1). Used both
//    for value distributions (block sizes, chase delta sizes) and, via
//    ScopedSpan, for span latencies in microseconds.
//
// Instrument pointers returned by the registry are stable for its
// lifetime: resolve once outside the loop, then Add() costs one relaxed
// atomic RMW (the <= 2% overhead budget of DESIGN.md section 8).
//
// ScopedSpan is the tracer: an RAII stage marker that nests via a
// thread-local path stack ("augment/round0/embed/walks"), times the stage
// into "<path>.us" histograms, and — given the stage's RunContext —
// records governor trips (deadline hits, budget trips, cancellations)
// observed while the span was open. Spans are created by the sequential
// orchestration code, never inside pool workers, so the span tree is
// deterministic; worker counts reach the registry through the pipeline's
// existing chunk-ordered merges (or through commutative counter adds,
// whose totals are order-independent).
//
// ToJson() builds the single stable-schema document shared by
// `--metrics-json`, serve's `metrics` op and the bench harnesses: keys
// sorted (common/json.h), counters exact, histogram buckets cumulative
// (monotone non-decreasing). Wall-clock
// fields (span microseconds, latency histograms) are gated behind
// JsonOptions.include_timings so the default document is byte-stable
// across runs for a deterministic pipeline (fixed seed, threads = 1).
//
// A null `MetricsRegistry*` disables everything; use the Metric*()
// helpers (or guard on nullptr) to make that case free.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/status.h"

namespace vadalink {

class RunContext;

/// Monotonic counter. Add() is a relaxed atomic RMW; the total is exact
/// regardless of thread interleaving (addition commutes).
class MetricsCounter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written double value.
class MetricsGauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log2-bucketed histogram: bucket i counts recorded values v with
/// bit_width(v) == i (bucket 0 holds v == 0, the last bucket is a
/// catch-all). Record() is two relaxed RMWs; count and sum are exact.
class MetricsHistogram {
 public:
  static constexpr size_t kBuckets = 33;

  void Record(uint64_t v) {
    buckets_[BucketOf(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Bucket index for a value: 0 for 0, else min(bit_width, kBuckets-1).
  static size_t BucketOf(uint64_t v) {
    size_t w = static_cast<size_t>(std::bit_width(v));
    return w < kBuckets ? w : kBuckets - 1;
  }
  /// Inclusive upper bound of bucket i (2^i - 1; ~0 for the catch-all).
  static uint64_t BucketUpperBound(size_t i);

  uint64_t count() const;
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> sum_{0};
};

/// Aggregated observations of one span path across all of its openings.
struct SpanStats {
  uint64_t count = 0;
  uint64_t total_micros = 0;
  /// Governor trips observed at span close (per RunContext status code).
  uint64_t deadline_hits = 0;
  uint64_t budget_trips = 0;
  uint64_t cancellations = 0;
};

/// Emission knobs for MetricsRegistry::ToJson().
struct MetricsJsonOptions {
  /// Include wall-clock-derived fields (span "us" totals and every
  /// "*.us" histogram). Off by default: the default document is
  /// byte-stable run-to-run for a deterministic pipeline and safe to
  /// diff in CI; timings are opt-in (--metrics-wall).
  bool include_timings = false;
};

/// Thread-safe registry of named instruments plus the span tree.
///
/// Instrument resolution (Counter/Gauge/Histogram) takes a mutex; the
/// returned pointers are stable for the registry's lifetime and all
/// updates through them are lock-free. Metric names use dotted
/// lower-case ("linkage.pairs.scored"); span paths use '/' nesting
/// ("augment/round0/embed"). See DESIGN.md section 8 for the catalog.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  MetricsCounter* Counter(std::string_view name);
  MetricsGauge* Gauge(std::string_view name);
  MetricsHistogram* Histogram(std::string_view name);

  /// Snapshot reads for tests and report code; 0 / absent-safe.
  uint64_t CounterValue(std::string_view name) const;
  double GaugeValue(std::string_view name) const;
  /// Span stats for an exact path; zeroed stats when never opened.
  SpanStats SpanValue(std::string_view path) const;

  /// Called by ScopedSpan at close; public so custom harnesses can feed
  /// externally-timed stages into the same tree.
  void RecordSpan(const std::string& path, uint64_t micros,
                  const RunContext* run_ctx);

  /// The stable-schema JSON document (see DESIGN.md section 8):
  /// {"counters":{...},"gauges":{...},
  ///  "histograms":{name:{"buckets":[cumulative...],"count","sum"}},
  ///  "schema_version":1,
  ///  "spans":{path:{"budget_trips","cancellations","count",
  ///                 "deadline_hits"[,"us"]}}}
  /// Buckets are cumulative (monotone non-decreasing).
  Json ToJson(const MetricsJsonOptions& options = {}) const;

  /// Human-readable span tree (indented by path depth, '/'-ordered),
  /// with per-span wall time and trip counts. For --trace output.
  std::string TraceReport() const;

 private:
  mutable std::mutex mu_;
  // std::map keeps keys sorted, which is what makes emission stable.
  std::map<std::string, std::unique_ptr<MetricsCounter>, std::less<>>
      counters_;
  std::map<std::string, std::unique_ptr<MetricsGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricsHistogram>, std::less<>>
      histograms_;
  std::map<std::string, SpanStats, std::less<>> spans_;
};

/// Null-tolerant helpers: a nullptr registry records nothing, costs one
/// branch.
inline void MetricAdd(MetricsRegistry* reg, std::string_view name,
                      uint64_t n) {
  if (reg != nullptr) reg->Counter(name)->Add(n);
}
inline void MetricSet(MetricsRegistry* reg, std::string_view name, double v) {
  if (reg != nullptr) reg->Gauge(name)->Set(v);
}
inline void MetricRecord(MetricsRegistry* reg, std::string_view name,
                         uint64_t v) {
  if (reg != nullptr) reg->Histogram(name)->Record(v);
}

/// RAII stage marker: opens a nested span on construction, records its
/// duration and governor trips on destruction.
///
/// Nesting is per-thread: a span opened while another is open on the same
/// thread gets the parent's path as a prefix ("augment/round0/embed").
/// Create spans only from orchestration code (never inside ParallelFor
/// bodies) so paths stay deterministic.
class ScopedSpan {
 public:
  /// `run_ctx` (optional) is polled once at close: a tripped governor is
  /// attributed to this span (deadline_hits / budget_trips /
  /// cancellations). A null registry makes the span free.
  ScopedSpan(MetricsRegistry* reg, std::string_view name,
             const RunContext* run_ctx = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Full '/'-joined path of this span.
  const std::string& path() const { return path_; }

 private:
  MetricsRegistry* reg_;
  const RunContext* run_ctx_;
  std::string path_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace vadalink
