// common/metrics.h: registry semantics, histogram bucketing, span nesting,
// trip attribution and the stable-schema JSON document.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/run_context.h"

namespace vadalink {
namespace {

TEST(MetricsCounterTest, AddAndRead) {
  MetricsRegistry reg;
  reg.Counter("a.b")->Add(3);
  reg.Counter("a.b")->Increment();
  EXPECT_EQ(reg.CounterValue("a.b"), 4u);
  EXPECT_EQ(reg.CounterValue("never.touched"), 0u);
}

TEST(MetricsCounterTest, PointerIsStableAcrossLookups) {
  MetricsRegistry reg;
  MetricsCounter* first = reg.Counter("x");
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(reg.Counter("x"), first);
  }
}

TEST(MetricsCounterTest, ConcurrentAddsAreExact) {
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      MetricsCounter* c = reg.Counter("contended");
      for (int i = 0; i < kAddsPerThread; ++i) c->Increment();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.CounterValue("contended"),
            static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(MetricsGaugeTest, LastWriteWins) {
  MetricsRegistry reg;
  reg.Gauge("inertia")->Set(3.5);
  reg.Gauge("inertia")->Set(1.25);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("inertia"), 1.25);
}

TEST(MetricsHistogramTest, BucketOfIsBitWidth) {
  EXPECT_EQ(MetricsHistogram::BucketOf(0), 0u);
  EXPECT_EQ(MetricsHistogram::BucketOf(1), 1u);
  EXPECT_EQ(MetricsHistogram::BucketOf(2), 2u);
  EXPECT_EQ(MetricsHistogram::BucketOf(3), 2u);
  EXPECT_EQ(MetricsHistogram::BucketOf(4), 3u);
  EXPECT_EQ(MetricsHistogram::BucketOf(7), 3u);
  EXPECT_EQ(MetricsHistogram::BucketOf(8), 4u);
  // Values past the last finite bound land in the catch-all.
  EXPECT_EQ(MetricsHistogram::BucketOf(UINT64_MAX),
            MetricsHistogram::kBuckets - 1);
}

TEST(MetricsHistogramTest, BucketUpperBoundsAreMonotone) {
  for (size_t i = 1; i < MetricsHistogram::kBuckets; ++i) {
    EXPECT_GT(MetricsHistogram::BucketUpperBound(i),
              MetricsHistogram::BucketUpperBound(i - 1))
        << "bucket " << i;
  }
}

TEST(MetricsHistogramTest, CountAndSum) {
  MetricsRegistry reg;
  MetricsHistogram* h = reg.Histogram("sizes");
  for (uint64_t v : {0u, 1u, 1u, 5u, 100u}) h->Record(v);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_EQ(h->sum(), 107u);
}

TEST(ScopedSpanTest, NestsViaThreadLocalStack) {
  MetricsRegistry reg;
  {
    ScopedSpan outer(&reg, "augment");
    EXPECT_EQ(outer.path(), "augment");
    {
      ScopedSpan mid(&reg, "round0");
      EXPECT_EQ(mid.path(), "augment/round0");
      ScopedSpan inner(&reg, "embed");
      EXPECT_EQ(inner.path(), "augment/round0/embed");
    }
    // Sibling after the nested scope closed: same depth, fresh leaf.
    ScopedSpan sibling(&reg, "round1");
    EXPECT_EQ(sibling.path(), "augment/round1");
  }
  EXPECT_EQ(reg.SpanValue("augment").count, 1u);
  EXPECT_EQ(reg.SpanValue("augment/round0").count, 1u);
  EXPECT_EQ(reg.SpanValue("augment/round0/embed").count, 1u);
  EXPECT_EQ(reg.SpanValue("augment/round1").count, 1u);
  EXPECT_EQ(reg.SpanValue("never").count, 0u);
}

TEST(ScopedSpanTest, RecordsDeadlineTrip) {
  MetricsRegistry reg;
  RunContext ctx;
  ctx.set_deadline_after_ms(0);
  { ScopedSpan span(&reg, "stage", &ctx); }
  EXPECT_EQ(reg.SpanValue("stage").deadline_hits, 1u);
  EXPECT_EQ(reg.SpanValue("stage").budget_trips, 0u);
}

TEST(ScopedSpanTest, RecordsBudgetTrip) {
  MetricsRegistry reg;
  RunContext ctx;
  ctx.set_work_budget(1);
  ASSERT_TRUE(ctx.ConsumeWork(2).ok() == false);
  { ScopedSpan span(&reg, "stage", &ctx); }
  EXPECT_EQ(reg.SpanValue("stage").budget_trips, 1u);
}

TEST(ScopedSpanTest, RecordsCancellation) {
  MetricsRegistry reg;
  RunContext ctx;
  ctx.RequestCancel();
  { ScopedSpan span(&reg, "stage", &ctx); }
  EXPECT_EQ(reg.SpanValue("stage").cancellations, 1u);
}

TEST(ScopedSpanTest, NullRegistryIsFree) {
  // No registry: the span records nothing and never joins the path stack.
  ScopedSpan null_span(nullptr, "anything");
  EXPECT_EQ(null_span.path(), "");
  MetricsRegistry reg;
  ScopedSpan real(&reg, "root");
  EXPECT_EQ(real.path(), "root");
}

TEST(MetricHelpersTest, NullRegistryIsNoOp) {
  MetricAdd(nullptr, "c", 1);
  MetricSet(nullptr, "g", 1.0);
  MetricRecord(nullptr, "h", 1);
  MetricsRegistry reg;
  MetricAdd(&reg, "c", 2);
  MetricSet(&reg, "g", 2.0);
  MetricRecord(&reg, "h", 2);
  EXPECT_EQ(reg.CounterValue("c"), 2u);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("g"), 2.0);
  EXPECT_EQ(reg.Histogram("h")->count(), 1u);
}

// Populates one registry the way a pipeline run would.
void PopulateFixture(MetricsRegistry* reg) {
  reg->Counter("engine.facts_derived")->Add(42);
  reg->Counter("linkage.pairs.scored")->Add(7);
  reg->Gauge("embed.kmeans.inertia")->Set(1.5);
  for (uint64_t v : {1u, 3u, 3u, 9u}) reg->Histogram("linkage.block.size")->Record(v);
  {
    ScopedSpan outer(reg, "augment");
    ScopedSpan inner(reg, "embed");
  }
}

TEST(MetricsJsonTest, IdenticalRegistriesEmitIdenticalBytes) {
  MetricsRegistry a, b;
  PopulateFixture(&a);
  PopulateFixture(&b);
  // Wall-clock differs between the two runs; the default document must
  // not — that is the --metrics-json byte-stability contract.
  EXPECT_EQ(a.ToJson().Dump(), b.ToJson().Dump());
}

/// The registry's document, rendered and parsed back.
Json RoundTrip(const MetricsRegistry& reg,
               const MetricsJsonOptions& options = {}) {
  std::string text = reg.ToJson(options).Dump();
  auto doc = Json::Parse(text);
  EXPECT_TRUE(doc.ok()) << text;
  return doc.ok() ? std::move(doc).value() : Json();
}

TEST(MetricsJsonTest, SchemaAndCumulativeBuckets) {
  MetricsRegistry reg;
  PopulateFixture(&reg);
  Json doc = RoundTrip(reg);
  ASSERT_NE(doc.Find("schema_version"), nullptr);
  EXPECT_EQ(doc.Find("schema_version")->AsInt(), 1);
  for (const char* key : {"counters", "gauges", "histograms", "spans"}) {
    ASSERT_NE(doc.Find(key), nullptr) << key;
    EXPECT_TRUE(doc.Find(key)->is_object()) << key;
  }
  // Cumulative buckets of {1,3,3,9}: bucket1=1, bucket2=3, bucket4=4 ...
  // rendered cumulatively as 0,1,3,3,4,4,...,4 — monotone by construction.
  const Json* h = doc.Find("histograms")->Find("linkage.block.size");
  ASSERT_NE(h, nullptr) << doc.Dump();
  EXPECT_EQ(h->Find("count")->AsInt(), 4);
  EXPECT_EQ(h->Find("sum")->AsInt(), 16);
  std::vector<int64_t> buckets;
  for (const Json& b : h->Find("buckets")->AsArray()) {
    buckets.push_back(b.AsInt());
  }
  std::vector<int64_t> expected(MetricsHistogram::kBuckets, 4);
  expected[0] = 0;
  expected[1] = 1;
  expected[2] = 3;
  expected[3] = 3;
  EXPECT_EQ(buckets, expected);
}

TEST(MetricsJsonTest, DocumentParsesBackToRegistryValues) {
  MetricsRegistry reg;
  PopulateFixture(&reg);
  reg.Gauge("embed.ratio")->Set(1.0 / 3);
  Json doc = RoundTrip(reg);
  const Json* counters = doc.Find("counters");
  ASSERT_EQ(counters->size(), 2u);
  EXPECT_EQ(counters->Find("engine.facts_derived")->AsInt(), 42);
  EXPECT_EQ(counters->Find("linkage.pairs.scored")->AsInt(), 7);
  const Json* gauges = doc.Find("gauges");
  EXPECT_EQ(gauges->Find("embed.kmeans.inertia")->AsDouble(), 1.5);
  EXPECT_EQ(gauges->Find("embed.ratio")->AsDouble(), 1.0 / 3);  // exact
  const Json* spans = doc.Find("spans");
  ASSERT_EQ(spans->size(), 2u);
  for (const char* path : {"augment", "augment/embed"}) {
    const Json* span = spans->Find(path);
    ASSERT_NE(span, nullptr) << path;
    EXPECT_EQ(span->Find("count")->AsInt(), 1) << path;
    for (const char* field : {"deadline_hits", "budget_trips",
                              "cancellations"}) {
      EXPECT_EQ(span->Find(field)->AsInt(), 0) << path << " " << field;
    }
    EXPECT_EQ(span->Find("us"), nullptr) << path;  // timings are opt-in
  }
}

TEST(MetricsJsonTest, TimingsAreOptIn) {
  MetricsRegistry reg;
  PopulateFixture(&reg);
  reg.Histogram("augment.us")->Record(1234);
  std::string plain = reg.ToJson().Dump();
  EXPECT_EQ(plain.find(".us"), std::string::npos);
  EXPECT_EQ(plain.find("\"us\":"), std::string::npos);
  MetricsJsonOptions with_timings;
  with_timings.include_timings = true;
  std::string timed = reg.ToJson(with_timings).Dump();
  EXPECT_NE(timed.find("augment.us"), std::string::npos);
  EXPECT_NE(timed.find("\"us\":"), std::string::npos);
}

TEST(MetricsJsonTest, WriteJsonFileRoundTrips) {
  MetricsRegistry reg;
  PopulateFixture(&reg);
  std::string path = ::testing::TempDir() + "metrics_test_doc.json";
  ASSERT_TRUE(WriteJsonFile(path, reg.ToJson()).ok());
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), reg.ToJson().Dump() + "\n");
  std::remove(path.c_str());
}

TEST(MetricsTraceTest, ReportIndentsByDepth) {
  MetricsRegistry reg;
  PopulateFixture(&reg);
  std::string report = reg.TraceReport();
  EXPECT_NE(report.find("augment"), std::string::npos);
  // The nested span prints indented under its parent.
  EXPECT_NE(report.find("  embed"), std::string::npos);
}

}  // namespace
}  // namespace vadalink
