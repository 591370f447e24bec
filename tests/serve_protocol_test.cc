// serve/: JSON codec, wire protocol, admission queue, result cache,
// snapshot store — the transport-independent pieces of `vadalink serve`.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/json.h"
#include "serve/admission.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace vadalink::serve {
namespace {

// ---- Json ------------------------------------------------------------------

TEST(JsonTest, ParseDumpRoundTrip) {
  auto v = Json::Parse(
      R"({"b":true,"d":0.5,"i":42,"n":null,"a":[1,"two",3.5],"s":"hi"})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  // Keys come back sorted; round-trip is byte-stable.
  std::string dumped = v->Dump();
  auto again = Json::Parse(dumped);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Dump(), dumped);
  EXPECT_EQ(v->Find("i")->AsInt(), 42);
  EXPECT_TRUE(v->Find("n")->is_null());
  EXPECT_EQ(v->Find("a")->AsArray().size(), 3u);
}

TEST(JsonTest, EscapesAndUnicode) {
  auto v = Json::Parse(R"(["a\"b", "tab\there", "Aé"])");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsArray()[0].AsString(), "a\"b");
  EXPECT_EQ(v->AsArray()[1].AsString(), "tab\there");
  EXPECT_EQ(v->AsArray()[2].AsString(), "A\xc3\xa9");
  // Control characters are escaped on output.
  EXPECT_EQ(Json::Str("a\nb").Dump(), "\"a\\nb\"");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":1} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("").ok());
}

TEST(JsonTest, DepthLimitStopsRecursionBombs) {
  std::string bomb(10000, '[');
  auto v = Json::Parse(bomb);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kParseError);
}

TEST(JsonTest, SetFindAndOverwrite) {
  Json o = Json::MakeObject();
  o.Set("z", Json::Int(1));
  o.Set("a", Json::Int(2));
  o.Set("z", Json::Int(3));  // overwrite, no duplicate key
  EXPECT_EQ(o.size(), 2u);
  EXPECT_EQ(o.Find("z")->AsInt(), 3);
  EXPECT_EQ(o.Dump(), R"({"a":2,"z":3})");
  EXPECT_EQ(o.Find("missing"), nullptr);
}

TEST(JsonTest, CopiesAreIndependent) {
  Json a = Json::MakeObject();
  a.Set("k", Json::Int(1));
  Json b = a;
  b.Set("k", Json::Int(2));
  EXPECT_EQ(a.Find("k")->AsInt(), 1);
  EXPECT_EQ(b.Find("k")->AsInt(), 2);
}

// ---- protocol --------------------------------------------------------------

TEST(ProtocolTest, ParsesFullRequest) {
  auto req = ParseRequest(
      R"({"id":7,"op":"control","params":{"source":3},"deadline_ms":250})");
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  EXPECT_EQ(req->id.AsInt(), 7);
  EXPECT_EQ(req->op, "control");
  EXPECT_EQ(req->params.Find("source")->AsInt(), 3);
  ASSERT_TRUE(req->deadline_ms.has_value());
  EXPECT_EQ(*req->deadline_ms, 250);
}

TEST(ProtocolTest, MissingOpFails) {
  auto req = ParseRequest(R"({"id":1})");
  ASSERT_FALSE(req.ok());
  EXPECT_EQ(req.status().code(), StatusCode::kParseError);
}

TEST(ProtocolTest, RecoverIdFromRejectedLine) {
  // The op is bad but the id is salvageable for the error echo.
  EXPECT_EQ(RecoverId(R"({"id":99,"op":5})").AsInt(), 99);
  EXPECT_TRUE(RecoverId("not json at all").is_null());
  EXPECT_TRUE(RecoverId(R"([1,2,3])").is_null());
}

TEST(ProtocolTest, RenderResultShape) {
  Json result = Json::MakeObject();
  result.Set("count", Json::Int(2));
  std::string line = RenderResult(Json::Int(4), 9, result, /*cached=*/true,
                                  /*stale=*/true);
  auto v = Json::Parse(line);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->Find("ok")->AsBool());
  EXPECT_EQ(v->Find("id")->AsInt(), 4);
  EXPECT_EQ(v->Find("graph_version")->AsInt(), 9);
  EXPECT_TRUE(v->Find("cached")->AsBool());
  EXPECT_TRUE(v->Find("stale")->AsBool());
  EXPECT_EQ(v->Find("result")->Find("count")->AsInt(), 2);
}

TEST(ProtocolTest, RenderErrorShape) {
  std::string line = RenderError(
      Json::Null(), Status::ResourceExhausted("queue full"), 150);
  auto v = Json::Parse(line);
  ASSERT_TRUE(v.ok());
  EXPECT_FALSE(v->Find("ok")->AsBool());
  EXPECT_TRUE(v->Find("id")->is_null());
  const Json* err = v->Find("error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->Find("code")->AsString(), "ResourceExhausted");
  EXPECT_EQ(err->Find("retry_after_ms")->AsInt(), 150);
  // Fresh-success extras never leak into errors.
  EXPECT_EQ(v->Find("result"), nullptr);
}

// ---- admission queue -------------------------------------------------------

TEST(AdmissionTest, ShedsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));  // full -> shed
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(4));   // slot freed
}

TEST(AdmissionTest, CloseDrainsPendingInOrder) {
  BoundedQueue<int> q(8);
  q.TryPush(1);
  q.TryPush(2);
  q.TryPush(3);
  auto drained = q.Close();
  EXPECT_EQ(drained, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(q.TryPush(9));          // closed
  EXPECT_FALSE(q.Pop().has_value());   // closed and empty -> workers exit
}

TEST(AdmissionTest, PopBlocksUntilPushOrClose) {
  BoundedQueue<int> q(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.TryPush(42);
  });
  EXPECT_EQ(q.Pop().value(), 42);  // blocked until the producer pushed
  producer.join();

  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Close();
  });
  EXPECT_FALSE(q.Pop().has_value());  // unblocked by Close
  closer.join();
}

// ---- result cache ----------------------------------------------------------

TEST(CacheTest, HitMissAndVersioning) {
  ResultCache cache(4);
  CacheEntry out;
  EXPECT_FALSE(cache.Get("k", &out));
  cache.Put("k", Json::Int(1), 3);
  ASSERT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(out.result.AsInt(), 1);
  EXPECT_EQ(out.version, 3u);
  // Newer version overwrites...
  cache.Put("k", Json::Int(2), 5);
  ASSERT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(out.version, 5u);
  EXPECT_EQ(out.result.AsInt(), 2);
  // ...but a slow worker's older result must not roll it back.
  cache.Put("k", Json::Int(0), 4);
  ASSERT_TRUE(cache.Get("k", &out));
  EXPECT_EQ(out.version, 5u);
  EXPECT_EQ(out.result.AsInt(), 2);
}

TEST(CacheTest, LruEvictsColdestEntry) {
  ResultCache cache(2);
  cache.Put("a", Json::Int(1), 1);
  cache.Put("b", Json::Int(2), 1);
  CacheEntry out;
  ASSERT_TRUE(cache.Get("a", &out));  // warms "a"; "b" is now coldest
  cache.Put("c", Json::Int(3), 1);
  EXPECT_TRUE(cache.Get("a", &out));
  EXPECT_FALSE(cache.Get("b", &out));
  EXPECT_TRUE(cache.Get("c", &out));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(CacheTest, ZeroCapacityDisables) {
  ResultCache cache(0);
  cache.Put("k", Json::Int(1), 1);
  CacheEntry out;
  EXPECT_FALSE(cache.Get("k", &out));
}

// ---- snapshot store --------------------------------------------------------

TEST(SnapshotTest, MonotonePublishAndIsolation) {
  SnapshotStore store;
  EXPECT_EQ(store.version(), 0u);
  EXPECT_EQ(store.current(), nullptr);

  auto v1 = std::make_shared<GraphSnapshot>();
  v1->version = 1;
  graph::PropertyGraph g;
  g.AddNode("Person");
  v1->company_graph = company::CompanyGraph::FromPropertyGraph(g).value();
  ASSERT_TRUE(store.Publish(v1));
  EXPECT_EQ(store.version(), 1u);

  // A reader holding v1 keeps it alive across a later publish.
  SnapshotPtr held = store.current();
  auto v2 = std::make_shared<GraphSnapshot>();
  v2->version = 2;
  ASSERT_TRUE(store.Publish(v2));
  EXPECT_EQ(store.version(), 2u);
  EXPECT_EQ(held->version, 1u);
  EXPECT_EQ(held->company_graph.node_count(), 1u);

  // Non-increasing versions are rejected — single-writer discipline.
  auto stale = std::make_shared<GraphSnapshot>();
  stale->version = 2;
  EXPECT_FALSE(store.Publish(stale));
  EXPECT_EQ(store.version(), 2u);
}

}  // namespace
}  // namespace vadalink::serve
