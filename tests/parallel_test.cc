// common/parallel: the thread pool, chunked ParallelFor, deterministic
// chunking and seeding, and RunContext propagation.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

namespace vadalink {
namespace {

// ---- options ---------------------------------------------------------------

TEST(ParallelOptionsTest, DefaultsAreSequentialAndValid) {
  ParallelOptions opts;
  EXPECT_EQ(opts.threads, 1u);
  EXPECT_EQ(opts.grain, 0u);
  EXPECT_TRUE(opts.Validate().ok());
}

TEST(ParallelOptionsTest, ValidateRejectsAbsurdValues) {
  ParallelOptions opts;
  opts.threads = 100000;
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
  opts.threads = 1;
  opts.grain = (size_t{1} << 33);
  EXPECT_EQ(opts.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelOptionsTest, EffectiveThreadsResolvesZeroToHardware) {
  ParallelOptions opts;
  opts.threads = 0;
  EXPECT_GE(opts.EffectiveThreads(), 1u);
  opts.threads = 5;
  EXPECT_EQ(opts.EffectiveThreads(), 5u);
}

TEST(ParallelOptionsTest, MakeThreadPoolIsNullForOneThread) {
  ParallelOptions opts;
  EXPECT_EQ(MakeThreadPool(opts), nullptr);
  opts.threads = 4;
  auto pool = MakeThreadPool(opts);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->thread_count(), 4u);
}

// ---- chunk seeding ---------------------------------------------------------

TEST(ParallelSeedTest, ChunkSeedIsPureAndDistinct) {
  EXPECT_EQ(ChunkSeed(42, 1, 7), ChunkSeed(42, 1, 7));
  std::set<uint64_t> seeds;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    for (uint64_t chunk = 0; chunk < 64; ++chunk) {
      seeds.insert(ChunkSeed(42, stream, chunk));
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 64u);  // no collisions in a small grid
}

// ---- ParallelFor -----------------------------------------------------------

TEST(ParallelForTest, CoversEveryItemExactlyOnce) {
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  Status st =
      ParallelFor(&pool, n, 7, nullptr,
                  [&](size_t begin, size_t end, size_t) {
                    for (size_t i = begin; i < end; ++i) {
                      hits[i].fetch_add(1, std::memory_order_relaxed);
                    }
                    return Status::OK();
                  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "item " << i;
}

TEST(ParallelForTest, ChunkBoundariesIndependentOfThreadCount) {
  using Chunk = std::tuple<size_t, size_t, size_t>;  // (begin, end, chunk)
  const size_t n = 533, grain = 17;
  auto run = [&](ThreadPool* pool) {
    std::mutex mu;
    std::set<Chunk> chunks;
    Status st = ParallelFor(pool, n, grain, nullptr,
                            [&](size_t begin, size_t end, size_t chunk) {
                              std::lock_guard<std::mutex> lock(mu);
                              chunks.emplace(begin, end, chunk);
                              return Status::OK();
                            });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return chunks;
  };
  auto sequential = run(nullptr);
  ThreadPool pool2(2), pool8(8);
  EXPECT_EQ(sequential, run(&pool2));
  EXPECT_EQ(sequential, run(&pool8));
  EXPECT_EQ(sequential.size(), (n + grain - 1) / grain);
}

TEST(ParallelForTest, SequentialPathStopsAtFirstError) {
  std::vector<size_t> seen;
  Status st = ParallelFor(nullptr, 100, 10, nullptr,
                          [&](size_t, size_t, size_t chunk) {
                            seen.push_back(chunk);
                            if (chunk >= 3) {
                              return Status::Internal("chunk " +
                                                      std::to_string(chunk));
                            }
                            return Status::OK();
                          });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "chunk 3");
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ParallelForTest, ParallelErrorPropagatesLowestRecordedChunk) {
  ThreadPool pool(4);
  // Only chunk 0 fails, so whatever the schedule, the returned error must
  // be chunk 0's (it is the lowest-indexed recorded failure).
  Status st = ParallelFor(&pool, 64, 1, nullptr,
                          [&](size_t, size_t, size_t chunk) {
                            if (chunk == 0) return Status::Internal("boom");
                            return Status::OK();
                          });
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(st.message(), "boom");
}

TEST(ParallelForTest, ExpiredDeadlineTripsBeforeAnyWork) {
  ThreadPool pool(4);
  RunContext ctx;
  ctx.set_deadline(RunContext::Clock::now() - std::chrono::milliseconds(1));
  std::atomic<size_t> executed{0};
  Status st = ParallelFor(&pool, 200, 1, &ctx,
                          [&](size_t, size_t, size_t) {
                            executed.fetch_add(1);
                            return Status::OK();
                          });
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForTest, DeadlineFiringMidLoopTripsWorkers) {
  ThreadPool pool(4);
  RunContext ctx;
  ctx.set_deadline_after_ms(10);
  std::atomic<size_t> executed{0};
  Status st = ParallelFor(&pool, 64, 1, &ctx,
                          [&](size_t, size_t, size_t) {
                            executed.fetch_add(1);
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(2));
                            return Status::OK();
                          });
  // Workers are mid-chunk when the deadline expires; the per-chunk poll
  // notices and the remaining chunks are skipped.
  EXPECT_EQ(st.code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(executed.load(), 64u);
  EXPECT_GT(executed.load(), 0u);
}

TEST(ParallelForTest, CancellationMidLoopSkipsRemainingChunks) {
  ThreadPool pool(4);
  RunContext ctx;
  std::atomic<size_t> executed{0};
  Status st = ParallelFor(&pool, 512, 1, &ctx,
                          [&](size_t, size_t, size_t) {
                            executed.fetch_add(1);
                            ctx.RequestCancel();
                            return Status::OK();
                          });
  EXPECT_EQ(st.code(), StatusCode::kCancelled);
  EXPECT_LT(executed.load(), 512u);
}

TEST(ParallelForTest, WorkBudgetSurfacesAsResourceExhausted) {
  ThreadPool pool(2);
  RunContext ctx;
  ctx.set_work_budget(5);
  Status st = ParallelFor(&pool, 256, 1, &ctx,
                          [&](size_t, size_t, size_t) {
                            return ConsumeRunWork(&ctx, 1);
                          });
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(ParallelForTest, EmptyRangeIsOk) {
  ThreadPool pool(4);
  Status st = ParallelFor(&pool, 0, 0, nullptr,
                          [&](size_t, size_t, size_t) {
                            ADD_FAILURE() << "body invoked for n = 0";
                            return Status::OK();
                          });
  EXPECT_TRUE(st.ok());
}

// ---- pool stress -----------------------------------------------------------

TEST(ParallelPoolTest, ReusableAcrossManyJobs) {
  ThreadPool pool(4);
  for (size_t job = 0; job < 200; ++job) {
    std::atomic<size_t> count{0};
    Status st = ParallelFor(&pool, 50 + job % 17, 3, nullptr,
                            [&](size_t begin, size_t end, size_t) {
                              count.fetch_add(end - begin);
                              return Status::OK();
                            });
    ASSERT_TRUE(st.ok()) << st.ToString();
    ASSERT_EQ(count.load(), 50 + job % 17) << "job " << job;
  }
}

TEST(ParallelPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  std::atomic<size_t> inner_items{0};
  Status st = ParallelFor(
      &pool, 16, 1, nullptr, [&](size_t, size_t, size_t) {
        return ParallelFor(&pool, 10, 1, nullptr,
                           [&](size_t begin, size_t end, size_t) {
                             inner_items.fetch_add(end - begin);
                             return Status::OK();
                           });
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(inner_items.load(), 16u * 10u);
}

TEST(ParallelPoolTest, ResolveGrainIsThreadCountIndependent) {
  ThreadPool pool2(2), pool8(8);
  for (size_t n : {1u, 63u, 64u, 1000u, 99999u}) {
    EXPECT_EQ(ResolveGrain(n, 0, &pool2), ResolveGrain(n, 0, &pool8));
    EXPECT_EQ(ResolveGrain(n, 0, nullptr), ResolveGrain(n, 0, &pool8));
    EXPECT_EQ(ResolveGrain(n, 13, &pool2), 13u);
  }
  EXPECT_GE(ResolveGrain(0, 0, nullptr), 1u);
}

}  // namespace
}  // namespace vadalink
