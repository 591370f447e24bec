// Shared parallel-execution subsystem: a fixed-size thread pool with one
// chunked loop, ParallelFor, deterministic per-chunk seeding and
// first-class RunContext integration.
//
// Design contract (relied on by every parallel stage in the pipeline):
//
//  * A stage has one code path: the same chunked loop runs at every
//    thread count, inline on the caller for a null or 1-thread pool.
//  * A stage's output depends only on its inputs and seeds, never on the
//    thread count or the grain: chunks write disjoint per-item slots (or
//    only read), and whatever they produce is added or committed in item
//    order afterwards. The datalog engine sizes its chunks by the thread
//    count, which is safe for the same reason (datalog/engine.h). Hogwild
//    skip-gram is the one exception (embed/skipgram.h).
//  * Scheduling is dynamic (workers claim chunks from a shared ticket),
//    so skewed chunk costs (e.g. blocks of wildly different sizes) load-
//    balance without static partitioning.
//  * A RunContext, when given, is polled at every chunk boundary in the
//    workers: cooperative cancellation and deadline checks propagate into
//    the pool, remaining chunks are skipped after a trip, and the trip
//    Status is returned to the caller. Among failing chunks, the error of
//    the lowest-indexed one wins (deterministic error identity).
//  * Stochastic stages draw from RNGs seeded by ChunkSeed(seed, stream,
//    index) instead of sharing a sequential stream, which is what makes
//    their output independent of the schedule.
//
// ParallelFor on a null pool (or a 1-thread pool, or a single chunk) runs
// inline on the caller with identical chunking and Status semantics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/run_context.h"
#include "common/status.h"

namespace vadalink {

/// Concurrency knobs, configured once (CLI --threads / PipelineOptions)
/// and flowed down to every parallel stage.
struct ParallelOptions {
  /// Worker threads for parallel stages. 1 (default) runs every stage's
  /// chunks inline on the caller; 0 = one thread per hardware core.
  size_t threads = 1;
  /// Items per chunk for ParallelFor. 0 = automatic (n / 64, at least 1).
  /// Chunking is a pure function of (n, grain): outputs of deterministic
  /// parallel stages do not depend on the thread count.
  size_t grain = 0;

  /// threads with 0 resolved to the hardware concurrency (at least 1).
  size_t EffectiveThreads() const;

  /// kInvalidArgument when threads or grain exceed sane bounds.
  Status Validate() const;
};

/// Fixed-size pool of persistent workers executing one chunked loop at a
/// time. The constructing ("caller") thread participates in every loop, so
/// ThreadPool(n) spawns n-1 workers and RunChunks uses n threads total.
///
/// Not reentrant: a ParallelFor body that issues another ParallelFor on
/// the same pool runs the inner loop inline on its own thread.
class ThreadPool {
 public:
  /// `threads` is clamped to >= 1. `default_grain` is used by ParallelFor
  /// calls that pass grain = 0 (0 = automatic).
  explicit ThreadPool(size_t threads, size_t default_grain = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads applied to a loop (workers + the calling thread).
  size_t thread_count() const { return thread_count_; }
  size_t default_grain() const { return default_grain_; }

  /// Runs fn(chunk) for every chunk in [0, num_chunks), distributing
  /// chunks dynamically over the workers and the calling thread. Blocks
  /// until every chunk has finished. fn must be safe to call concurrently
  /// from multiple threads with distinct chunk indices.
  void RunChunks(size_t num_chunks, const std::function<void(size_t)>& fn);

 private:
  void WorkerLoop();
  /// Claims and executes chunks of generation `gen` until the job is
  /// exhausted or superseded.
  void DrainChunks(uint64_t gen, size_t num_chunks,
                   const std::function<void(size_t)>& fn);

  size_t thread_count_;
  size_t default_grain_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Guarded by mu_:
  const std::function<void(size_t)>* job_fn_ = nullptr;
  size_t job_chunks_ = 0;
  uint64_t job_gen_ = 0;
  bool stop_ = false;

  // (generation << 32) | next-chunk ticket. The generation tag makes a
  // stale worker's claim on a superseded job fail its CAS instead of
  // stealing a chunk from the next job.
  std::atomic<uint64_t> claim_{0};
  std::atomic<size_t> completed_{0};
};

/// Pool described by `options`, or nullptr when options resolve to one
/// thread (ParallelFor then runs every chunk inline).
std::unique_ptr<ThreadPool> MakeThreadPool(const ParallelOptions& options);

/// Deterministic RNG seed: a pure function of (seed, stream, chunk),
/// independent of thread count and schedule. `stream` separates uses
/// within one stage (e.g. walk round or training epoch); `chunk` names
/// the unit that owns the stream (a training chunk, or a walk's start).
inline uint64_t ChunkSeed(uint64_t seed, uint64_t stream, uint64_t chunk) {
  return HashFinalize(HashCombine(HashCombine(seed, stream), chunk));
}

/// Chunk size actually used for a loop of n items (grain = 0 resolves to
/// the pool default, then to the automatic n / 64 policy).
size_t ResolveGrain(size_t n, size_t grain, const ThreadPool* pool);

/// Chunked parallel loop over [0, n). `body(begin, end, chunk)` processes
/// items [begin, end) of chunk index `chunk`; its non-OK Status cancels
/// the remaining chunks. Returns the first (lowest-chunk) error, or the
/// RunContext trip Status when the governor fires mid-loop.
Status ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                   const RunContext* run_ctx,
                   const std::function<Status(size_t, size_t, size_t)>& body);

}  // namespace vadalink
