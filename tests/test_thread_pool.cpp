#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"

namespace crowdlearn::util {
namespace {

/// body(i) for every i in [0, n), one item per chunk at most: the chunking
/// the committee and the GBDT split scan use.
template <typename Body>
void for_each_index(ThreadPool& pool, std::size_t n, Body&& body) {
  parallel_chunks(&pool, n, ThreadPool::kMinChunkWork, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) body(i);
  });
}

/// Fail (and end the process, so a deadlocked pool cannot hang the suite)
/// unless `fut` is ready within `limit`.
template <typename T>
void expect_ready_or_die(std::future<T>& fut, std::chrono::seconds limit, const char* what) {
  if (fut.wait_for(limit) != std::future_status::ready) {
    ADD_FAILURE() << what;
    std::fprintf(stderr, "watchdog: %s\n", what);
    std::_Exit(1);
  }
}

TEST(ThreadPool, SubmitReturnsResultThroughFuture) {
  ThreadPool pool(4);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SingleThreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  auto fut = pool.submit([] { return std::this_thread::get_id(); });
  EXPECT_EQ(fut.get(), std::this_thread::get_id());
}

TEST(ThreadPool, TaskExceptionPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(threads);
    EXPECT_THROW(for_each_index(pool, 100,
                                [](std::size_t i) {
                                  if (i == 57) throw std::invalid_argument("bad index");
                                }),
                 std::invalid_argument);
  }
}

TEST(ThreadPool, ChunkExceptionDoesNotCancelOtherChunks) {
  // A failing chunk must not cancel the others: parallel_chunks waits for
  // every chunk to finish, then rethrows.
  ThreadPool pool(4);
  std::vector<int> visited(64, 0);
  EXPECT_THROW(parallel_chunks(&pool, visited.size(), ThreadPool::kMinChunkWork,
                               [&](std::size_t begin, std::size_t end) {
                                 for (std::size_t i = begin; i < end; ++i) visited[i] = 1;
                                 if (begin == 0) throw std::runtime_error("first chunk");
                               }),
               std::runtime_error);
  EXPECT_EQ(std::accumulate(visited.begin(), visited.end(), 0),
            static_cast<int>(visited.size()));
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] { return 1; }), std::runtime_error);
  pool.shutdown();  // idempotent
  // Single-threaded (inline) pools obey the same contract.
  ThreadPool inline_pool(1);
  inline_pool.shutdown();
  EXPECT_THROW(inline_pool.submit([] { return 1; }), std::runtime_error);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  for_each_index(pool, 0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, ParallelForSingleElementRange) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  for_each_index(pool, 1, [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ThreadPool, ParallelForOddSizedRangesCoverEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t n : {std::size_t{3}, std::size_t{7}, std::size_t{101}, std::size_t{1013}}) {
    std::vector<int> hits(n, 0);
    for_each_index(pool, n, [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "index " << i << " of " << n;
  }
}

TEST(ThreadPool, ParallelChunksAreContiguousAndOrdered) {
  ThreadPool pool(3);
  std::vector<std::pair<std::size_t, std::size_t>> bounds(pool.size(),
                                                          {std::size_t{0}, std::size_t{0}});
  std::atomic<std::size_t> next{0};
  parallel_chunks(&pool, 10, ThreadPool::kMinChunkWork, [&](std::size_t begin, std::size_t end) {
    bounds[next.fetch_add(1)] = {begin, end};
  });
  // Chunk boundaries depend only on (n, size): sorted they must tile [0, 10).
  std::sort(bounds.begin(), bounds.end());
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : bounds) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GT(end, begin);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, 10u);
}

TEST(ThreadPool, WorkGrainKeepsSmallRangesInOneInlineChunk) {
  // A range carrying less than kMinChunkWork runs as one chunk on the
  // caller; enough work per item splits it per worker.
  ThreadPool pool(4);
  std::vector<std::pair<std::size_t, std::size_t>> bounds;
  std::mutex m;
  auto record = [&](std::size_t begin, std::size_t end) {
    std::lock_guard<std::mutex> lock(m);
    bounds.emplace_back(begin, end);
  };
  parallel_chunks(&pool, 8, /*work_per_item=*/1, record);
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_EQ(bounds[0], std::make_pair(std::size_t{0}, std::size_t{8}));
  bounds.clear();
  parallel_chunks(&pool, 8, ThreadPool::kMinChunkWork, record);
  EXPECT_EQ(bounds.size(), 4u);
  bounds.clear();
  // Half the threshold per item: two items per chunk, four chunks.
  parallel_chunks(&pool, 8, ThreadPool::kMinChunkWork / 2, record);
  EXPECT_EQ(bounds.size(), 4u);
  bounds.clear();
  parallel_chunks(&pool, 3, ThreadPool::kMinChunkWork / 2, record);
  EXPECT_EQ(bounds.size(), 1u);
}

TEST(ThreadPool, NullOrSingleThreadedPoolRunsTheRangeInlineAsOneChunk) {
  // No pool, a one-thread pool, or a range of one item: fn(0, n) on the
  // caller, whatever the work per item. An empty range calls nothing.
  ThreadPool single(1);
  ThreadPool wide(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &single, &wide}) {
    const std::size_t n = pool == &wide ? 1 : 10;
    std::vector<std::pair<std::size_t, std::size_t>> bounds;
    std::set<std::thread::id> threads;
    parallel_chunks(pool, n, ThreadPool::kMinChunkWork, [&](std::size_t begin, std::size_t end) {
      bounds.emplace_back(begin, end);
      threads.insert(std::this_thread::get_id());
    });
    ASSERT_EQ(bounds.size(), 1u);
    EXPECT_EQ(bounds[0], std::make_pair(std::size_t{0}, n));
    EXPECT_EQ(threads, std::set<std::thread::id>{std::this_thread::get_id()});
    parallel_chunks(pool, 0, ThreadPool::kMinChunkWork,
                    [&](std::size_t, std::size_t) { ADD_FAILURE() << "empty range ran"; });
  }
}

TEST(ThreadPool, SubmitFromATaskHoldingALockQueuesInsteadOfDeadlocking) {
  // A task holds a non-recursive mutex and submits a task that needs the
  // same mutex. The inner task must queue: run inline on the submitting
  // worker it would lock the mutex its own thread holds and never return.
  for (std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    ThreadPool pool(threads);
    std::mutex serial;  // stands in for a tenant's serial lock
    bool inner_ran = false;
    auto outer = pool.submit([&] {
      std::lock_guard<std::mutex> hold(serial);
      return pool.submit([&] {
        std::lock_guard<std::mutex> lock(serial);
        inner_ran = true;
      });
    });
    expect_ready_or_die(outer, std::chrono::seconds(30), "submit from a task deadlocked");
    std::future<void> inner = outer.get();
    expect_ready_or_die(inner, std::chrono::seconds(30), "task submitted from a task never ran");
    inner.get();
    EXPECT_TRUE(inner_ran) << threads << " threads";
  }
}

TEST(ThreadPool, ReusableAcrossManyWaves) {
  ThreadPool pool(4);
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<std::size_t> out(17, 0);
    for_each_index(pool, out.size(), [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPool, NestedParallelismOnABusyPoolCompletesWithoutDeadlock) {
  // Every worker is busy running an outer chunk when the inner sections
  // start, so their helpers can only queue behind the outer work: each
  // caller must claim its own chunks instead of waiting for a free worker.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  for_each_index(pool, 4, [&](std::size_t) {
    for_each_index(pool, 8, [&](std::size_t) { inner_calls.fetch_add(1); });
  });
  EXPECT_EQ(inner_calls.load(), 32);
}

TEST(ThreadPool, NestedParallelForReachesIdleWorkers) {
  // A parallel section started from inside a task spreads over idle
  // workers. Each chunk waits (bounded) until two distinct threads have
  // entered the section, so a join that kept the chunks on the calling
  // worker fails instead of passing by luck.
  ThreadPool pool(4);
  std::mutex m;
  std::condition_variable cv;
  std::set<std::thread::id> threads;
  auto outer = pool.submit([&] {
    for_each_index(pool, 4, [&](std::size_t) {
      std::unique_lock<std::mutex> lock(m);
      threads.insert(std::this_thread::get_id());
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [&] { return threads.size() >= 2; });
    });
  });
  expect_ready_or_die(outer, std::chrono::seconds(60), "nested section never finished");
  outer.get();
  std::lock_guard<std::mutex> lock(m);
  EXPECT_GE(threads.size(), 2u) << "nested chunks never left the calling worker";
}

TEST(ThreadPool, JoiningCallerNeverRunsForeignTasks) {
  // The deadlock a help-with-anything join would hit: an outer task holds a
  // non-recursive mutex, a foreign task that needs the same mutex is queued
  // behind it, and the outer task then joins a nested section. A
  // caller that ran the foreign task while joining would lock the mutex it
  // already holds. The join only ever runs chunks of its own call.
  ThreadPool pool(2);
  std::mutex serial;  // stands in for a tenant's serial lock
  std::atomic<bool> blocker_running{false};
  std::atomic<bool> serial_held{false};
  std::atomic<bool> foreign_queued{false};
  std::atomic<bool> release_blocker{false};
  std::atomic<int> chunks_run{0};
  auto wait_for_flag = [](const std::atomic<bool>& flag) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!flag.load() && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  // Occupy the second worker so the foreign task stays queued while the
  // outer task joins.
  auto blocker = pool.submit([&] {
    blocker_running.store(true);
    wait_for_flag(release_blocker);
  });
  auto outer = pool.submit([&] {
    std::lock_guard<std::mutex> hold(serial);
    serial_held.store(true);
    wait_for_flag(foreign_queued);
    for_each_index(pool, 64, [&](std::size_t) {
      chunks_run.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    });
    release_blocker.store(true);
  });
  // Queued from outside the pool once both workers are busy and the outer
  // task holds the lock.
  wait_for_flag(blocker_running);
  wait_for_flag(serial_held);
  auto foreign = pool.submit([&] { std::lock_guard<std::mutex> lock(serial); });
  foreign_queued.store(true);
  expect_ready_or_die(outer, std::chrono::seconds(60), "joining caller deadlocked");
  outer.get();
  expect_ready_or_die(blocker, std::chrono::seconds(60), "blocker never finished");
  expect_ready_or_die(foreign, std::chrono::seconds(60), "foreign task never ran");
  foreign.get();
  EXPECT_EQ(chunks_run.load(), 64);
}

TEST(ThreadPool, NestedChunkExceptionsRethrowFirstInChunkOrder) {
  // Chunks of a nested section fail in reverse chunk order in time (the
  // later chunk throws first); the join must still rethrow chunk 0's error,
  // and only after every chunk has finished. The outer task catches it
  // itself and reports what it caught, so every exception object lives and
  // dies inside the pool's join.
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  auto outer = pool.submit([&]() -> std::string {
    try {
      parallel_chunks(&pool, 4, ThreadPool::kMinChunkWork, [&](std::size_t begin, std::size_t) {
        if (begin == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          finished.fetch_add(1);
          throw std::runtime_error("chunk 0");
        }
        finished.fetch_add(1);
        throw std::logic_error("chunk " + std::to_string(begin));
      });
    } catch (const std::runtime_error& e) {
      return e.what();
    } catch (const std::exception& e) {
      return std::string("a later chunk's exception: ") + e.what();
    }
    return "nested chunk exceptions were swallowed";
  });
  expect_ready_or_die(outer, std::chrono::seconds(60), "nested join never finished");
  EXPECT_EQ(outer.get(), "chunk 0");
  EXPECT_EQ(finished.load(), 4);
}

TEST(ThreadPool, ResolveThreadCountPrefersExplicitRequest) {
  EXPECT_EQ(resolve_thread_count(3), 3u);
  EXPECT_EQ(resolve_thread_count(1), 1u);
  EXPECT_GE(resolve_thread_count(0), 1u);
}

TEST(ThreadPool, ResolveThreadCountReadsEnvironment) {
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "5", 1), 0);
  EXPECT_EQ(resolve_thread_count(0), 5u);
  EXPECT_EQ(resolve_thread_count(2), 2u);  // explicit request still wins
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(resolve_thread_count(0), 1u);  // malformed values fall through
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "-3", 1), 0);
  EXPECT_LE(resolve_thread_count(0), 4096u);  // negatives must not wrap to 2^64
  ASSERT_EQ(setenv("CROWDLEARN_THREADS", "99999999", 1), 0);
  EXPECT_LE(resolve_thread_count(0), 4096u);  // absurd counts fall through
  ASSERT_EQ(unsetenv("CROWDLEARN_THREADS"), 0);
}

}  // namespace
}  // namespace crowdlearn::util
