#pragma once
// Deterministic thread-pool parallelism.
//
// The library's reproducibility contract is bit-identical outputs per seed,
// so the pool is built around three rules that every caller must follow:
//   1. Static chunking: work over [0, n) is split into at most size()
//      contiguous chunks whose boundaries depend only on n and size() — never
//      on timing — and each chunk writes to disjoint, preallocated slots.
//   2. Ordered reduction: chunk/task results are combined on the calling
//      thread in index order; no atomics-based accumulation of doubles.
//   3. Pre-split randomness: tasks never draw from a shared Rng. Callers fork
//      one child stream per task from the master seed *before* dispatch.
// Under those rules the outputs are byte-identical for any thread count,
// which tests/test_determinism.cpp locks in.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/observability.hpp"

namespace crowdlearn::util {

/// Thread count used by a component: an explicit request wins, otherwise the
/// CROWDLEARN_THREADS environment variable, otherwise hardware_concurrency
/// (never less than 1).
std::size_t resolve_thread_count(std::size_t requested = 0);

/// Fixed-size worker pool with exception-propagating futures.
///
/// A pool constructed with one thread spawns no workers at all: submit() runs
/// the task inline on the caller, so serial runs pay zero synchronization
/// cost and single-threaded determinism is trivial. submit() from one of the
/// pool's own workers also runs inline.
///
/// Nesting. parallel_chunks_grained (and parallel_for on top of it) is a
/// work-claiming join: the caller and up to chunks-1 queued helper tasks
/// claim chunk indices from one shared counter, so a parallel section
/// reached from inside a task still spreads over whichever workers are idle.
/// The join adds no deadlock of its own and never runs foreign work:
///   * the caller only ever runs chunks of its own call — never an arbitrary
///     queued task, which might block on a lock the caller already holds;
///   * every claimed chunk is being run by a live thread, so the caller's
///     final wait always ends, even when every worker is busy (the caller
///     then simply claims every chunk itself);
///   * once the caller finds every chunk claimed, it takes its helpers that
///     no worker has started back out of the queue, so stale helpers never
///     pile up ahead of other work. A helper that does start after every
///     chunk is claimed returns at once without touching the callable.
/// Which thread runs a chunk is timing-dependent; chunk boundaries are not.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1; 1 means inline execution).
  std::size_t size() const { return threads_; }

  /// True when the calling thread is one of this pool's workers.
  bool on_worker() const { return current_pool() == this; }

  /// Stop accepting tasks, finish the queued ones and join the workers.
  /// Idempotent; called by the destructor. submit() afterwards throws.
  void shutdown();

  /// Wire (or unwire, with an inactive/null context) pool metrics: task
  /// count, per-task latency histogram, and queue depth gauge. Handles are
  /// atomics because workers may already be running when this is called; the
  /// Observability object must outlive the pool. Never affects scheduling.
  void set_observability(obs::Observability* o);

  /// Queue one task. The returned future carries the result or the thrown
  /// exception. Runs inline when the pool is single-threaded, already shut
  /// down tasks throw, or when called from one of this pool's own workers.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    bool inline_run = workers_.empty() || on_worker();
    if (!inline_run) {
      std::unique_lock<std::mutex> lock(mutex_);
      if (shutdown_) throw std::runtime_error("ThreadPool::submit after shutdown");
      queue_.push_back({[this, task] { run_instrumented(*task); }, nullptr});
      update_queue_depth_locked();
      lock.unlock();
      cv_.notify_one();
      return fut;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (shutdown_) throw std::runtime_error("ThreadPool::submit after shutdown");
    }
    run_instrumented(*task);
    return fut;
  }

  /// Run fn(begin, end) over static contiguous chunks of [0, n), at most one
  /// chunk per worker. Waits for every chunk, then rethrows the first failure
  /// in chunk order. Chunk boundaries depend only on n and size().
  template <typename ChunkFn>
  void parallel_chunks(std::size_t n, ChunkFn&& fn) {
    parallel_chunks_grained(n, 1, std::forward<ChunkFn>(fn));
  }

  /// parallel_chunks with a minimum grain: the chunk count is additionally
  /// capped at n / min_grain, so no chunk is smaller than min_grain items
  /// (tiny workloads run inline instead of paying dispatch overhead). Chunk
  /// boundaries depend only on n, size() and min_grain — never on timing —
  /// so the determinism contract above is unchanged. Safe to call from a
  /// worker of this pool (see "Nesting" above).
  template <typename ChunkFn>
  void parallel_chunks_grained(std::size_t n, std::size_t min_grain, ChunkFn&& fn) {
    if (n == 0) return;
    if (min_grain == 0) min_grain = 1;
    const std::size_t chunks = std::min({size(), n, std::max<std::size_t>(1, n / min_grain)});
    if (chunks <= 1) {
      fn(std::size_t{0}, n);
      return;
    }
    using Fn = std::remove_reference_t<ChunkFn>;
    join_chunks(n, chunks, const_cast<void*>(static_cast<const void*>(&fn)),
                [](void* ctx, std::size_t begin, std::size_t end) {
                  (*static_cast<Fn*>(ctx))(begin, end);
                });
  }

  /// The smallest chunk worth a join, in elementary operations (a
  /// multiply-add, or one element read and written). A chunk handed to an
  /// idle worker starts a wake-up later: 4-14 us at the median, with tails
  /// past 50 us, on a 4-vCPU Xeon with AVX-512 (a join of four 20 us or
  /// 100 us chunks from inside a pool task, timed from queueing to the first
  /// helper's start). The fastest NN kernel, the tiled GEMM, runs about
  /// 0.1-0.4 ns per multiply-add there, and elementwise loops about 1.4 ns
  /// per element, so 65536 operations last 7-90 us: at least one median
  /// wake-up, the point below which a hand-off delays the join more than
  /// running the chunk on the caller would.
  static constexpr std::size_t kMinChunkWork = 65536;

  /// parallel_chunks_grained with the grain derived from the cost of one
  /// item: every chunk carries at least kMinChunkWork operations, and a
  /// range that carries less runs inline as one chunk. `work_per_item` is a
  /// pure function of the shapes, so the chunk boundaries still are too.
  template <typename ChunkFn>
  void parallel_chunks_work(std::size_t n, std::size_t work_per_item, ChunkFn&& fn) {
    const std::size_t per_item = std::max<std::size_t>(1, work_per_item);
    parallel_chunks_grained(n, std::max<std::size_t>(1, kMinChunkWork / per_item),
                            std::forward<ChunkFn>(fn));
  }

  /// Run body(i) for every i in [0, n), chunked as in parallel_chunks.
  template <typename Body>
  void parallel_for(std::size_t n, Body&& body) {
    parallel_chunks(n, [&body](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) body(i);
    });
  }

  /// Wait on every future (so no task can outlive its captures), then
  /// rethrow the first exception in index order.
  static void wait_all(std::vector<std::future<void>>& futures) {
    std::exception_ptr first;
    for (auto& f : futures) {
      try {
        f.get();
      } catch (...) {
        if (!first) first = std::current_exception();
      }
    }
    if (first) std::rethrow_exception(first);
  }

 private:
  struct Join;
  using ChunkInvoker = void (*)(void* ctx, std::size_t begin, std::size_t end);

  /// A queued task; `join` tags the helper tasks of one join so the joining
  /// caller can take back the ones no worker has started (null for submit()).
  struct QueuedTask {
    std::function<void()> fn;
    const Join* join = nullptr;
  };

  /// The pool whose worker is executing the current thread, if any.
  static ThreadPool*& current_pool();
  void worker_loop();

  /// The work-claiming join behind parallel_chunks_grained: queue
  /// chunks - 1 helpers, claim chunks on the caller until none is left,
  /// retract unstarted helpers, wait for the claimed chunks, rethrow the
  /// first failure in chunk order.
  void join_chunks(std::size_t n, std::size_t chunks, void* ctx, ChunkInvoker invoke);

  /// Execute one task, recording count + latency when handles are wired.
  /// The metric path reads only the steady clock — no RNG, no feedback into
  /// scheduling — so determinism is unaffected.
  ///
  /// The count is recorded BEFORE the task body runs: executing a
  /// packaged_task makes its future ready, and a caller joining on that
  /// future may snapshot the registry immediately — a post-execution inc()
  /// could be missed by that snapshot. Join helpers count only when a worker
  /// starts them (retracted ones never run), so the total is a host
  /// scheduling figure; deterministic exports drop every pool series.
  template <typename Task>
  void run_instrumented(Task& task) {
    obs::Histogram* hist = obs_task_seconds_.load(std::memory_order_acquire);
    obs::Counter* total = obs_tasks_total_.load(std::memory_order_acquire);
    if (hist == nullptr && total == nullptr) {
      task();
      return;
    }
    if (total != nullptr) total->inc();
    const auto t0 = std::chrono::steady_clock::now();
    task();  // packaged_task: exceptions land in the future, not here
    if (hist != nullptr) {
      hist->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
  }

  /// Publish queue_.size(); requires mutex_ held.
  void update_queue_depth_locked() {
    if (obs::Gauge* g = obs_queue_depth_.load(std::memory_order_acquire)) {
      g->set(static_cast<double>(queue_.size()));
    }
  }

  std::size_t threads_ = 1;
  std::vector<std::thread> workers_;
  std::deque<QueuedTask> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
  std::atomic<obs::Counter*> obs_tasks_total_{nullptr};
  std::atomic<obs::Gauge*> obs_queue_depth_{nullptr};
  std::atomic<obs::Histogram*> obs_task_seconds_{nullptr};
};

}  // namespace crowdlearn::util
