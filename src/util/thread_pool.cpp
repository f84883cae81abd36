#include "util/thread_pool.hpp"

#include <cstdlib>
#include <exception>

namespace crowdlearn::util {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("CROWDLEARN_THREADS")) {
    // strtoul silently negates "-3" to a huge value, so parse as signed and
    // cap at a sane ceiling; malformed or out-of-range values fall through.
    char* end = nullptr;
    const long long v = std::strtoll(env, &end, 10);
    if (end != env && *end == '\0' && v > 0 && v <= 4096) return static_cast<std::size_t>(v);
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

ThreadPool::ThreadPool(std::size_t num_threads) : threads_(resolve_thread_count(num_threads)) {
  if (threads_ < 2) return;  // inline mode: no workers, submit() runs on the caller
  workers_.reserve(threads_);
  for (std::size_t i = 0; i < threads_; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue
      task = std::move(queue_.front().fn);
      queue_.pop_front();
      update_queue_depth_locked();
    }
    task();  // instrumented wrapper; exceptions land in a future or a join slot
  }
}

/// Shared state of one parallel_chunks() join. Helpers hold it by
/// shared_ptr, so a helper that starts after the caller returned still finds
/// valid counters — it claims nothing and never dereferences `ctx`.
struct ThreadPool::Join {
  Join(std::size_t n_, std::size_t chunks_, void* ctx_, ChunkInvoker invoke_)
      : n(n_), chunks(chunks_), ctx(ctx_), invoke(invoke_), pending(chunks_),
        errors(chunks_) {}

  const std::size_t n, chunks;
  void* const ctx;  ///< the caller's callable; dereferenced only for claimed chunks
  const ChunkInvoker invoke;
  std::atomic<std::size_t> next{0};     ///< next unclaimed chunk index
  std::atomic<std::size_t> pending;     ///< chunks not yet finished
  std::atomic<std::size_t> unstarted{0};  ///< helpers queued but not yet started
  std::vector<std::exception_ptr> errors;  ///< one slot per chunk
  std::mutex done_mutex;
  std::condition_variable done_cv;
  bool done = false;

  /// Claim and run chunks until none is left. Chunk c covers the same
  /// static range whichever thread claims it.
  void work() {
    const std::size_t base = n / chunks, extra = n % chunks;
    for (;;) {
      const std::size_t c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t begin = c * base + std::min(c, extra);
      const std::size_t end = begin + base + (c < extra ? 1 : 0);
      try {
        invoke(ctx, begin, end);
      } catch (...) {
        errors[c] = std::current_exception();
      }
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard<std::mutex> lock(done_mutex);
        done = true;
        done_cv.notify_all();
      }
    }
  }
};

void ThreadPool::join_chunks(std::size_t n, std::size_t chunks, void* ctx,
                             ChunkInvoker invoke) {
  auto join = std::make_shared<Join>(n, chunks, ctx, invoke);
  const std::size_t helpers = chunks - 1;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // After shutdown (e.g. a task drained by shutdown() nests a parallel
    // section) no helper is queued; the caller claims every chunk itself.
    if (!shutdown_) {
      join->unstarted.store(helpers, std::memory_order_relaxed);
      for (std::size_t h = 0; h < helpers; ++h) {
        queue_.push_back({[this, join] {
                            join->unstarted.fetch_sub(1, std::memory_order_relaxed);
                            auto help = [&join] { join->work(); };
                            run_instrumented(help);
                          },
                          join.get()});
      }
      update_queue_depth_locked();
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();

  join->work();

  // Every chunk is claimed. Helpers still queued would only find nothing to
  // do; take them back so they never sit ahead of other work.
  if (join->unstarted.load(std::memory_order_relaxed) > 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                                [&](const QueuedTask& t) { return t.join == join.get(); }),
                 queue_.end());
    update_queue_depth_locked();
  }
  {
    std::unique_lock<std::mutex> lock(join->done_mutex);
    join->done_cv.wait(lock, [&] { return join->done; });
  }
  // Take the errors out of the shared state: a helper may drop the last
  // reference to `join` after this call returned, and the exceptions must
  // not be freed from that thread while the caller still handles one.
  const std::vector<std::exception_ptr> errors = std::move(join->errors);
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

void ThreadPool::set_observability(obs::Observability* o) {
  if (!obs::active(o)) {
    obs_tasks_total_.store(nullptr, std::memory_order_release);
    obs_queue_depth_.store(nullptr, std::memory_order_release);
    obs_task_seconds_.store(nullptr, std::memory_order_release);
    return;
  }
  obs::MetricsRegistry& m = o->metrics();
  obs_tasks_total_.store(&m.counter("crowdlearn_pool_tasks_total"),
                         std::memory_order_release);
  obs_queue_depth_.store(&m.gauge("crowdlearn_pool_queue_depth"),
                         std::memory_order_release);
  obs_task_seconds_.store(
      &m.histogram("crowdlearn_pool_task_seconds",
                   obs::Histogram::exponential_bounds(1e-6, 4.0, 12)),
      std::memory_order_release);
}

}  // namespace crowdlearn::util
