#pragma once
// Async front door for the multi-tenant service (docs/TENANCY.md): callers
// enqueue cycle / inference requests per tenant and get a std::future back.
// Requests are drained by tasks submitted to the TenantManager's shared
// util::ThreadPool — one drain task per tenant at a time, so requests for
// the same tenant execute strictly in submission order (a tenant's trace
// through the queue is byte-identical to calling the manager directly),
// while different tenants drain concurrently up to the pool's worker count.
//
// The pool's join keeps this safe: a cycle running inside a drain task
// re-enters the same pool for committee inference and training through
// util::parallel_chunks, whose caller runs only chunks of its own call
// (never another tenant's task) and whose static chunk boundaries make the
// result identical at any thread count.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/tenant.hpp"

namespace crowdlearn::service {

class BatchCoalescer;

class ServiceQueue {
 public:
  explicit ServiceQueue(TenantManager& manager) : mgr_(manager) {}
  /// Batched front door: classify requests bypass the per-request lanes and
  /// go through `coalescer` (src/service/coalescer.hpp), which groups them
  /// into committee-inference batches; cycle requests still drain per
  /// request. The coalescer must outlive this queue (the destructor's
  /// drain() flushes it). Results are byte-identical either way
  /// (docs/SERVING.md).
  ServiceQueue(TenantManager& manager, BatchCoalescer* coalescer)
      : mgr_(manager), coalescer_(coalescer) {}
  /// Drains every pending request before destruction.
  ~ServiceQueue() { drain(); }

  ServiceQueue(const ServiceQueue&) = delete;
  ServiceQueue& operator=(const ServiceQueue&) = delete;

  /// Enqueue "run the tenant's next sensing cycle". Errors (unknown tenant,
  /// exhausted stream, rehydrate failure) surface through the future.
  std::future<core::CycleOutcome> submit_cycle(const std::string& tenant);

  /// Enqueue a committee-only inference request (TenantManager::classify).
  std::future<std::vector<std::size_t>> submit_classify(const std::string& tenant,
                                                        std::vector<std::size_t> image_ids);

  /// Block until the queue is quiescent: every request submitted so far has
  /// completed (and, with a coalescer attached, every coalesced classify
  /// batch has been flushed). Safe to call concurrently with submits from
  /// other threads — those submits simply extend the wait, and drain()
  /// returns at whatever quiescent point the queue reaches; it never
  /// deadlocks (tests/test_serving.cpp pins this under a watchdog). The one
  /// forbidden caller is a pool worker task: drain() inside a task would
  /// wait for itself.
  void drain();

  /// Requests submitted but not yet completed (queued + running).
  std::size_t pending() const;

 private:
  struct Lane {
    std::deque<std::function<void()>> fifo;
    bool active = false;  ///< a drain task for this lane is queued/running
  };

  template <typename Fn>
  auto enqueue(const std::string& tenant, Fn fn) -> std::future<decltype(fn())>;
  void drain_lane(const std::string& tenant);

  TenantManager& mgr_;
  BatchCoalescer* coalescer_ = nullptr;  ///< not owned; may be null
  mutable std::mutex mutex_;
  std::condition_variable idle_cv_;
  std::map<std::string, Lane> lanes_;
  std::size_t in_flight_ = 0;     ///< requests queued or running
  std::size_t active_lanes_ = 0;  ///< drain tasks queued or running
};

template <typename Fn>
auto ServiceQueue::enqueue(const std::string& tenant, Fn fn) -> std::future<decltype(fn())> {
  using Result = decltype(fn());
  auto task = std::make_shared<std::packaged_task<Result()>>(std::move(fn));
  std::future<Result> future = task->get_future();
  bool schedule = false;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    Lane& lane = lanes_[tenant];
    lane.fifo.push_back([task] { (*task)(); });
    ++in_flight_;
    if (!lane.active) {
      lane.active = true;
      ++active_lanes_;
      schedule = true;
    }
  }
  // Submit outside the lock: a single-threaded pool runs the drain inline on
  // this thread (synchronous execution, same results), and it must not
  // re-enter mutex_ while we hold it. With workers the drain always queues.
  if (schedule) mgr_.pool().submit([this, tenant] { drain_lane(tenant); });
  return future;
}

}  // namespace crowdlearn::service
