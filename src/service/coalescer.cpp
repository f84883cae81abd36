#include "service/coalescer.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"

namespace crowdlearn::service {

BatchCoalescer::BatchCoalescer(TenantManager& manager, BatchCoalescerConfig cfg)
    : mgr_(manager), cfg_(std::move(cfg)) {
  if (cfg_.max_batch_images == 0) cfg_.max_batch_images = 1;
  if (obs::active(cfg_.observability)) {
    obs::MetricsRegistry& m = cfg_.observability->metrics();
    // Buckets 1, 2, 4, ... 2048: batch sizes are bounded by max_batch plus
    // one oversized request, and the interesting signal is the shape of the
    // distribution (all-1s means coalescing is not happening).
    obs_batch_size_ =
        &m.histogram("crowdlearn_serve_batch_size", obs::Histogram::exponential_bounds(1.0, 2.0, 12));
    obs_queue_depth_ = &m.gauge("crowdlearn_serve_queue_depth");
  }
  if (cfg_.max_linger.count() > 0) linger_thread_ = std::thread([this] { linger_loop(); });
}

BatchCoalescer::~BatchCoalescer() {
  flush();
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  linger_cv_.notify_all();
  if (linger_thread_.joinable()) linger_thread_.join();
}

std::future<std::vector<std::size_t>> BatchCoalescer::submit_classify(
    const std::string& tenant, std::vector<std::size_t> image_ids) {
  Request req;
  req.ids = std::move(image_ids);
  std::future<std::vector<std::size_t>> future = req.promise.get_future();
  bool schedule = false;
  bool wake_linger = false;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    Lane& lane = lanes_[tenant];
    if (lane.fifo.empty()) {
      lane.oldest = std::chrono::steady_clock::now();
      wake_linger = true;
    }
    lane.queued_images += req.ids.size();
    lane.fifo.push_back(std::move(req));
    ++in_flight_;
    ++stats_.requests;
    stats_.images += lane.fifo.back().ids.size();
    if (obs_queue_depth_) obs_queue_depth_->set(static_cast<double>(in_flight_));
    if (!lane.active && lane.queued_images >= cfg_.max_batch_images) {
      lane.active = true;
      ++active_dispatches_;
      schedule = true;
    }
  }
  // Outside the lock: with a single-threaded pool submit() runs the dispatch
  // inline on this thread, and it must not re-enter mutex_ while we hold it.
  if (schedule) mgr_.pool().submit([this, tenant] { dispatch_lane(tenant); });
  if (wake_linger && linger_thread_.joinable()) linger_cv_.notify_all();
  return future;
}

/// Mark `lane` for a drain-to-empty dispatch. Caller holds mutex_; tenants
/// needing a dispatch task are appended to `out` for scheduling off-lock.
void BatchCoalescer::schedule_locked(const std::string& tenant, Lane& lane,
                                     std::vector<std::string>* out) {
  if (lane.fifo.empty()) return;
  lane.flush_requested = true;
  if (!lane.active) {
    lane.active = true;
    ++active_dispatches_;
    out->push_back(tenant);
  }
}

void BatchCoalescer::dispatch_lane(const std::string& tenant) {
  for (;;) {
    std::vector<Request> batch;
    std::size_t batch_images = 0;
    {
      std::lock_guard<std::mutex> lk(mutex_);
      Lane& lane = lanes_[tenant];
      const bool flushing = lane.flush_requested;
      if (lane.fifo.empty() || (!flushing && lane.queued_images < cfg_.max_batch_images)) {
        // Retire. A lane left non-empty below threshold waits for the next
        // trigger (threshold crossing, linger deadline, or flush). Notify on
        // every active_dispatches_ zero-crossing — not only at full
        // quiescence — so flush() can wake and re-sweep requests that
        // arrived after its last sweep (they have no other trigger when the
        // linger timer is disabled).
        //
        // A lane retired non-empty re-enters the linger thread's deadline
        // scan, which skipped it while it was active and may since have
        // parked with no deadline at all: wake it, or the remainder waits
        // for some other lane's submit.
        if (lane.fifo.empty()) {
          lane.flush_requested = false;
        } else {
          linger_cv_.notify_all();
        }
        lane.active = false;
        if (--active_dispatches_ == 0) idle_cv_.notify_all();
        return;
      }
      // Greedy prefix cut: take whole requests until the batch reaches
      // max_batch_images (never split a request; always take at least one).
      // The cut point depends only on arrival order, not on timing.
      while (!lane.fifo.empty()) {
        const std::size_t next = lane.fifo.front().ids.size();
        if (!batch.empty() && batch_images + next > cfg_.max_batch_images) break;
        batch_images += next;
        lane.queued_images -= next;
        batch.push_back(std::move(lane.fifo.front()));
        lane.fifo.pop_front();
        if (batch_images >= cfg_.max_batch_images) break;
      }
      if (!lane.fifo.empty()) lane.oldest = std::chrono::steady_clock::now();
      ++stats_.batches;
      stats_.largest_batch = std::max(stats_.largest_batch, batch_images);
    }
    if (batch_observer_) batch_observer_(tenant, batch.size(), batch_images);
    if (obs_batch_size_) obs_batch_size_->observe(static_cast<double>(batch_images));

    // One committee pass for the whole batch, then demux in submission
    // order. On failure every request of the batch gets the exception —
    // their results were never computed.
    std::vector<std::size_t> all_ids;
    all_ids.reserve(batch_images);
    for (const Request& r : batch)
      all_ids.insert(all_ids.end(), r.ids.begin(), r.ids.end());
    try {
      const std::vector<std::size_t> predictions = mgr_.classify(tenant, all_ids);
      std::size_t offset = 0;
      for (Request& r : batch) {
        std::vector<std::size_t> slice(predictions.begin() + static_cast<std::ptrdiff_t>(offset),
                                       predictions.begin() +
                                           static_cast<std::ptrdiff_t>(offset + r.ids.size()));
        offset += r.ids.size();
        r.promise.set_value(std::move(slice));
      }
    } catch (...) {
      for (Request& r : batch) r.promise.set_exception(std::current_exception());
    }
    {
      std::lock_guard<std::mutex> lk(mutex_);
      // No idle notify here: flush() also needs active_dispatches_ == 0,
      // and this task is still active — the retire branch notifies.
      in_flight_ -= batch.size();
      if (obs_queue_depth_) obs_queue_depth_->set(static_cast<double>(in_flight_));
    }
  }
}

void BatchCoalescer::flush() {
  // Sweep-until-quiescent loop. One sweep is not enough: a request that
  // lands after the sweep but stays below the batch threshold has no other
  // dispatch trigger when the linger timer is disabled, and waiting on it
  // would deadlock. So: schedule every non-empty lane, wait for the active
  // dispatches to retire, and re-sweep whatever arrived in the meantime.
  // Concurrent submits extend the wait — each round drains everything
  // present at sweep time — but can never wedge it: any waiting state has
  // an active dispatch, and every retirement notifies.
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    std::vector<std::string> to_schedule;
    for (auto& [tenant, lane] : lanes_) schedule_locked(tenant, lane, &to_schedule);
    if (!to_schedule.empty()) {
      // Off-lock: with a single-threaded pool submit() runs the dispatch
      // inline, and it must not re-enter mutex_ while we hold it.
      lk.unlock();
      for (const std::string& tenant : to_schedule)
        mgr_.pool().submit([this, tenant] { dispatch_lane(tenant); });
      lk.lock();
    }
    if (active_dispatches_ == 0 && in_flight_ == 0) return;
    idle_cv_.wait(lk, [this] { return active_dispatches_ == 0; });
    if (in_flight_ == 0) return;
  }
}

std::size_t BatchCoalescer::pending() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return in_flight_;
}

CoalescerStats BatchCoalescer::stats() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return stats_;
}

void BatchCoalescer::set_batch_observer(
    std::function<void(const std::string&, std::size_t, std::size_t)> observer) {
  batch_observer_ = std::move(observer);
}

void BatchCoalescer::linger_loop() {
  std::unique_lock<std::mutex> lk(mutex_);
  while (!stopping_) {
    // Earliest linger deadline over idle non-empty lanes.
    bool have_deadline = false;
    std::chrono::steady_clock::time_point deadline{};
    for (auto& [tenant, lane] : lanes_) {
      if (lane.fifo.empty() || lane.active) continue;
      const auto d = lane.oldest + cfg_.max_linger;
      if (!have_deadline || d < deadline) {
        deadline = d;
        have_deadline = true;
      }
    }
    if (!have_deadline) {
      linger_cv_.wait(lk);
      continue;
    }
    const auto now = std::chrono::steady_clock::now();
    if (now < deadline) {
      linger_cv_.wait_until(lk, deadline);
      continue;
    }
    // Dispatch every lane whose oldest request has waited out its linger.
    std::vector<std::string> to_schedule;
    for (auto& [tenant, lane] : lanes_) {
      if (lane.fifo.empty() || lane.active) continue;
      if (lane.oldest + cfg_.max_linger <= now) schedule_locked(tenant, lane, &to_schedule);
    }
    lk.unlock();
    for (const std::string& tenant : to_schedule)
      mgr_.pool().submit([this, tenant] { dispatch_lane(tenant); });
    lk.lock();
  }
}

}  // namespace crowdlearn::service
