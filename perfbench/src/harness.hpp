#pragma once
// Shared machinery of the end-to-end benchmark: options, order statistics,
// the result report, the host/build fingerprint, in-memory spans for traced
// runs, and the open-loop request generator. Everything here sits outside
// the library and measures it only through its public API.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time per run (whole repetitions)
  bool trace = false;     ///< per-layer run instead of end-to-end
  bool smoke = false;     ///< reduced-scale inputs for the benchmark's own test
  std::string workdir;    ///< scratch directory for checkpoint rings
};

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
/// Median of an unsorted sample (the mean of the two middle values when the
/// count is even); 0 when empty.
double median(std::vector<double> v);

/// Latency samples per quantile window: the p99 of a window has 10 samples
/// beyond it.
inline constexpr std::size_t kLatencyWindow = 1000;

/// `stat` of each run of `window` consecutive samples (at least one run; the
/// remainder is spread over the runs), in order.
std::vector<double> per_window(const std::vector<double>& samples, std::size_t window,
                               const std::function<double(std::vector<double>)>& stat);

/// The quantile of each run of `window` consecutive samples, then the median
/// over runs. A host stall that hits a few runs cannot move a tail figure on
/// its own.
double windowed_quantile(const std::vector<double>& samples, std::size_t window, double q);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

/// Everything one run prints: metrics in a fixed order, the operation
/// counts, correctness, and human-readable context lines.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Record `n` attempted operations of which `failed` failed.
  void ops(std::size_t attempted, std::size_t failed);
  /// A correctness check outside any single operation (e.g. determinism
  /// across repetitions). A false check marks the run incorrect.
  void check(bool ok, const std::string& what);
  /// A context line printed before the result (sample counts, validity).
  void note(const std::string& line);
  void note(const std::string& what, double value);

  bool correct() const { return checks_ok_ && failed_ == 0 && attempted_ > 0; }
  /// Context lines, then the one-line JSON result.
  void print() const;

 private:
  struct Entry {
    std::string name, unit;
    double value = 0.0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0, failed_ = 0;
  bool checks_ok_ = true;
};

/// One line of JSON describing the host and the build. Returns false (with
/// the reason) when the build must not record: not Release, sanitized, or
/// assertions on.
std::string fingerprint_json();
bool build_is_recordable(std::string* why);

/// Spans recorded by the traced run, kept in memory. Safe to record from
/// several threads at once.
class Tracer {
 public:
  void span(const std::string& name, Clock::time_point start, Clock::time_point end);
  std::vector<double> durations_ms(const std::string& name) const;
  double total_ms(const std::string& name) const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start, end;
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// Repetitions a run makes: `seconds` over the workload's nominal
/// repetition length, at least one. A fixed count, rather than "until the
/// time is up", gives every run the same amount of work on any host.
std::size_t repetitions(double seconds, double nominal_rep_seconds);

/// Moves the calling thread over every CPU it may run on, one at a time, and
/// restores its affinity when destroyed. The cores of a shared host run at
/// different speeds at any moment (a one-thread loop pinned to one core read
/// 0.30 or 0.50 ms per call, depending on the core), so a one-thread figure
/// taken on one core measures that core; taken on each in turn, it averages
/// them as multi-threaded work does.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Pin the calling thread to the next CPU of its original set.
  void next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// While alive, moves every other thread of the process (the library's pool
/// workers) over the CPUs in turn: the k-th of them runs on CPU (k + step)
/// mod n, and the step advances every `period`. The thread that creates it
/// is left alone. When destroyed, every thread gets the original CPU set
/// back. A long task on one worker would otherwise run at the speed of the
/// one core it lands on (see CpuRotation).
class WorkerRotation {
 public:
  explicit WorkerRotation(std::chrono::milliseconds period);
  ~WorkerRotation();
  WorkerRotation(const WorkerRotation&) = delete;
  WorkerRotation& operator=(const WorkerRotation&) = delete;

 private:
  std::vector<int> cpus_;
  int owner_ = 0;  ///< thread id of the creating thread
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mutex_
  std::thread thread_;
};

/// Times `fn` `reps` times and returns the median in milliseconds.
double median_ms(std::size_t reps, const std::function<void()>& fn);

/// Open-loop request generator (one calling thread) with one collector
/// thread per lane. Each request is timed from its scheduled send time to
/// the moment its future is ready, so a stall also charges the requests
/// queued behind it. Lanes are per tenant: the service completes a lane's
/// requests in submission order, which is the order its collector waits.
class LoadGenerator {
 public:
  using Answer = std::vector<std::size_t>;
  using SubmitFn = std::function<std::future<Answer>(std::size_t lane, std::size_t image)>;
  /// True when `answer` is right for (lane, image).
  using CheckFn = std::function<bool(std::size_t lane, std::size_t image, const Answer& answer)>;

  LoadGenerator(std::size_t lanes, SubmitFn submit, CheckFn check);
  ~LoadGenerator();
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sleep until `due`, then submit. Records how late the send was.
  void send(std::size_t lane, std::size_t image, Clock::time_point due);

  struct Stats {
    std::vector<double> latency_ms;  ///< due -> ready, completed requests, in due order
    std::vector<double> late_ms;     ///< send - due
    std::size_t attempted = 0, failed = 0;
    Clock::time_point last_ready{};
  };
  /// Wait for every request sent so far and join the collectors.
  Stats finish();

 private:
  struct Lane;
  struct Pending {
    std::size_t image = 0;
    Clock::time_point due{};
    std::future<Answer> future;
  };
  void collect(std::size_t lane);

  SubmitFn submit_;
  CheckFn check_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<double> late_ms_;
  bool finished_ = false;
};

/// Seeded Poisson arrivals at `rate` per second from `start`, sent until
/// `keep_going()` turns false or `until` passes; lane i % lanes, image drawn
/// uniformly from [0, images).
void poisson_phase(LoadGenerator& gen, std::mt19937_64& rng, double rate, std::size_t lanes,
                   std::size_t images, Clock::time_point start, Clock::time_point until,
                   const std::function<bool()>& keep_going);

/// Sends `count` requests at once (all due now), then `flush()`es the
/// front door: a saturation burst. Returns completed requests per second,
/// from the burst start to the last answer.
double saturation_burst(LoadGenerator& gen, std::mt19937_64& rng, std::size_t count,
                        std::size_t lanes, std::size_t images, const std::function<void()>& flush,
                        LoadGenerator::Stats* stats);

}  // namespace perfbench
