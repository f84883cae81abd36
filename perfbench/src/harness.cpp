#include "harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include <filesystem>

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double upper = v[mid];
  const double lower = *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string cpuinfo_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string value = line.substr(colon + 1);
    value.erase(0, value.find_first_not_of(' '));
    return value;
  }
  return "unknown";
}

constexpr bool kSanitized =
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

constexpr bool kNdebug =
#if defined(NDEBUG)
    true;
#else
    false;
#endif

}  // namespace

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) check(false, "metric " + name + " is not finite");
  metrics_.push_back({name, unit, value});
}

void Report::ops(std::size_t attempted, std::size_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  checks_ok_ = false;
  note("CHECK FAILED: " + what);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::note(const std::string& what, double value) {
  std::ostringstream os;
  os << what << ": " << value;
  note(os.str());
}

void Report::print() const {
  for (const std::string& n : notes_) std::cout << "# " << n << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (correct() ? "true" : "false") << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) js << ", ";
    js << json_string(metrics_[i].name) << ": {\"value\": " << json_number(metrics_[i].value)
       << ", \"unit\": " << json_string(metrics_[i].unit) << "}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

std::string fingerprint_json() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  const std::string flags = cpuinfo_field("flags");
  const bool avx512f = (" " + flags + " ").find(" avx512f ") != std::string::npos;
  std::ostringstream js;
  js << "{\"nproc\": " << affinity
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << json_string(cpuinfo_field("model name"))
     << ", \"avx512f\": " << (avx512f ? "true" : "false")
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"sanitizer\": " << json_string(kSanitized ? "on" : "none")
     << ", \"ndebug\": " << (kNdebug ? "true" : "false") << "}";
  return js.str();
}

bool build_is_recordable(std::string* why) {
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    *why = std::string("build type is '") + PERFBENCH_BUILD_TYPE + "', not Release";
    return false;
  }
  if (kSanitized) {
    *why = "sanitized build";
    return false;
  }
  if (!kNdebug) {
    *why = "assertions are on (NDEBUG undefined)";
    return false;
  }
  return true;
}

void Tracer::span(const std::string& name, Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lk(mutex_);
  spans_.push_back({name, start, end});
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(ms_between(s.start, s.end));
  return out;
}

double Tracer::total_ms(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations_ms(name)) sum += d;
  return sum;
}

std::vector<double> per_window(const std::vector<double>& samples, std::size_t window,
                               const std::function<double(std::vector<double>)>& stat) {
  const std::size_t windows = std::max<std::size_t>(1, samples.size() / window);
  std::vector<double> out;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * w / windows);
    const auto last =
        samples.begin() + static_cast<std::ptrdiff_t>(samples.size() * (w + 1) / windows);
    out.push_back(stat(std::vector<double>(first, last)));
  }
  return out;
}

double windowed_quantile(const std::vector<double>& samples, std::size_t window, double q) {
  return median(per_window(samples, window, [q](std::vector<double> v) {
    return quantile(std::move(v), q);
  }));
}

std::size_t repetitions(double seconds, double nominal_rep_seconds) {
  return static_cast<std::size_t>(std::max(1.0, std::round(seconds / nominal_rep_seconds)));
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus_) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void CpuRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

pid_t current_tid() { return static_cast<pid_t>(syscall(SYS_gettid)); }

std::vector<pid_t> process_threads() {
  std::vector<pid_t> tids;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task", ec)) {
    const std::string name = entry.path().filename().string();
    pid_t tid = 0;
    if (std::from_chars(name.data(), name.data() + name.size(), tid).ec == std::errc())
      tids.push_back(tid);
  }
  std::sort(tids.begin(), tids.end());
  return tids;
}

void pin(pid_t tid, const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof(set), &set);  // a thread that just ended is no error
}

}  // namespace

WorkerRotation::WorkerRotation(std::chrono::milliseconds period) : owner_(current_tid()) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  if (cpus_.size() < 2) return;
  thread_ = std::thread([this, period] {
    const pid_t self = current_tid();
    std::unique_lock<std::mutex> lk(mutex_);
    for (std::size_t step = 0; !stop_; ++step) {
      std::size_t k = 0;
      for (pid_t tid : process_threads())
        if (tid != self && tid != owner_) pin(tid, {cpus_[(k++ + step) % cpus_.size()]});
      cv_.wait_for(lk, period, [this] { return stop_; });
    }
  });
}

WorkerRotation::~WorkerRotation() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  for (pid_t tid : process_threads()) pin(tid, cpus_);
}

double median_ms(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> samples;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(ms_between(t0, Clock::now()));
  }
  return median(std::move(samples));
}

// ---- LoadGenerator --------------------------------------------------------

struct LoadGenerator::Lane {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> queue;  ///< guarded by mutex
  bool closed = false;        ///< guarded by mutex
  // Written by the collector thread only; read after join.
  std::vector<std::pair<Clock::time_point, double>> latency_ms;  ///< (due, ms)
  std::size_t attempted = 0, failed = 0;
  Clock::time_point last_ready{};
  std::thread thread;  ///< last: joins before the rest tears down
};

LoadGenerator::LoadGenerator(std::size_t lanes, SubmitFn submit, CheckFn check)
    : submit_(std::move(submit)), check_(std::move(check)) {
  for (std::size_t l = 0; l < lanes; ++l) lanes_.push_back(std::make_unique<Lane>());
  for (std::size_t l = 0; l < lanes; ++l)
    lanes_[l]->thread = std::thread([this, l] { collect(l); });
}

LoadGenerator::~LoadGenerator() {
  if (!finished_) finish();
}

void LoadGenerator::send(std::size_t lane, std::size_t image, Clock::time_point due) {
  std::this_thread::sleep_until(due);
  const auto sent = Clock::now();
  late_ms_.push_back(ms_between(due, sent));
  Pending p{image, due, {}};
  try {
    p.future = submit_(lane, image);
  } catch (...) {
    std::promise<Answer> failed;
    failed.set_exception(std::current_exception());
    p.future = failed.get_future();
  }
  Lane& l = *lanes_.at(lane);
  {
    std::lock_guard<std::mutex> lk(l.mutex);
    l.queue.push_back(std::move(p));
  }
  l.cv.notify_one();
}

void LoadGenerator::collect(std::size_t lane) {
  Lane& l = *lanes_[lane];
  for (;;) {
    Pending p;
    {
      std::unique_lock<std::mutex> lk(l.mutex);
      l.cv.wait(lk, [&] { return l.closed || !l.queue.empty(); });
      if (l.queue.empty()) return;
      p = std::move(l.queue.front());
      l.queue.pop_front();
    }
    ++l.attempted;
    bool ok = false;
    try {
      Answer answer = p.future.get();
      ok = check_(lane, p.image, answer);
    } catch (...) {
      ok = false;
    }
    const auto ready = Clock::now();
    l.last_ready = std::max(l.last_ready, ready);
    if (ok) {
      l.latency_ms.emplace_back(p.due, ms_between(p.due, ready));
    } else {
      ++l.failed;
    }
  }
}

LoadGenerator::Stats LoadGenerator::finish() {
  finished_ = true;
  for (auto& l : lanes_) {
    {
      std::lock_guard<std::mutex> lk(l->mutex);
      l->closed = true;
    }
    l->cv.notify_one();
  }
  Stats s;
  std::vector<std::pair<Clock::time_point, double>> by_due;
  for (auto& l : lanes_) {
    if (l->thread.joinable()) l->thread.join();
    by_due.insert(by_due.end(), l->latency_ms.begin(), l->latency_ms.end());
    s.attempted += l->attempted;
    s.failed += l->failed;
    s.last_ready = std::max(s.last_ready, l->last_ready);
  }
  std::sort(by_due.begin(), by_due.end());
  for (const auto& [due, ms] : by_due) s.latency_ms.push_back(ms);
  s.late_ms = late_ms_;
  return s;
}

void poisson_phase(LoadGenerator& gen, std::mt19937_64& rng, double rate, std::size_t lanes,
                   std::size_t images, Clock::time_point start, Clock::time_point until,
                   const std::function<bool()>& keep_going) {
  std::exponential_distribution<double> gap(rate);
  std::uniform_int_distribution<std::size_t> pick(0, images - 1);
  auto due = start;
  for (std::size_t sent = 0;; ++sent) {
    due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(gap(rng)));
    if (due >= until || !keep_going()) return;
    gen.send(sent % lanes, pick(rng), due);
  }
}

double saturation_burst(LoadGenerator& gen, std::mt19937_64& rng, std::size_t count,
                        std::size_t lanes, std::size_t images, const std::function<void()>& flush,
                        LoadGenerator::Stats* stats) {
  std::uniform_int_distribution<std::size_t> pick(0, images - 1);
  const auto start = Clock::now();
  for (std::size_t i = 0; i < count; ++i) gen.send(i % lanes, pick(rng), start);
  flush();
  *stats = gen.finish();
  const double wall = seconds_between(start, stats->last_ready);
  return wall > 0.0 ? static_cast<double>(stats->attempted - stats->failed) / wall : 0.0;
}

}  // namespace perfbench
