#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <thread>

namespace perfbench {

void Outcome::fail(const std::string& what) {
  correct = false;
  if (problems.size() < 8) problems.push_back(what);
}

OpCount& Outcome::op(const std::string& name) {
  for (OpCount& o : ops) {
    if (o.op == name) return o;
  }
  ops.push_back({name, 0, 0});
  return ops.back();
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

Fidelity fidelity(const ocelot::FloatArray& original,
                  const ocelot::FloatArray& restored) {
  Fidelity f;
  const auto a = original.values();
  const auto b = restored.values();
  if (a.size() != b.size() || a.empty()) {
    f.max_abs_err = INFINITY;
    return f;
  }
  const auto [lo, hi] = std::minmax_element(a.begin(), a.end());
  f.range = static_cast<double>(*hi) - static_cast<double>(*lo);
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    f.max_abs_err = std::max(f.max_abs_err, std::fabs(d));
    sq += d * d;
  }
  const double mse = sq / static_cast<double>(a.size());
  f.psnr_db = mse > 0.0 && f.range > 0.0
                  ? 20.0 * std::log10(f.range) - 10.0 * std::log10(mse)
                  : INFINITY;
  return f;
}

void run_parallel(std::vector<std::function<void()>> jobs) {
  const std::size_t n_threads = std::max<std::size_t>(
      1, std::min<std::size_t>(std::thread::hardware_concurrency(),
                               jobs.size()));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  threads.reserve(n_threads);
  for (std::size_t t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < jobs.size(); i = next++) jobs[i]();
    });
  }
  for (std::thread& t : threads) t.join();
}

// ---- tracing --------------------------------------------------------

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next++;
  return mine;
}

thread_local std::int64_t t_open_span = -1;

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::open(const std::string& name) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.parent = t_open_span;
  r.thread = thread_number();
  r.start_ns = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
  return static_cast<std::int64_t>(records_.size() - 1);
}

void Tracer::close(std::int64_t index) {
  if (index < 0) return;
  const std::uint64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(index)].end_ns = end;
}

void Tracer::add(const std::string& name, double start_s, double end_s) {
  if (!enabled_) return;
  Record r;
  r.name = name;
  r.thread = thread_number();
  r.start_ns = static_cast<std::uint64_t>(start_s * 1e9);
  r.end_ns = static_cast<std::uint64_t>(end_s * 1e9);
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(r));
}

std::vector<double> Tracer::durations_s(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns >= r.start_ns) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-9);
    }
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return;
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\": \"" << r.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.thread
        << ", \"ts\": " << static_cast<double>(r.start_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(r.end_ns - r.start_ns) * 1e-3
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent
        << "}}";
  }
  out << "\n]}\n";
}

Span::Span(const std::string& name) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  index_ = tracer.open(name);
  saved_parent_ = t_open_span;
  t_open_span = index_;
}

Span::~Span() {
  if (index_ < 0) return;
  Tracer::instance().close(index_);
  t_open_span = saved_parent_;
}

}  // namespace perfbench
