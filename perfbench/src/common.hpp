#pragma once
// Shared plumbing of the perfbench workloads: the run outcome that
// main() prints, the in-memory span tracer of the traced run, and the
// small statistics and clock helpers every workload uses.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/ndarray.hpp"

namespace perfbench {

/// Command-line settings shared by every workload.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where the traced run writes its spans
};

/// One operation class of a workload (passes, request kinds,
/// campaigns): how many were attempted and how many failed.
struct OpCount {
  std::string op;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `correct` is false as soon as
/// any output check fails; `problems` says which.
struct Outcome {
  bool correct = true;
  std::vector<std::string> problems;
  std::vector<OpCount> ops;
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a failed check (the run's result turns incorrect).
  void fail(const std::string& what);
  /// Records a failure unless `ok` (only the first few messages are kept).
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  OpCount& op(const std::string& name);
};

// ---- clocks ---------------------------------------------------------

/// Monotonic wall time in seconds (arbitrary epoch).
double now_s();
/// CPU seconds of the whole process (all threads, user + system).
double process_cpu_s();

// ---- statistics -----------------------------------------------------

double median(std::vector<double> values);
/// Percentile by linear interpolation between ranks, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// Value-range-relative bound check and PSNR, computed here rather
/// than by the library so a codec bug cannot hide in its own metric.
struct Fidelity {
  double range = 0.0;
  double max_abs_err = 0.0;
  double psnr_db = 0.0;
};
Fidelity fidelity(const ocelot::FloatArray& original,
                  const ocelot::FloatArray& restored);

/// Runs `jobs` on up to hardware_concurrency threads; input generation
/// is the only user (it costs ~2 us per value single-threaded).
void run_parallel(std::vector<std::function<void()>> jobs);

// ---- tracing --------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are kept in a
/// vector and written as Chrome trace-event JSON when the run ends, so
/// recording costs two clock reads and one push under a mutex. When
/// disabled, Span does nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index of the enclosing span
    std::uint32_t thread = 0;
  };

  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Opens a span; returns its index (or -1 when disabled).
  std::int64_t open(const std::string& name);
  void close(std::int64_t index);
  /// Records a finished span measured elsewhere (now_s() timestamps);
  /// for work that starts on one thread and ends on another.
  void add(const std::string& name, double start_s, double end_s);

  /// Durations (seconds) of every span named `name`, in record order.
  [[nodiscard]] std::vector<double> durations_s(const std::string& name) const;

  /// Writes every span as Chrome trace-event JSON.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span on the process tracer; parent is the innermost span open
/// on the same thread.
class Span {
 public:
  explicit Span(const std::string& name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
  std::int64_t saved_parent_ = -1;
};

}  // namespace perfbench
