// Host clocks, the in-memory span recorder, summaries and the result
// writer of the benchmark program.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host time in seconds on the two clocks the benchmark reads: wall
/// (steady_clock) and this thread's CPU time. CPU time leaves out the
/// stretches the thread is descheduled, which dominate the tails of wall
/// time on a shared machine.
struct HostTime {
  double wall = 0.0;
  double cpu = 0.0;
};
[[nodiscard]] HostTime host_now();
[[nodiscard]] inline HostTime operator-(HostTime a, HostTime b) {
  return {a.wall - b.wall, a.cpu - b.cpu};
}

/// A fixed unit of reference work (a timer heap and a counter table, the
/// access pattern of a small event simulator); returns the thread-CPU
/// seconds it took. Run next to the measured work, it tracks how fast the
/// shared host runs at that moment.
[[nodiscard]] double reference_kernel_s();
/// Host times are reported at a nominal speed: the speed at which
/// reference_kernel_s() returns this.
inline constexpr double kNominalReferenceS = 100e-6;

/// One recorded span: a call the benchmark made into a layer's public
/// function. Times are wall seconds since the recorder was created.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 at top level
};

/// In-memory span recorder. Disabled recorders cost one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Open a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(std::string name);
  void close(int index);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Chrome trace-event JSON of every span.
  [[nodiscard]] std::string chrome_json() const;

 private:
  bool enabled_;
  HostTime origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Scoped span.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name)
      : tracer_(&tracer), index_(tracer.open(std::move(name))) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { tracer_->close(index_); }

 private:
  Tracer* tracer_;
  int index_;
};

/// a / b, or 0 when b is 0 (a layer that did no work on this workload).
[[nodiscard]] double ratio(double a, double b);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// A metric as printed: value and unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// The result line: {"correct", "attempted", "failed", "metrics"}, every
/// value printed with all its digits.
[[nodiscard]] std::string result_json(bool correct, std::uint64_t attempted,
                                      std::uint64_t failed,
                                      const Metrics& metrics);

}  // namespace perfbench
