#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <sstream>
#include <utility>

namespace perfbench {

HostTime host_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  const double cpu =
      static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  return {wall, cpu};
}

double reference_kernel_s() {
  static std::vector<std::uint64_t> table(std::size_t{1} << 17);
  static std::vector<std::pair<double, std::uint32_t>> heap;
  const HostTime t0 = host_now();
  heap.clear();
  std::uint64_t x = 88172645463325252ull;
  for (std::uint32_t i = 0; i < 1500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ++table[x & (table.size() - 1)];
    heap.emplace_back(static_cast<double>(x >> 11), i);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
    if (heap.size() > 1024) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      heap.pop_back();
    }
  }
  return (host_now() - t0).cpu;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(host_now()) {}

int Tracer::open(std::string name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), (host_now() - origin_).wall, 0.0, parent});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = (host_now() - origin_).wall;
  // Spans close innermost first; tolerate a span left open by an exception.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::ostringstream out;
  out.precision(17);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": \"" << s.name
        << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << 1e6 * s.start << ", \"dur\": " << 1e6 * (s.end - s.start)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.str();
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const Metrics& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
        << m.unit << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace perfbench
