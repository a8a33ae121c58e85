#include "measure.hpp"

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <string>
#include <tuple>
#include <utility>

namespace sensorbench {

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return std::chrono::duration<double>(std::chrono::seconds(ts.tv_sec) +
                                       std::chrono::nanoseconds(ts.tv_nsec))
      .count();
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double us_since_stamp(
    std::int64_t stamp_us) {  // lint:allow(naked-int64-time-param)
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  const std::int64_t now_ns =
      static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  return static_cast<double>(now_ns - stamp_us * 1000) * 1e-3;
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

namespace {

/// A "Vm...:" line of /proc/self/status, in MiB; 0 when unavailable.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == field) {
      double kib = 0;
      in >> kib;
      return kib / 1024.0;
    }
    in.ignore(1 << 12, '\n');
  }
  return 0;
}

}  // namespace

void PeakRss::start() {
  malloc_trim(0);
  start_mb_ = status_mb("VmRSS:");
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRss::added_mb() const { return status_mb("VmHWM:") - start_mb_; }

namespace {

/// Steal and total ticks of all CPUs, from the first line of /proc/stat.
std::pair<std::uint64_t, std::uint64_t> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  std::uint64_t ticks = 0;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8 && in >> ticks; ++field) {
    total += ticks;
    if (field == 7) steal = ticks;
  }
  return {steal, total};
}

}  // namespace

void HostSteal::start() { std::tie(steal_, total_) = cpu_ticks(); }

double HostSteal::pct() const {
  const auto [steal, total] = cpu_ticks();
  return total > total_ ? 100.0 * static_cast<double>(steal - steal_) /
                              static_cast<double>(total - total_)
                        : 0;
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

double windowed_quantile(const std::vector<double>& times,
                         const std::vector<double>& values, double window,
                         double q, std::size_t min_samples) {
  if (times.empty()) return 0;
  const double first = *std::min_element(times.begin(), times.end());
  std::vector<std::vector<double>> slices;
  for (std::size_t i = 0; i < times.size(); ++i) {
    const auto slice = static_cast<std::size_t>((times[i] - first) / window);
    if (slice >= slices.size()) slices.resize(slice + 1);
    slices[slice].push_back(values[i]);
  }
  std::vector<double> per_slice;
  for (auto& slice : slices) {
    if (slice.size() >= min_samples) per_slice.push_back(quantile(slice, q));
  }
  return median(std::move(per_slice));
}

}  // namespace sensorbench
