// Clocks, resource counters and order statistics shared by every
// workload. Nothing here knows about QUICsand.
#pragma once

#include <cstdint>
#include <vector>

namespace sensorbench {

/// Monotonic seconds (steady_clock).
double now_s();
/// Microseconds from a QSL2 send stamp (CLOCK_REALTIME, whole µs, raw
/// as the frame carries it) to now, with the nanosecond digits of now.
double us_since_stamp(
    std::int64_t stamp_us);  // lint:allow(naked-int64-time-param)
/// CPU seconds of the whole process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Peak resident memory a phase adds. start() hands freed heap back to
/// the kernel (malloc_trim), notes the resident size and resets the
/// kernel's peak mark (/proc/self/clear_refs); added_mb() is the peak
/// since then minus that size, in MiB. What the process already held,
/// such as a replay buffer, is not counted.
class PeakRss {
 public:
  void start();
  [[nodiscard]] double added_mb() const;

 private:
  double start_mb_ = 0;
};

/// CPU time the hypervisor gave to other guests while this VM's vCPUs
/// were ready to run ("steal", from /proc/stat), as a percentage of all
/// CPU time since start(). On a shared VM it explains latency outliers;
/// 0 where the kernel does not account steal.
class HostSteal {
 public:
  void start();
  [[nodiscard]] double pct() const;

 private:
  std::uint64_t steal_ = 0;
  std::uint64_t total_ = 0;
};

/// Heap allocations made by the calling thread so far. Counted by the
/// operator new hook that only the traced binary links (alloc_hook.cpp);
/// the untraced binary reports 0 (alloc_none.cpp).
std::uint64_t thread_allocations();
/// True in the binary that links the counting hook.
bool allocations_counted();

/// Quantile by linear interpolation between order statistics (the
/// "inclusive" method); `values` is sorted in place. 0 for no values.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

/// Quantile q of `values` within each `window`-wide slice of `times`
/// (same length, any order), then the median over slices holding at
/// least `min_samples`. A tail quantile taken this way is not moved by
/// one stalled second of the machine. 0 when no slice qualifies.
double windowed_quantile(const std::vector<double>& times,
                         const std::vector<double>& values, double window,
                         double q, std::size_t min_samples);

}  // namespace sensorbench
