// In-memory span recorder for the traced run.
//
// A span is one call (or one batch of calls) into a layer: name, start,
// end, parent span and run id, plus the items it processed and the heap
// allocations the calling thread made inside it. Spans stay in memory
// and are written out once, at the end. A span's self time is its
// duration minus the part of it that its children cover.
//
// One Tracer belongs to one thread. A disabled tracer records nothing
// and costs a branch per span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace sensorbench {

struct Span {
  const char* name = "";
  double start_s = 0;
  double end_s = 0;
  std::int32_t parent = -1;
  std::uint32_t run = 0;
  std::uint64_t items = 0;
  std::uint64_t allocs = 0;
};

class Tracer {
 public:
  Tracer(bool enabled, std::uint32_t run);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its id, or -1 when disabled.
  std::int32_t begin(const char* name, std::int32_t parent = -1);
  void end(std::int32_t id, std::uint64_t items, std::uint64_t allocs);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_s(std::int32_t id) const;
  [[nodiscard]] double self_s(std::int32_t id) const;

  /// Sums over every span called `name` whose parent is `parent`
  /// (-2 matches any parent).
  struct Totals {
    std::uint64_t spans = 0;
    double total_s = 0;
    double self_s = 0;
    std::uint64_t items = 0;
    std::uint64_t allocs = 0;
  };
  [[nodiscard]] Totals totals(const std::string& name,
                              std::int32_t parent = -2) const;

  /// One JSON object per span, one per line.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::uint32_t run_;
  std::vector<Span> spans_;
};

/// RAII span that also counts the thread's allocations inside it.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent)),
        allocs_at_start_(thread_allocations()) {}
  ~ScopedSpan() {
    tracer_.end(id_, items_, thread_allocations() - allocs_at_start_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(std::uint64_t items) { items_ = items; }
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
  std::uint64_t allocs_at_start_;
  std::uint64_t items_ = 0;
};

}  // namespace sensorbench
