#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sensorbench {

Tracer::Tracer(bool enabled, std::uint32_t run) : enabled_(enabled), run_(run) {
  // Reserved up front so that opening a span rarely allocates; growth,
  // when it happens, falls before the span's allocation snapshot.
  if (enabled_) spans_.reserve(std::size_t{1} << 16);
}

std::int32_t Tracer::begin(const char* name, std::int32_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = parent;
  span.run = run_;
  spans_.push_back(span);
  spans_.back().start_s = now_s();
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::end(std::int32_t id, std::uint64_t items, std::uint64_t allocs) {
  if (id < 0) return;
  auto& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = now_s();
  span.items = items;
  span.allocs = allocs;
}

double Tracer::duration_s(std::int32_t id) const {
  const auto& span = spans_[static_cast<std::size_t>(id)];
  return span.end_s - span.start_s;
}

double Tracer::self_s(std::int32_t id) const {
  const auto& parent = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> covered;
  for (const auto& span : spans_) {
    if (span.parent != id) continue;
    covered.emplace_back(std::max(span.start_s, parent.start_s),
                         std::min(span.end_s, parent.end_s));
  }
  std::sort(covered.begin(), covered.end());
  double union_s = 0;
  double reach = parent.start_s;
  for (const auto& [lo, hi] : covered) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      union_s += hi - from;
      reach = hi;
    }
  }
  return (parent.end_s - parent.start_s) - union_s;
}

Tracer::Totals Tracer::totals(const std::string& name,
                              std::int32_t parent) const {
  Totals totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    if (name != span.name || (parent != -2 && span.parent != parent)) {
      continue;
    }
    ++totals.spans;
    totals.total_s += span.end_s - span.start_s;
    totals.self_s += self_s(static_cast<std::int32_t>(i));
    totals.items += span.items;
    totals.allocs += span.allocs;
  }
  return totals;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"run\": %u, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"items\": %llu, "
                 "\"allocs\": %llu}\n",
                 i, span.run, span.name, span.parent, span.start_s, span.end_s,
                 static_cast<unsigned long long>(span.items),
                 static_cast<unsigned long long>(span.allocs));
  }
  return std::fclose(out) == 0;
}

}  // namespace sensorbench
