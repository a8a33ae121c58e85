// Simulation time axis.
//
// The whole project uses a single integral time resolution: microseconds
// since the Unix epoch (UTC). `Timestamp` (a point) and `Duration` (a
// vector) are distinct strong types: Timestamp-Timestamp yields Duration,
// Timestamp+Duration yields Timestamp, and Timestamp+Timestamp or a bare
// int64 in their place is a compile error. The measurement window of the
// paper is April 1-30, 2021; helpers below express that window and the
// hour/minute binning used by the figures.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/strong.hpp"

namespace quicsand::util {

struct DurationTag {};
/// Signed duration in microseconds.
using Duration = Strong<DurationTag, std::int64_t>;

struct TimestampTag {
  using Difference = Duration;
};
/// Microseconds since the Unix epoch (UTC).
using Timestamp = Strong<TimestampTag, std::int64_t>;

struct HourBinTag {};
/// Index of a 1-hour bin relative to some origin.
using HourBin = Strong<HourBinTag, std::int64_t>;

constexpr Duration kMicrosecond{1};
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;
constexpr Duration kMinute = 60 * kSecond;
constexpr Duration kHour = 60 * kMinute;
constexpr Duration kDay = 24 * kHour;

constexpr double to_seconds(Duration d) {
  return static_cast<double>(d.count()) / static_cast<double>(kSecond.count());
}

/// Seconds -> Duration with floor semantics: identical to truncation for
/// s >= 0, but negative values round down instead of toward zero, so
/// from_seconds(to_seconds(d)) no longer loses a microsecond for d < 0.
constexpr Duration from_seconds(double s) {
  const double us = s * static_cast<double>(kSecond.count());
  const auto truncated = static_cast<std::int64_t>(us);
  return Duration{us < static_cast<double>(truncated) ? truncated - 1
                                                      : truncated};
}

/// 2021-04-01 00:00:00 UTC, the start of the paper's measurement window.
constexpr Timestamp kApril2021Start = Timestamp{1617235200LL * 1000000LL};
/// 2021-04-30 24:00:00 UTC (exclusive end of the window).
constexpr Timestamp kApril2021End = kApril2021Start + 30 * kDay;

namespace detail {

/// Floor division: bins of negative offsets (pre-origin timestamps) land
/// in negative bins instead of sharing bin 0 with the first hour.
constexpr std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  const std::int64_t q = a / b;
  const std::int64_t r = a % b;
  return (r != 0 && ((r < 0) != (b < 0))) ? q - 1 : q;
}

constexpr std::int64_t checked_offset(Timestamp t, Timestamp origin) {
  std::int64_t diff = 0;
  if (__builtin_sub_overflow(t.count(), origin.count(), &diff)) {
    throw std::overflow_error("time bin: timestamp offset overflows");
  }
  return diff;
}

}  // namespace detail

/// Index of the 1-hour bin containing `t`, relative to `origin`.
/// Overflow-checked; pre-origin timestamps land in negative bins.
constexpr HourBin hour_bin(Timestamp t, Timestamp origin) {
  return HourBin{detail::floor_div(detail::checked_offset(t, origin),
                                   kHour.count())};
}

/// Seconds since UTC midnight for the day containing `t`.
constexpr std::int64_t seconds_of_day(Timestamp t) {
  std::int64_t s = (t.count() / kSecond.count()) % 86400;
  return s < 0 ? s + 86400 : s;
}

/// Hour-of-day in [0, 24).
constexpr int hour_of_day(Timestamp t) {
  return static_cast<int>(seconds_of_day(t) / 3600);
}

/// Render a timestamp as "YYYY-MM-DD hh:mm:ss" (UTC, proleptic Gregorian).
std::string format_utc(Timestamp t);

/// Render a duration compactly, e.g. "4m15s" or "36h".
std::string format_duration(Duration d);

}  // namespace quicsand::util
