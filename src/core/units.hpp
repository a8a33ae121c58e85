// Strong units for the analysis axes (§5).
//
// The DoS thresholds mix packet counts, seconds and packets-per-second in
// adjacent arithmetic; tagging each axis makes a unit mix-up (comparing a
// packet count against a pps threshold, say) a compile error instead of a
// silently different attack count. Time axes live in util/time.hpp
// (Timestamp, Duration, HourBin).
#pragma once

#include <cstdint>

#include "util/strong.hpp"

namespace quicsand::core {

struct PacketCountTag {};
/// Number of packets (sessions, attacks, minute slots).
using PacketCount = util::Strong<PacketCountTag, std::uint64_t>;

struct PpsTag {};
/// Packet rate in packets per second.
using Pps = util::Strong<PpsTag, double>;

/// The rate of `packets` arriving within one minute (the Fig. 6/10 peak
/// intensity definition).
constexpr Pps per_minute_rate(std::uint64_t packets) {
  return Pps{static_cast<double>(packets) / 60.0};
}

}  // namespace quicsand::core
