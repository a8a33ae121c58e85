// Workload inputs: the scenarios, the set-up that turns them into what
// the program under test reads (a pcap capture or a datagram stream),
// and scoring against the generator's ground truth.
//
// Everything here is set-up or verification; none of it is timed as
// the sensor's work.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dos.hpp"
#include "net/ip.hpp"
#include "net/record_batch.hpp"
#include "telescope/ground_truth.hpp"
#include "telescope/scenario.hpp"

namespace quicsand::asdb {
class AsRegistry;
}
namespace quicsand::scanner {
class Deployment;
}

namespace sensorbench {

class Tracer;

/// The synthetic AS registry and server deployment every scenario and
/// the victim report use (seeded as the figure harnesses seed them).
const quicsand::asdb::AsRegistry& registry();
const quicsand::scanner::Deployment& deployment();

enum class Workload : std::uint8_t {
  kOfflineFloods,
  kLiveLoopback,
};

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);
[[nodiscard]] inline bool is_offline(Workload workload) {
  return workload != Workload::kLiveLoopback;
}

/// The figure harnesses' light_scenario, 4 days at /16: QUIC flood
/// backscatter, botnet scans, misconfiguration noise and TCP/ICMP
/// backscatter (600 attacks/day), no research scanners. Both workloads
/// replay a prefix of it.
quicsand::telescope::ScenarioConfig light_scenario(std::uint64_t seed);

/// The offline capture holds the scenario's first this many packets
/// (about 2 days): a fixed size keeps the work per pass the same for
/// every seed.
constexpr std::uint64_t kCapturePackets = 5'000'000;

/// Research-scanner prefixes (TUM, RWTH) of the synthetic registry: the
/// classifier flags their QUIC probes, as the figure harnesses do.
std::vector<quicsand::net::Ipv4Prefix> research_prefixes();

/// What set-up produced, plus the generator's ground truth.
struct Input {
  quicsand::telescope::GroundTruth truth;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;  ///< datagram bytes, without capture framing
  quicsand::util::Timestamp last{};  ///< scenario time of the last packet
};

/// Generate the scenario's first kCapturePackets packets into a pcap
/// file at `path`.
Input write_capture(const quicsand::telescope::ScenarioConfig& config,
                    const std::string& path, Tracer& tracer);

/// A time-ordered datagram stream held in memory for the live sender:
/// one byte arena plus per-datagram offsets and scenario timestamps.
struct Stream {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> offsets;  ///< size() + 1 entries
  std::vector<quicsand::util::Timestamp> timestamps;

  [[nodiscard]] std::size_t size() const { return timestamps.size(); }
  [[nodiscard]] quicsand::net::PacketView view(std::size_t i) const {
    return {timestamps[i],
            {bytes.data() + offsets[i],
             static_cast<std::size_t>(offsets[i + 1] - offsets[i])}};
  }
};

/// The first `count` datagrams of the scenario, in generator order.
/// Fails (nullopt) when the scenario holds fewer: the replay never
/// loops, so scenario time never runs backwards.
std::optional<Input> build_stream(
    const quicsand::telescope::ScenarioConfig& config, std::size_t count,
    Stream& stream, Tracer& tracer);

/// Load the first `count` packets of a pcap capture into `stream`;
/// returns how many were loaded.
std::size_t read_capture(const std::string& path, std::size_t count,
                         Stream& stream);

/// Write `stream` as a pcap file.
void write_stream_capture(const Stream& stream, const std::string& path);

struct Score {
  double precision = 0;
  double recall = 0;  ///< over the comfortably detectable planned attacks
  std::uint64_t detected = 0;
  std::uint64_t planned = 0;
  std::uint64_t detectable = 0;
};

/// Score detected QUIC attacks with telescope::score_detections against
/// the planned attacks of the replayed prefix: those that start by
/// `replay_end` count for precision, those that also end by then (and
/// are comfortably detectable) for recall.
Score score(std::span<const quicsand::core::DetectedAttack> detected,
            const quicsand::telescope::GroundTruth& truth,
            quicsand::util::Timestamp replay_end);

/// The repository's detection floors (tests/live_e2e_test.cpp).
constexpr double kPrecisionFloor = 0.95;
constexpr double kRecallFloor = 0.9;

}  // namespace sensorbench
