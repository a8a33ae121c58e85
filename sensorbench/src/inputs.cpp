#include "inputs.hpp"

#include <algorithm>
#include <cmath>

#include "asdb/registry.hpp"
#include "scanner/deployment.hpp"
#include "net/pcap.hpp"
#include "telescope/generator.hpp"
#include "telescope/scoring.hpp"
#include "trace.hpp"

namespace sensorbench {

namespace qs = quicsand;

namespace {

// Scales; see NOTES.md for the sizing.
constexpr int kLightDays = 4;
constexpr int kLightTelescopeBits = 16;
constexpr double kLightCommonAttacksPerDay = 600;
constexpr double kLivePacketsPerDay = 2.4e6;  // light mix, rounded down

void extend(Input& input, qs::util::Timestamp ts, std::size_t bytes) {
  input.last = ts;
  ++input.packets;
  input.bytes += bytes;
}

}  // namespace

const qs::asdb::AsRegistry& registry() {
  static const auto instance = qs::asdb::AsRegistry::synthetic({}, 2021);
  return instance;
}

const qs::scanner::Deployment& deployment() {
  static const auto instance =
      qs::scanner::Deployment::synthetic(registry(), {}, 2021);
  return instance;
}

qs::telescope::ScenarioConfig light_scenario(std::uint64_t seed) {
  auto config = qs::telescope::ScenarioConfig::april2021(kLightDays, seed);
  config.telescope = {qs::net::Ipv4Address::from_octets(44, 0, 0, 0),
                      kLightTelescopeBits};
  config.tum.passes_per_day = 0;
  config.rwth.passes_per_day = 0;
  config.attacks.common_attacks_per_day = kLightCommonAttacksPerDay;
  return config;
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const auto w : {Workload::kOfflineFloods, Workload::kLiveLoopback}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kOfflineFloods: return "offline_floods";
    case Workload::kLiveLoopback: return "live_loopback";
  }
  return "?";
}

std::vector<qs::net::Ipv4Prefix> research_prefixes() {
  const auto& reg = registry();
  return {reg.prefixes_of(qs::asdb::AsRegistry::kTumScanner).front(),
          reg.prefixes_of(qs::asdb::AsRegistry::kRwthScanner).front()};
}

Input write_capture(const qs::telescope::ScenarioConfig& config,
                    const std::string& path, Tracer& tracer) {
  Input input;
  qs::telescope::TelescopeGenerator generator(config, registry(),
                                              deployment());
  qs::net::PcapWriter writer(path);
  qs::net::RecordBatch batch;
  qs::net::RawPacket packet;  // reused: assign() keeps its capacity
  while (input.packets < kCapturePackets) {
    std::size_t n = 0;
    {
      ScopedSpan span(tracer, "generate");
      n = generator.next_batch(batch);
      span.set_items(n);
    }
    if (n == 0) break;
    for (std::size_t i = 0; i < n && input.packets < kCapturePackets; ++i) {
      const auto view = batch.view(i);
      packet.timestamp = view.timestamp;
      packet.data.assign(view.data.begin(), view.data.end());
      writer.write(packet);
      extend(input, view.timestamp, view.data.size());
    }
  }
  input.truth = generator.ground_truth();
  return input;
}

std::optional<Input> build_stream(
    const qs::telescope::ScenarioConfig& config, std::size_t count,
    Stream& stream, Tracer& tracer) {
  auto sized = config;
  sized.days = std::max(
      config.days,
      static_cast<int>(std::ceil(static_cast<double>(count) /
                                 kLivePacketsPerDay)) + 1);
  Input input;
  qs::telescope::TelescopeGenerator generator(sized, registry(),
                                              deployment());
  stream.bytes.clear();
  stream.offsets.assign(1, 0);
  stream.timestamps.clear();
  stream.timestamps.reserve(count);
  stream.offsets.reserve(count + 1);
  // Above the light mix's mean datagram size, so the arena never
  // regrows; untouched pages cost no memory.
  stream.bytes.reserve(count * 96);
  qs::net::RecordBatch batch;
  while (input.packets < count) {
    std::size_t n = 0;
    {
      ScopedSpan span(tracer, "generate");
      n = generator.next_batch(batch);
      span.set_items(n);
    }
    if (n == 0) return std::nullopt;
    for (std::size_t i = 0; i < n && input.packets < count; ++i) {
      const auto view = batch.view(i);
      stream.bytes.insert(stream.bytes.end(), view.data.begin(),
                          view.data.end());
      stream.offsets.push_back(stream.bytes.size());
      stream.timestamps.push_back(view.timestamp);
      extend(input, view.timestamp, view.data.size());
    }
  }
  input.truth = generator.ground_truth();
  return input;
}

std::size_t read_capture(const std::string& path, std::size_t count,
                         Stream& stream) {
  stream.bytes.clear();
  stream.offsets.assign(1, 0);
  stream.timestamps.clear();
  qs::net::PcapReader reader(path);
  while (stream.size() < count) {
    const auto packet = reader.next();
    if (!packet) break;
    stream.bytes.insert(stream.bytes.end(), packet->data.begin(),
                        packet->data.end());
    stream.offsets.push_back(stream.bytes.size());
    stream.timestamps.push_back(packet->timestamp);
  }
  return stream.size();
}

void write_stream_capture(const Stream& stream, const std::string& path) {
  qs::net::PcapWriter writer(path);
  qs::net::RawPacket packet;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto view = stream.view(i);
    packet.timestamp = view.timestamp;
    packet.data.assign(view.data.begin(), view.data.end());
    writer.write(packet);
  }
}

Score score(std::span<const qs::core::DetectedAttack> detected,
            const qs::telescope::GroundTruth& truth,
            qs::util::Timestamp replay_end) {
  const qs::core::DosThresholds thresholds;
  std::vector<const qs::telescope::PlannedAttack*> planned;
  std::vector<const qs::telescope::PlannedAttack*> detectable;
  for (const auto* attack : truth.quic_attacks()) {
    if (attack->start > replay_end) continue;
    planned.push_back(attack);
    if (attack->start + attack->duration > replay_end) continue;
    if (qs::telescope::comfortably_detectable(*attack, thresholds)) {
      detectable.push_back(attack);
    }
  }
  const auto all = qs::telescope::score_detections(detected, planned);
  const auto strong = qs::telescope::score_detections(detected, detectable);
  Score out;
  out.precision = all.precision();
  out.recall = strong.recall();
  out.detected = all.detected;
  out.planned = all.planned;
  out.detectable = strong.planned;
  return out;
}

}  // namespace sensorbench
