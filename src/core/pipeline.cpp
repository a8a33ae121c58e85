#include "core/pipeline.hpp"

#include "obs/metrics.hpp"

namespace quicsand::core {

void publish_classifier_stats(const ClassifierStats& stats,
                              obs::MetricsRegistry& metrics) {
  metrics.gauge("classifier.total", "decodable+undecodable packets seen")
      .set(static_cast<std::int64_t>(stats.total));
  metrics.gauge("classifier.undecodable", "not parseable as IPv4/UDP/TCP/ICMP")
      .set(static_cast<std::int64_t>(stats.undecodable));
  metrics
      .gauge("classifier.quic_port_rejects",
             "UDP port 443 that failed QUIC dissection")
      .set(static_cast<std::int64_t>(stats.quic_port_rejects));
  metrics.gauge("classifier.research", "research-scanner QUIC packets")
      .set(static_cast<std::int64_t>(stats.research));
  for (std::size_t c = 0; c < kTrafficClassCount; ++c) {
    metrics
        .gauge(std::string("classifier.class.") +
               traffic_class_name(static_cast<TrafficClass>(c)))
        .set(static_cast<std::int64_t>(stats.by_class[c]));
  }
}

}  // namespace quicsand::core
