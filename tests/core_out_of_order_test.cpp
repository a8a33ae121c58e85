// Out-of-order input through every sessionizing entry point. The probe
// is two records from one source, the second more than a minute older
// than the first: a session's minute slot for it lies before the open
// one. The defined result is that the record counts in the open minute
// and the session's end does not move backwards, and that every entry
// point finishes and agrees on it.
#include <gtest/gtest.h>

#include "core/online.hpp"
#include "core/parallel_pipeline.hpp"
#include "net/headers.hpp"
#include "quic/packets.hpp"
#include "util/rng.hpp"

namespace quicsand::core {
namespace {

constexpr util::Timestamp kT0 = util::kApril2021Start + 10 * util::kMinute;
constexpr util::Timestamp kLate = kT0 - 2 * util::kMinute;
const net::Ipv4Address kVictim = net::Ipv4Address::from_octets(142, 250, 0, 9);

PacketRecord response_record(util::Timestamp t) {
  PacketRecord record;
  record.timestamp = t;
  record.src = kVictim;
  record.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  record.src_port = 443;
  record.dst_port = 40000;
  record.wire_size = 1200;
  record.cls = TrafficClass::kQuicResponse;
  record.quic_version = 1;
  return record;
}

/// The session both probe records end up in.
void expect_probe_session(const Session& session) {
  EXPECT_EQ(session.source, kVictim);
  EXPECT_EQ(session.start, kT0);
  EXPECT_EQ(session.end, kT0);
  EXPECT_EQ(session.packets.count(), 2u);
  EXPECT_EQ(session.minute_slot, 0);
  EXPECT_EQ(session.minute_count, 2u);
  EXPECT_EQ(session.best_minute, 2u);
}

TEST(OutOfOrder, BuildSessionsAbsorbsOlderRecord) {
  const std::vector<PacketRecord> records{response_record(kT0),
                                          response_record(kLate)};
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_response_filter());
  ASSERT_EQ(sessions.size(), 1u);
  expect_probe_session(sessions[0]);
}

TEST(OutOfOrder, OnlineDetectorAbsorbsOlderRecord) {
  OnlineDetector detector({});
  detector.consume(response_record(kT0));
  detector.consume(response_record(kLate));
  EXPECT_EQ(detector.open_sessions(), 1u);
  detector.finish();
  EXPECT_EQ(detector.alerts_fired(), 0u);
  EXPECT_EQ(detector.sessions_evicted(), 1u);
}

TEST(OutOfOrder, OnlineAndOfflineAgreeOnLateRecordInsideAttack) {
  // 200 s of 1 pps backscatter, then the late record: the attack keeps
  // its end and its busiest minute, and gains the packet.
  std::vector<PacketRecord> records;
  for (int i = 0; i < 200; ++i) {
    records.push_back(response_record(kT0 + i * util::kSecond));
  }
  records.push_back(response_record(kLate));

  OnlineDetector detector({});
  std::vector<DetectedAttack> online;
  detector.set_on_attack(
      [&](const DetectedAttack& attack) { online.push_back(attack); });
  for (const auto& record : records) detector.consume(record);
  detector.finish();

  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_response_filter());
  const auto offline = detect_attacks(sessions, {});
  ASSERT_EQ(online.size(), 1u);
  ASSERT_EQ(offline.size(), 1u);
  for (const auto& attack : {online[0], offline[0]}) {
    EXPECT_EQ(attack.victim, kVictim);
    EXPECT_EQ(attack.start, kT0);
    EXPECT_EQ(attack.end, kT0 + 199 * util::kSecond);
    EXPECT_EQ(attack.packets.count(), 201u);
    // Slot 0 holds the packets at 0..60 s; the late one lands in slot 3.
    EXPECT_DOUBLE_EQ(attack.peak_pps.count(), 61.0 / 60.0);
  }
}

net::RawPacket response_packet(util::Timestamp t, util::Rng& rng) {
  const auto ctx = quic::HandshakeContext::random(1, rng);
  net::Ipv4Header ip;
  ip.src = kVictim;
  ip.dst = net::Ipv4Address::from_octets(44, 0, 0, 1);
  return {t, net::build_udp(ip, 443, 40000,
                            quic::build_server_initial_handshake(
                                ctx, rng, quic::CryptoFidelity::kFast))};
}

TEST(OutOfOrder, ParallelPipelineMatchesSerialOnOlderRecord) {
  PipelineOptions options;
  options.window_start = util::kApril2021Start;
  options.days = 1;
  // The serial primitives over the classified probe.
  Classifier classifier({});
  util::Rng serial_rng(5);
  std::vector<PacketRecord> records;
  for (const auto t : {kT0, kLate}) {
    const auto record = classifier.classify(response_packet(t, serial_rng));
    ASSERT_TRUE(record.has_value());
    records.push_back(*record);
  }
  const auto expected = build_sessions(records, options.session_timeout,
                                       quic_response_filter());
  ASSERT_EQ(expected.size(), 1u);
  expect_probe_session(expected[0]);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    ParallelPipeline parallel(options, shards);
    util::Rng rng(5);
    parallel.consume(response_packet(kT0, rng));
    parallel.consume(response_packet(kLate, rng));
    const auto analysis = parallel.analyze_attacks();
    EXPECT_EQ(analysis.response_sessions, expected);
    EXPECT_TRUE(analysis.quic_attacks.empty());
  }
}

}  // namespace
}  // namespace quicsand::core
