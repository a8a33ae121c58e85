#include <gtest/gtest.h>

#include <algorithm>

#include "core/correlate.hpp"
#include "core/dos.hpp"

namespace quicsand::core {
namespace {

constexpr util::Timestamp kT0 = util::kApril2021Start;

/// Synthetic session: `packets` spread uniformly over `duration`.
Session make_session(net::Ipv4Address source, util::Timestamp start,
                     util::Duration duration, std::uint64_t packets) {
  Session session;
  session.source = source;
  session.start = start;
  session.end = start + duration;
  session.packets = PacketCount{packets};
  const auto minutes = static_cast<std::size_t>(duration / util::kMinute) + 1;
  std::vector<std::uint32_t> minute_counts(minutes, 0);
  for (std::uint64_t i = 0; i < packets; ++i) {
    minute_counts[static_cast<std::size_t>(i * minutes / packets)]++;
  }
  session.minute_slot = static_cast<std::int64_t>(minutes - 1);
  session.minute_count = minute_counts.back();
  session.best_minute =
      *std::max_element(minute_counts.begin(), minute_counts.end());
  return session;
}

net::Ipv4Address victim(int i) {
  return net::Ipv4Address::from_octets(142, 250, 0,
                                       static_cast<std::uint8_t>(i));
}

TEST(DosDetector, AppliesAllThreeThresholds) {
  std::vector<Session> sessions;
  // Attack: 300 packets over 5 minutes -> 1 pps peak.
  sessions.push_back(make_session(victim(1), kT0, 5 * util::kMinute, 300));
  // Too few packets.
  sessions.push_back(make_session(victim(2), kT0, 5 * util::kMinute, 20));
  // Too short.
  sessions.push_back(make_session(victim(3), kT0, 30 * util::kSecond, 300));
  // Too slow: 26 packets over 50 minutes -> ~0.01 pps.
  sessions.push_back(make_session(victim(4), kT0, 50 * util::kMinute, 26));
  const auto attacks = detect_attacks(sessions, {});
  ASSERT_EQ(attacks.size(), 1u);
  EXPECT_EQ(attacks[0].victim, victim(1));
  EXPECT_EQ(attacks[0].packets.count(), 300u);
  EXPECT_EQ(attacks[0].session_index, 0u);
  EXPECT_GT(attacks[0].peak_pps.count(), 0.5);
}

TEST(DosDetector, ThresholdsAreStrict) {
  std::vector<Session> sessions;
  // Exactly 25 packets (not > 25) must not qualify.
  sessions.push_back(make_session(victim(1), kT0, 5 * util::kMinute, 25));
  EXPECT_TRUE(detect_attacks(sessions, {}).empty());
  sessions.clear();
  // Exactly 60 seconds must not qualify (> 60 required).
  sessions.push_back(make_session(victim(1), kT0, 60 * util::kSecond, 300));
  EXPECT_TRUE(detect_attacks(sessions, {}).empty());
}

TEST(DosDetector, WeightScalesThresholds) {
  std::vector<Session> sessions;
  sessions.push_back(make_session(victim(1), kT0, 5 * util::kMinute, 300));
  // w=10: needs >250 packets, >600 s, >5 pps. 300 pkts/5 min fails.
  EXPECT_TRUE(detect_attacks(sessions, DosThresholds{}.weighted(10)).empty());
  // w=0.1 is more permissive than default.
  sessions.push_back(make_session(victim(2), kT0, 2 * util::kMinute, 15));
  const auto relaxed =
      detect_attacks(sessions, DosThresholds{}.weighted(0.1));
  EXPECT_EQ(relaxed.size(), 2u);
}

TEST(DosDetector, ExcludedSummaryMatchesAppendixBShape) {
  std::vector<Session> sessions;
  sessions.push_back(make_session(victim(1), kT0, 5 * util::kMinute, 300));
  for (int i = 2; i < 12; ++i) {
    sessions.push_back(
        make_session(victim(i), kT0, 7 * util::kSecond, 11));
  }
  const auto summary = summarize_excluded(sessions, {});
  EXPECT_EQ(summary.count, 10u);
  EXPECT_DOUBLE_EQ(summary.median_packets, 11.0);
  EXPECT_DOUBLE_EQ(summary.median_duration_s, 7.0);
  EXPECT_LT(summary.median_peak_pps, 0.5);
}

DetectedAttack attack(net::Ipv4Address v, util::Timestamp start,
                      util::Duration duration) {
  DetectedAttack a;
  a.victim = v;
  a.start = start;
  a.end = start + duration;
  a.packets = PacketCount{100};
  a.peak_pps = Pps{1.0};
  return a;
}

TEST(Correlator, ClassifiesAllThreeRelations) {
  std::vector<DetectedAttack> quic = {
      attack(victim(1), kT0, 10 * util::kMinute),       // concurrent
      attack(victim(2), kT0, 10 * util::kMinute),       // sequential
      attack(victim(3), kT0, 10 * util::kMinute),       // isolated
  };
  std::vector<DetectedAttack> common = {
      attack(victim(1), kT0 + util::kMinute, 30 * util::kMinute),
      attack(victim(2), kT0 + util::kHour, 30 * util::kMinute),
  };
  const auto report = correlate_attacks(quic, common);
  EXPECT_EQ(report.concurrent, 1u);
  EXPECT_EQ(report.sequential, 1u);
  EXPECT_EQ(report.isolated, 1u);
  EXPECT_EQ(report.total(), 3u);
  EXPECT_DOUBLE_EQ(report.share(Relation::kConcurrent), 1.0 / 3);
  ASSERT_EQ(report.per_attack.size(), 3u);
  EXPECT_EQ(report.per_attack[0].relation, Relation::kConcurrent);
  // QUIC attack runs t0..t0+10m, common t0+1m..t0+31m: overlap 9/10.
  EXPECT_NEAR(report.per_attack[0].overlap_share, 0.9, 0.001);
  EXPECT_EQ(report.per_attack[1].relation, Relation::kSequential);
  EXPECT_EQ(report.per_attack[1].gap, 50 * util::kMinute);
}

TEST(Correlator, OneSecondOverlapRule) {
  std::vector<DetectedAttack> quic = {
      attack(victim(1), kT0, util::kMinute)};
  // Ends exactly when the QUIC attack starts: zero overlap.
  std::vector<DetectedAttack> common = {
      attack(victim(1), kT0 - util::kMinute, util::kMinute)};
  auto report = correlate_attacks(quic, common);
  EXPECT_EQ(report.sequential, 1u);
  EXPECT_EQ(report.per_attack[0].gap, util::Duration{});
  // One second of overlap flips it to concurrent.
  common[0].end += util::kSecond;
  report = correlate_attacks(quic, common);
  EXPECT_EQ(report.concurrent, 1u);
}

TEST(Correlator, OverlapUnionAcrossMultipleCommonAttacks) {
  std::vector<DetectedAttack> quic = {
      attack(victim(1), kT0, 10 * util::kMinute)};
  // Two common attacks covering [0,4) and [2,6) minutes: union 6 minutes.
  std::vector<DetectedAttack> common = {
      attack(victim(1), kT0, 4 * util::kMinute),
      attack(victim(1), kT0 + 2 * util::kMinute, 4 * util::kMinute),
  };
  const auto report = correlate_attacks(quic, common);
  ASSERT_EQ(report.concurrent, 1u);
  EXPECT_NEAR(report.per_attack[0].overlap_share, 0.6, 0.001);
}

TEST(Correlator, FullOverlapCapsAtOne) {
  std::vector<DetectedAttack> quic = {
      attack(victim(1), kT0 + util::kMinute, util::kMinute)};
  std::vector<DetectedAttack> common = {
      attack(victim(1), kT0, util::kHour)};
  const auto report = correlate_attacks(quic, common);
  ASSERT_EQ(report.concurrent, 1u);
  EXPECT_DOUBLE_EQ(report.per_attack[0].overlap_share, 1.0);
  const auto shares = report.overlap_shares();
  ASSERT_EQ(shares.size(), 1u);
  EXPECT_DOUBLE_EQ(shares[0], 1.0);
}

TEST(Correlator, SequentialGapPicksNearest) {
  std::vector<DetectedAttack> quic = {
      attack(victim(1), kT0 + 10 * util::kHour, util::kMinute)};
  std::vector<DetectedAttack> common = {
      attack(victim(1), kT0, util::kMinute),                  // far before
      attack(victim(1), kT0 + 12 * util::kHour, util::kMinute),  // near after
  };
  const auto report = correlate_attacks(quic, common);
  ASSERT_EQ(report.sequential, 1u);
  EXPECT_EQ(report.per_attack[0].gap,
            (2 * util::kHour) - (util::kMinute));
  const auto gaps = report.gaps_seconds();
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_NEAR(gaps[0], util::to_seconds((2 * util::kHour) - (util::kMinute)),
              0.01);
}

TEST(Correlator, EmptyInputs) {
  const auto report = correlate_attacks({}, {});
  EXPECT_EQ(report.total(), 0u);
  EXPECT_DOUBLE_EQ(report.share(Relation::kConcurrent), 0.0);
}

TEST(Correlator, VictimTimelineMergesAndSorts) {
  std::vector<DetectedAttack> quic = {
      attack(victim(1), kT0 + util::kHour, util::kMinute),
      attack(victim(2), kT0, util::kMinute),
      attack(victim(1), kT0 + 3 * util::kHour, util::kMinute),
  };
  std::vector<DetectedAttack> common = {
      attack(victim(1), kT0, 2 * util::kHour)};
  const auto timeline = victim_timeline(victim(1), quic, common);
  ASSERT_EQ(timeline.size(), 3u);
  EXPECT_FALSE(timeline[0].is_quic);
  EXPECT_TRUE(timeline[1].is_quic);
  EXPECT_TRUE(timeline[2].is_quic);
  EXPECT_LE(timeline[0].start, timeline[1].start);
}

TEST(Correlator, RelationNames) {
  EXPECT_STREQ(relation_name(Relation::kConcurrent), "concurrent");
  EXPECT_STREQ(relation_name(Relation::kSequential), "sequential");
  EXPECT_STREQ(relation_name(Relation::kIsolated), "isolated");
}

}  // namespace
}  // namespace quicsand::core
