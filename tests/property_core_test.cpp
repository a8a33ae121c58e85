// Property tests for the analysis pipeline: sessionization invariants on
// random record streams, detector monotonicity in the threshold weight,
// and correlator consistency against the raw attack intervals.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <unordered_set>

#include "core/correlate.hpp"
#include "core/dos.hpp"
#include "core/sessions.hpp"
#include "util/rng.hpp"
#include "util/sharded_counter.hpp"

namespace quicsand::core {
namespace {

/// Random stream of QUIC request records from a pool of sources, sorted
/// by time, as the classifier would produce them.
util::Duration random_duration(util::Rng& rng, util::Duration bound) {
  return util::Duration{static_cast<std::int64_t>(
      rng.uniform(static_cast<std::uint64_t>(bound.count())))};
}

std::vector<PacketRecord> random_records(util::Rng& rng,
                                         std::size_t packets,
                                         std::size_t sources) {
  std::vector<PacketRecord> records;
  records.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    PacketRecord record;
    record.timestamp =
        util::kApril2021Start + random_duration(rng, 6 * util::kHour);
    record.src = net::Ipv4Address(
        1000 + static_cast<std::uint32_t>(rng.uniform(sources)));
    record.dst = net::Ipv4Address(
        static_cast<std::uint32_t>(0x2c000000 + rng.uniform(1 << 16)));
    record.src_port = static_cast<std::uint16_t>(rng.uniform(65536));
    record.dst_port = 443;
    record.wire_size = 1200;
    record.cls = TrafficClass::kQuicRequest;
    record.quic_version = 1;
    records.push_back(record);
  }
  std::sort(records.begin(), records.end(),
            [](const PacketRecord& a, const PacketRecord& b) {
              return a.timestamp < b.timestamp;
            });
  return records;
}

/// The per-minute vector sessions kept before they tracked only the open
/// minute: packets of `session`'s source inside [start, end] per slot
/// (i·60s, (i+1)·60s] since the start, the start packet in slot 0. The
/// oracle for the running peak state on time-ordered input.
std::vector<std::uint32_t> minute_counts_of(
    const Session& session, std::span<const PacketRecord> records) {
  std::vector<std::uint32_t> counts;
  for (const auto& record : records) {
    if (record.src != session.source || record.timestamp < session.start ||
        record.timestamp > session.end) {
      continue;
    }
    const auto elapsed = record.timestamp - session.start;
    const auto slot =
        elapsed == util::Duration{}
            ? std::size_t{0}
            : static_cast<std::size_t>((elapsed - util::kMicrosecond) /
                                       util::kMinute);
    if (counts.size() <= slot) counts.resize(slot + 1, 0);
    ++counts[slot];
  }
  return counts;
}

/// Gives a hand-built session the peak state absorb_record reaches when
/// its minutes hold `counts` packets.
void set_minute_counts(Session& session,
                       const std::vector<std::uint32_t>& counts) {
  session.minute_slot = static_cast<std::int64_t>(counts.size()) - 1;
  session.minute_count = counts.back();
  session.best_minute = *std::max_element(counts.begin(), counts.end());
}

TEST(SessionProperty, PacketsAreConserved) {
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const auto records = random_records(rng, 2000, 40);
    for (const auto timeout :
         {util::kMinute, 5 * util::kMinute, util::kHour}) {
      const auto sessions =
          build_sessions(records, timeout, quic_request_filter());
      std::uint64_t total = 0;
      for (const auto& session : sessions) total += session.packets.count();
      EXPECT_EQ(total, records.size());
    }
  }
}

TEST(SessionProperty, SameSourceSessionsSeparatedByMoreThanTimeout) {
  util::Rng rng(43);
  const auto records = random_records(rng, 3000, 25);
  const auto timeout = 2 * util::kMinute;
  const auto sessions =
      build_sessions(records, timeout, quic_request_filter());
  std::map<std::uint32_t, std::vector<const Session*>> by_source;
  for (const auto& session : sessions) {
    by_source[session.source.value()].push_back(&session);
  }
  for (auto& [source, list] : by_source) {
    std::sort(list.begin(), list.end(),
              [](const Session* a, const Session* b) {
                return a->start < b->start;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      EXPECT_GT(list[i]->start - list[i - 1]->end, timeout);
    }
  }
}

TEST(SessionProperty, SessionBoundsContainAllMinuteBins) {
  util::Rng rng(47);
  const auto records = random_records(rng, 1500, 30);
  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  for (const auto& session : sessions) {
    EXPECT_LE(session.start, session.end);
    const auto counts = minute_counts_of(session, records);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
              session.packets.count());
    // The open slot must match the duration: slots are
    // (i*60s, (i+1)*60s] with the start packet in slot 0, so a duration
    // of exactly k minutes still ends in slot k-1.
    const auto expected_slots =
        session.duration() == util::Duration{}
            ? 1u
            : static_cast<std::size_t>((session.duration() -
                                        util::kMicrosecond) /
                                       util::kMinute) +
                  1;
    EXPECT_EQ(counts.size(), expected_slots);
    EXPECT_EQ(session.minute_slot,
              static_cast<std::int64_t>(expected_slots) - 1);
    EXPECT_EQ(session.minute_count, counts.back());
    EXPECT_EQ(session.best_minute,
              *std::max_element(counts.begin(), counts.end()));
  }
}

TEST(SessionRegression, MinuteBoundaryPacketStaysInClosingMinute) {
  // A packet exactly 60 s after the session start has one minute of
  // elapsed activity: it must land in minute slot 0, not open a phantom
  // trailing slot whose near-empty count would let a 1 µs timing
  // difference flip peak_pps() across the DoS threshold.
  std::vector<PacketRecord> records;
  for (int i = 0; i < 30; ++i) {
    PacketRecord record;
    record.timestamp =
        util::kApril2021Start + i * 2 * util::kSecond;
    record.src = net::Ipv4Address(1);
    record.dst = net::Ipv4Address(2);
    record.dst_port = 443;
    record.wire_size = 100;
    record.cls = TrafficClass::kQuicRequest;
    records.push_back(record);
  }
  PacketRecord boundary = records.back();
  boundary.timestamp = util::kApril2021Start + util::kMinute;  // start + 60 s
  records.push_back(boundary);

  const auto sessions =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(sessions.size(), 1u);
  const Session& session = sessions.front();
  EXPECT_EQ(session.duration(), util::kMinute);
  EXPECT_EQ(session.minute_slot, 0);
  EXPECT_EQ(session.minute_count, 31u);
  EXPECT_EQ(session.best_minute, 31u);
  EXPECT_DOUBLE_EQ(session.peak_pps().count(), 31.0 / 60.0);

  // One microsecond past the boundary genuinely starts the next minute.
  PacketRecord past = boundary;
  past.timestamp += util::kMicrosecond;
  records.push_back(past);
  const auto extended =
      build_sessions(records, 5 * util::kMinute, quic_request_filter());
  ASSERT_EQ(extended.size(), 1u);
  EXPECT_EQ(extended.front().minute_slot, 1);
  EXPECT_EQ(extended.front().minute_count, 1u);
  EXPECT_EQ(extended.front().best_minute, 31u);
  EXPECT_DOUBLE_EQ(extended.front().peak_pps().count(), 31.0 / 60.0);
}

TEST(SessionProperty, RunningPeakMatchesPerMinuteVector) {
  util::Rng rng(83);
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<PacketRecord> records;
    const auto start =
        util::kApril2021Start + random_duration(rng, util::kHour);
    auto t = start;
    const auto packets = 1 + rng.uniform(400);
    for (std::uint64_t i = 0; i < packets; ++i) {
      PacketRecord record;
      record.timestamp = t;
      record.src = net::Ipv4Address(7);
      records.push_back(record);
      // Next gap: none, 1 µs, exactly to the next minute boundary since
      // the start, or up to three minutes.
      switch (rng.uniform(4)) {
        case 0:
          break;
        case 1:
          t += util::kMicrosecond;
          break;
        case 2:
          t = start + ((t - start) / util::kMinute + 1) * util::kMinute;
          break;
        default:
          t += random_duration(rng, 3 * util::kMinute);
      }
    }
    Session session;
    session.source = records.front().src;
    session.start = start;
    session.end = start;
    for (const auto& record : records) absorb_record(session, record);

    const auto counts = minute_counts_of(session, records);
    ASSERT_EQ(std::accumulate(counts.begin(), counts.end(), std::uint64_t{0}),
              packets);
    EXPECT_EQ(session.best_minute,
              *std::max_element(counts.begin(), counts.end()));
    EXPECT_EQ(session.minute_slot,
              static_cast<std::int64_t>(counts.size()) - 1);
    EXPECT_EQ(session.minute_count, counts.back());
  }
}

TEST(FlatSetProperty, MatchesUnorderedSetOracle) {
  util::Rng rng(79);
  // Keys whose hash shares its low ten bits probe one chain at every
  // capacity up to 1024 slots, starting in the last slot so the chain
  // wraps to the first.
  std::vector<std::uint64_t> colliding;
  for (std::uint64_t key = 1; colliding.size() < 64; ++key) {
    if ((util::mix64(key) & 1023) == 1023) colliding.push_back(key);
  }
  const std::vector<std::function<std::uint64_t()>> sources{
      [&] { return rng.next(); },
      [&] { return rng.uniform(1500); },  // duplicates and key 0
      [&] { return colliding[rng.uniform(colliding.size())]; },
      [&] { return rng.uniform(3) == 0 ? 0 : rng.next() >> 40; },
  };
  for (const auto& draw : sources) {
    FlatSet set;
    std::unordered_set<std::uint64_t> oracle;
    std::vector<std::uint64_t> order;
    for (int i = 0; i < 4000; ++i) {
      const auto key = draw();
      const bool inserted = oracle.insert(key).second;
      ASSERT_EQ(set.insert(key), inserted);
      ASSERT_EQ(set.size(), oracle.size());
      if (inserted) order.push_back(key);
      // Around every growth boundary, the whole contents.
      const auto size = set.size();
      if (std::has_single_bit(size) || std::has_single_bit(size - 1)) {
        for (const auto present : oracle) ASSERT_TRUE(set.contains(present));
        for (int probe = 0; probe < 32; ++probe) {
          const auto absent = rng.next();
          ASSERT_EQ(set.contains(absent), oracle.contains(absent));
        }
      }
    }

    // Equality ignores insertion order, and sees one key's difference.
    std::shuffle(order.begin(), order.end(), rng);
    FlatSet reordered;
    for (const auto key : order) reordered.insert(key);
    EXPECT_EQ(reordered, set);
    FlatSet missing_one;
    for (std::size_t i = 1; i < order.size(); ++i) missing_one.insert(order[i]);
    EXPECT_NE(missing_one, set);
    std::uint64_t outsider = 1;
    while (oracle.contains(outsider)) ++outsider;
    missing_one.insert(outsider);
    EXPECT_EQ(missing_one.size(), set.size());
    EXPECT_NE(missing_one, set);
  }
  FlatSet zero;
  zero.insert(0);
  FlatSet one;
  one.insert(1);
  EXPECT_EQ(zero.size(), 1u);
  EXPECT_TRUE(zero.contains(0));
  EXPECT_FALSE(one.contains(0));
  EXPECT_NE(zero, one);
  EXPECT_NE(zero, FlatSet{});
}

TEST(SessionProperty, ShardPartitionedSessionizationMergesToWhole) {
  // Sessionization is source-local: building sessions over a
  // shard-partitioned record stream and merging must equal building them
  // over the whole stream — the invariant the ParallelPipeline rests on.
  util::Rng rng(71);
  for (int trial = 0; trial < 5; ++trial) {
    const auto records = random_records(rng, 2000, 50);
    const auto whole =
        build_sessions(records, 3 * util::kMinute, quic_request_filter());
    for (const std::size_t shards : {2u, 4u, 7u}) {
      std::vector<std::vector<PacketRecord>> parts(shards);
      for (const auto& record : records) {
        parts[util::shard_of(record.src.value(), shards)].push_back(record);
      }
      std::vector<std::vector<Session>> sessions(shards);
      for (std::size_t s = 0; s < shards; ++s) {
        sessions[s] = build_sessions(parts[s], 3 * util::kMinute,
                                     quic_request_filter());
        // A shard filter over the whole stream reads the same records.
        auto filter = quic_request_filter();
        filter.shard = s;
        filter.shards = shards;
        EXPECT_EQ(build_sessions(records, 3 * util::kMinute, filter),
                  sessions[s]);
      }
      const auto merged = merge_sessions(std::move(sessions));
      EXPECT_EQ(merged.sessions, whole);
      // The index maps must address every merged slot exactly once.
      std::vector<bool> seen(merged.sessions.size(), false);
      for (const auto& part : merged.global_index) {
        for (const auto index : part) {
          ASSERT_LT(index, seen.size());
          EXPECT_FALSE(seen[index]);
          seen[index] = true;
        }
      }
    }
  }
}

TEST(SessionProperty, ShardedGapProfilesMergeToWholeSweep) {
  util::Rng rng(73);
  const auto records = random_records(rng, 2500, 40);
  std::vector<util::Duration> timeouts;
  for (const int minutes : {1, 3, 10, 45}) {
    timeouts.push_back(minutes * util::kMinute);
  }
  const auto expected =
      timeout_sweep(records, timeouts, quic_request_filter());
  for (const std::size_t shards : {2u, 4u, 7u}) {
    std::vector<std::vector<PacketRecord>> parts(shards);
    for (const auto& record : records) {
      parts[util::shard_of(record.src.value(), shards)].push_back(record);
    }
    GapProfile merged;
    for (auto& part : parts) {
      merge_gap_profiles(merged,
                         collect_gap_profile(part, quic_request_filter()));
    }
    EXPECT_EQ(sweep_counts(std::move(merged), timeouts), expected);
  }
}

TEST(SessionProperty, SweepMatchesBuildSessionsOnRandomTimeouts) {
  util::Rng rng(53);
  const auto records = random_records(rng, 2500, 35);
  std::vector<util::Duration> timeouts;
  for (int i = 0; i < 12; ++i) {
    timeouts.push_back(rng.uniform_range(1, 90) * util::kMinute);
  }
  const auto sweep = timeout_sweep(records, timeouts, quic_request_filter());
  for (const auto& [timeout, count] : sweep) {
    EXPECT_EQ(count,
              build_sessions(records, timeout, quic_request_filter()).size());
  }
}

TEST(DosProperty, DetectionIsMonotoneInWeight) {
  util::Rng rng(59);
  // Build sessions with a wide spread of sizes.
  std::vector<Session> sessions;
  for (int i = 0; i < 200; ++i) {
    Session session;
    session.source = net::Ipv4Address(static_cast<std::uint32_t>(i));
    session.start = util::kApril2021Start;
    const auto minutes = 1 + rng.uniform(120);
    session.end = session.start + minutes * util::kMinute;
    session.packets = PacketCount{1 + rng.uniform(2000)};
    std::vector<std::uint32_t> counts(minutes + 1, 0);
    for (std::uint64_t p = 0; p < session.packets.count(); ++p) {
      ++counts[rng.uniform(minutes + 1)];
    }
    set_minute_counts(session, counts);
    sessions.push_back(std::move(session));
  }
  std::size_t previous = sessions.size() + 1;
  std::set<std::uint32_t> previous_set;
  bool first = true;
  for (const double w : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    const auto attacks =
        detect_attacks(sessions, DosThresholds{}.weighted(w));
    std::set<std::uint32_t> current;
    for (const auto& attack : attacks) current.insert(attack.victim.value());
    EXPECT_LE(attacks.size(), previous);
    if (!first) {
      // Stricter thresholds select a subset.
      for (const auto v : current) EXPECT_TRUE(previous_set.contains(v));
    }
    previous = attacks.size();
    previous_set = std::move(current);
    first = false;
  }
}

TEST(DosProperty, DetectedPlusExcludedCoverAllSessions) {
  util::Rng rng(61);
  std::vector<Session> sessions;
  for (int i = 0; i < 150; ++i) {
    Session session;
    session.source = net::Ipv4Address(static_cast<std::uint32_t>(i));
    session.start = util::kApril2021Start;
    const auto minutes = 1 + rng.uniform(30);
    session.end = session.start + minutes * util::kMinute;
    session.packets = PacketCount{1 + rng.uniform(500)};
    std::vector<std::uint32_t> counts(minutes + 1, 0);
    counts[0] = static_cast<std::uint32_t>(session.packets.count());
    set_minute_counts(session, counts);
    sessions.push_back(std::move(session));
  }
  const auto attacks = detect_attacks(sessions, {});
  const auto excluded = summarize_excluded(sessions, {});
  EXPECT_EQ(attacks.size() + excluded.count, sessions.size());
}

DetectedAttack make_attack(std::uint32_t victim, util::Timestamp start,
                           util::Duration duration) {
  DetectedAttack attack;
  attack.victim = net::Ipv4Address(victim);
  attack.start = start;
  attack.end = start + duration;
  attack.packets = PacketCount{100};
  attack.peak_pps = Pps{1.0};
  return attack;
}

TEST(CorrelatorProperty, RandomSchedulesAreConsistent) {
  util::Rng rng(67);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<DetectedAttack> quic, common;
    for (int i = 0; i < 40; ++i) {
      quic.push_back(make_attack(
          static_cast<std::uint32_t>(rng.uniform(12)),
          util::kApril2021Start + random_duration(rng, util::kDay),
          util::kMinute + random_duration(rng, 2 * util::kHour)));
    }
    for (int i = 0; i < 30; ++i) {
      common.push_back(make_attack(
          static_cast<std::uint32_t>(rng.uniform(12)),
          util::kApril2021Start + random_duration(rng, util::kDay),
          util::kMinute + random_duration(rng, 3 * util::kHour)));
    }
    const auto report = correlate_attacks(quic, common);
    EXPECT_EQ(report.total(), quic.size());
    EXPECT_NEAR(report.share(Relation::kConcurrent) +
                    report.share(Relation::kSequential) +
                    report.share(Relation::kIsolated),
                1.0, 1e-9);
    for (const auto& correlation : report.per_attack) {
      const auto& attack = quic[correlation.quic_attack_index];
      // Re-derive the relation directly from the intervals.
      bool any_same_victim = false;
      bool any_overlap = false;
      for (const auto& other : common) {
        if (other.victim != attack.victim) continue;
        any_same_victim = true;
        if (attack.overlaps(other, util::kSecond)) any_overlap = true;
      }
      switch (correlation.relation) {
        case Relation::kConcurrent:
          EXPECT_TRUE(any_overlap);
          EXPECT_GT(correlation.overlap_share, 0.0);
          EXPECT_LE(correlation.overlap_share, 1.0);
          break;
        case Relation::kSequential:
          EXPECT_TRUE(any_same_victim);
          EXPECT_GE(correlation.gap, util::Duration{});
          break;
        case Relation::kIsolated:
          EXPECT_FALSE(any_same_victim);
          break;
      }
    }
  }
}

}  // namespace
}  // namespace quicsand::core
