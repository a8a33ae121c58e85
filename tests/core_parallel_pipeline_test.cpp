// Oracle harness: at every shard count, including non-powers of two,
// ParallelPipeline must reproduce the serial primitives it is built from
// — a bare Classifier + bin_hourly + keep_for_analysis loop for the
// classifier stats, hourly series and record stream, and build_sessions,
// detect_attacks and timeout_sweep over that record stream for the
// session lists, attacks and Figure 4 sweep. A few oracle totals are
// pinned so the oracle itself cannot drift unnoticed. Also exercises the
// ThreadPool and ShardedCounter primitives the pipeline is built on (run
// these under the `tsan` preset).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <iterator>
#include <limits>
#include <numeric>

#include "asdb/registry.hpp"
#include "core/parallel_pipeline.hpp"
#include "scanner/deployment.hpp"
#include "telescope/generator.hpp"
#include "util/sharded_counter.hpp"
#include "util/thread_pool.hpp"

namespace quicsand::core {
namespace {

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(hits.size(), [&](std::size_t index, std::size_t worker) {
    ASSERT_LT(worker, pool.size());
    ++hits[index];
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&total](std::size_t) { ++total; });
    }
    pool.wait_idle();
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPoolTest, ZeroThreadsBecomesOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> ran{0};
  pool.submit([&ran](std::size_t worker) {
    EXPECT_EQ(worker, 0u);
    ++ran;
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ShardedCounterTest, MergedSumsAllRows) {
  util::ShardedCounter counter(3, 5);
  counter.add(0, 1);
  counter.add(1, 1, 4);
  counter.add(2, 1);
  counter.add(2, 4, 7);
  const auto merged = counter.merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[1], 6u);
  EXPECT_EQ(merged[4], 7u);
  EXPECT_EQ(merged[0] + merged[2] + merged[3], 0u);
}

TEST(ShardedCounterTest, ShardOfIsDeterministicAndInRange) {
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    for (std::uint32_t key = 0; key < 1000; ++key) {
      const auto s = util::shard_of(key, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, util::shard_of(key, shards));
    }
  }
  // The mix spreads consecutive IPs across shards rather than clumping.
  std::vector<std::size_t> counts(7, 0);
  for (std::uint32_t key = 0; key < 7000; ++key) {
    ++counts[util::shard_of(key, 7)];
  }
  for (const auto count : counts) EXPECT_GT(count, 500u);
}

const asdb::AsRegistry& test_registry() {
  static const auto instance = asdb::AsRegistry::synthetic({}, 2021);
  return instance;
}

const scanner::Deployment& test_deployment() {
  static const auto instance =
      scanner::Deployment::synthetic(test_registry(), {}, 2021);
  return instance;
}

struct TestScenario {
  std::vector<net::RawPacket> packets;
  PipelineOptions options;
};

/// One-day, small-telescope version of the paper's mixture, with the
/// research scanners kept in so the research hourly series and the
/// sanitization paths are exercised too.
const TestScenario& scenario() {
  static const TestScenario instance = [] {
    auto config = telescope::ScenarioConfig::april2021(1, 97);
    config.telescope = {net::Ipv4Address::from_octets(44, 0, 0, 0), 20};
    config.attacks.quic_attacks_per_day = 60;
    config.attacks.common_attacks_per_day = 150;
    config.botnet.sessions_per_day = 300;
    config.misconfig.sessions_per_day = 200;

    TestScenario scenario;
    scenario.options.window_start = config.start;
    scenario.options.days = config.days;
    scenario.options.research_prefixes.push_back(
        test_registry().prefixes_of(asdb::AsRegistry::kTumScanner).front());
    scenario.options.research_prefixes.push_back(
        test_registry().prefixes_of(asdb::AsRegistry::kRwthScanner).front());

    telescope::TelescopeGenerator generator(config, test_registry(),
                                            test_deployment());
    generator.generate([&](const net::RawPacket& packet) {
      scenario.packets.push_back(packet);
    });
    return scenario;
  }();
  return instance;
}

/// The serial computation ParallelPipeline distributes, written out
/// with the primitives directly.
struct Oracle {
  ClassifierStats stats;
  HourlySeries hourly;
  std::vector<PacketRecord> records;

  [[nodiscard]] std::vector<Session> sessions(util::Duration timeout,
                                              const RecordFilter& filter) const {
    return build_sessions(records, timeout, filter);
  }
};

const Oracle& oracle() {
  static const Oracle instance = [] {
    const auto& options = scenario().options;
    Classifier classifier(ClassifierConfig{options.research_prefixes});
    Oracle oracle;
    const auto hours = static_cast<std::size_t>(options.days) * 24;
    for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
      oracle.hourly.of(static_cast<HourlySlot>(slot)).assign(hours, 0);
    }
    for (const auto& packet : scenario().packets) {
      const auto record = classifier.classify(packet);
      if (!record) continue;
      bin_hourly(*record, options.window_start, hours,
                 [&](HourlySlot slot, std::size_t hour) {
                   ++oracle.hourly.of(slot)[hour];
                 });
      if (keep_for_analysis(*record)) oracle.records.push_back(*record);
    }
    oracle.stats = classifier.stats();
    return oracle;
  }();
  return instance;
}

/// Fed packet by packet, so consume()'s pending batch carries the
/// stream into the pool in many kBatchSize batches.
std::unique_ptr<ParallelPipeline> parallel_pipeline(std::size_t shards) {
  auto pipeline =
      std::make_unique<ParallelPipeline>(scenario().options, shards);
  for (const auto& packet : scenario().packets) pipeline->consume(packet);
  pipeline->finish();
  return pipeline;
}

void expect_stats_equal(const ClassifierStats& a, const ClassifierStats& b) {
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.undecodable, b.undecodable);
  EXPECT_EQ(a.by_class, b.by_class);
  EXPECT_EQ(a.research, b.research);
  EXPECT_EQ(a.research_requests, b.research_requests);
  EXPECT_EQ(a.quic_port_rejects, b.quic_port_rejects);
}

constexpr std::size_t kShardCounts[] = {1, 2, 4, 7};

TEST(ParallelPipelineDifferentialTest, OracleTotalsArePinned) {
  // Golden totals of the oracle on the fixed-seed scenario: a change to
  // the generator, classifier, sessionizer or detector shows up here
  // even when ParallelPipeline moves with it.
  const auto& expected = oracle();
  const auto timeout = scenario().options.session_timeout;
  const auto response = expected.sessions(timeout, quic_response_filter());
  const auto common = expected.sessions(timeout, common_backscatter_filter());
  EXPECT_EQ(expected.stats.total, 746548u);
  EXPECT_EQ(expected.stats.research, 414u);
  EXPECT_EQ(expected.records.size(), 746134u);
  EXPECT_EQ(response.size(), 264u);
  EXPECT_EQ(common.size(), 176u);
  EXPECT_EQ(detect_attacks(response, {}).size(), 46u);
  EXPECT_EQ(detect_attacks(common, {}).size(), 162u);
}

TEST(ParallelPipelineDifferentialTest, StatsHourlyAndRecordsMatchSerial) {
  const auto& expected = oracle();
  // Several batches per worker, so classification really runs in
  // parallel at every shard count below.
  ASSERT_GT(scenario().packets.size(), 8 * ParallelPipeline::kBatchSize);
  ASSERT_FALSE(expected.records.empty());
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    auto parallel = parallel_pipeline(shards);
    expect_stats_equal(parallel->stats(), expected.stats);
    EXPECT_EQ(parallel->hourly().research_quic, expected.hourly.research_quic);
    EXPECT_EQ(parallel->hourly().other_quic, expected.hourly.other_quic);
    EXPECT_EQ(parallel->hourly().quic_requests, expected.hourly.quic_requests);
    EXPECT_EQ(parallel->hourly().quic_responses,
              expected.hourly.quic_responses);
    const auto records = parallel->records();
    ASSERT_EQ(records.size(), expected.records.size());
    EXPECT_TRUE(std::equal(records.begin(), records.end(),
                           expected.records.begin()));
  }
}

TEST(ParallelPipelineDifferentialTest, SessionListsMatchSerial) {
  const auto& expected = oracle();
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    auto parallel = parallel_pipeline(shards);
    for (const auto timeout : {util::kMinute, 5 * util::kMinute}) {
      EXPECT_EQ(parallel->request_sessions(timeout),
                expected.sessions(timeout, quic_request_filter()));
      EXPECT_EQ(parallel->response_sessions(timeout),
                expected.sessions(timeout, quic_response_filter()));
      EXPECT_EQ(parallel->common_sessions(timeout),
                expected.sessions(timeout, common_backscatter_filter()));
    }
  }
}

TEST(ParallelPipelineDifferentialTest, TimeoutSweepMatchesSerial) {
  std::vector<util::Duration> timeouts;
  for (const int minutes : {1, 2, 5, 10, 30, 60}) {
    timeouts.push_back(minutes * util::kMinute);
  }
  timeouts.push_back(std::numeric_limits<util::Duration>::max());
  const auto expected =
      timeout_sweep(oracle().records, timeouts, sanitized_quic_filter());
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    EXPECT_EQ(parallel_pipeline(shards)->session_timeout_sweep(timeouts),
              expected);
  }
}

TEST(ParallelPipelineDifferentialTest, AttackAnalysisMatchesSerial) {
  const auto timeout = scenario().options.session_timeout;
  const auto response = oracle().sessions(timeout, quic_response_filter());
  const auto common = oracle().sessions(timeout, common_backscatter_filter());
  const DosThresholds defaults;
  const auto quic_attacks = detect_attacks(response, defaults);
  const auto common_attacks = detect_attacks(common, defaults);
  // Weighted thresholds (the Figure 10 sweep) must agree as well.
  const auto strict = DosThresholds{}.weighted(0.5);
  const auto strict_attacks = detect_attacks(response, strict);
  ASSERT_FALSE(quic_attacks.empty());
  ASSERT_FALSE(common_attacks.empty());
  ASSERT_NE(strict_attacks.size(), quic_attacks.size());
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    auto parallel = parallel_pipeline(shards);
    const auto analysis = parallel->analyze_attacks();
    EXPECT_EQ(analysis.response_sessions, response);
    EXPECT_EQ(analysis.common_sessions, common);
    EXPECT_EQ(analysis.quic_attacks, quic_attacks);
    EXPECT_EQ(analysis.common_attacks, common_attacks);
    EXPECT_EQ(parallel->analyze_attacks(strict).quic_attacks, strict_attacks);
  }
}

/// Appends `packet` to `batch`, handing full batches to the pipeline.
void append_packet(ParallelPipeline& pipeline, net::RecordBatch& batch,
                   const net::RawPacket& packet) {
  if (batch.try_append(packet.timestamp, packet.data)) return;
  pipeline.consume_batch(std::move(batch));
  batch = pipeline.acquire_batch();
  ASSERT_TRUE(batch.try_append(packet.timestamp, packet.data));
}

/// Hands the pipeline a batch of undecodable packets, none of which
/// yields a record: an empty segment in the record storage.
void consume_junk_batch(ParallelPipeline& pipeline, util::Timestamp at) {
  auto junk = pipeline.acquire_batch();
  const std::uint8_t bytes[] = {0x00, 0x01, 0x02};
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(junk.try_append(at, bytes));
  pipeline.consume_batch(std::move(junk));
}

TEST(ParallelPipelineTest, RecordViewMatchesOracleArray) {
  const auto& expected = oracle().records;
  for (const auto shards : kShardCounts) {
    SCOPED_TRACE(shards);
    ParallelPipeline pipeline(scenario().options, shards);
    const auto& packets = scenario().packets;
    // Junk-only batches first, every 3000 packets and last, so empty
    // segments sit before, between and after the ones with records.
    std::uint64_t junk_batches = 1;
    consume_junk_batch(pipeline, packets.front().timestamp);
    auto batch = pipeline.acquire_batch();
    for (std::size_t i = 0; i < packets.size(); ++i) {
      append_packet(pipeline, batch, packets[i]);
      if (i % 3000 == 2999) {
        pipeline.consume_batch(std::move(batch));
        consume_junk_batch(pipeline, packets[i].timestamp);
        ++junk_batches;
        batch = pipeline.acquire_batch();
      }
    }
    pipeline.consume_batch(std::move(batch));
    consume_junk_batch(pipeline, packets.back().timestamp);
    ++junk_batches;
    EXPECT_EQ(pipeline.stats().undecodable,
              oracle().stats.undecodable + 50 * junk_batches);

    const auto records = pipeline.records();
    ASSERT_EQ(records.size(), expected.size());
    EXPECT_FALSE(records.empty());
    EXPECT_EQ(records.front(), expected.front());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(records[i], expected[i]) << "record " << i;
    }
    EXPECT_EQ(static_cast<std::size_t>(
                  std::distance(records.begin(), records.end())),
              expected.size());
    EXPECT_TRUE(std::equal(records.begin(), records.end(), expected.begin(),
                           expected.end()));
    // The analyses read the same segments.
    const auto timeout = scenario().options.session_timeout;
    EXPECT_EQ(pipeline.response_sessions(timeout),
              oracle().sessions(timeout, quic_response_filter()));
  }
}

TEST(ParallelPipelineTest, RecordViewOfOnlyEmptySegmentsIsEmpty) {
  ParallelPipeline pipeline(scenario().options, 2);
  consume_junk_batch(pipeline, scenario().options.window_start);
  consume_junk_batch(pipeline, scenario().options.window_start);
  const auto records = pipeline.records();
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(records.size(), 0u);
  EXPECT_TRUE(records.begin() == records.end());
  EXPECT_EQ(pipeline.stats().undecodable, 100u);
}

TEST(ParallelPipelineTest, FinishIsIdempotentAndEmptyInputWorks) {
  ParallelPipeline pipeline(scenario().options, 3);
  pipeline.finish();
  pipeline.finish();
  EXPECT_TRUE(pipeline.records().empty());
  EXPECT_EQ(pipeline.stats().total, 0u);
  EXPECT_TRUE(pipeline.request_sessions(util::kMinute).empty());
  const auto analysis = pipeline.analyze_attacks();
  EXPECT_TRUE(analysis.quic_attacks.empty());
  EXPECT_TRUE(analysis.common_attacks.empty());
}

TEST(ParallelPipelineTest, ShardCountDefaultsToHardware) {
  ParallelPipeline pipeline(scenario().options, 0);
  EXPECT_GE(pipeline.shard_count(), 1u);
}

}  // namespace
}  // namespace quicsand::core
