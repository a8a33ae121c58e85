// Sharded, multi-threaded variant of the serial analysis Pipeline.
//
// Ingest classifies fixed-size packet batches on a worker pool: each
// worker owns a Classifier and a row of hourly ShardedCounters, merged by
// summation when ingest finishes. The analyses then shard the record
// stream by hash(source IP) % N; sessionization and DoS detection are
// purely source-local (§5.1), so every shard runs the serial inner loops
// over the one record array, filtered to its own sources, and the merged
// output is bit-identical to the serial Pipeline regardless of shard
// count. See DESIGN.md "Parallel execution model" for the determinism
// argument.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "core/pipeline.hpp"
#include "net/record_batch.hpp"
#include "obs/health.hpp"
#include "util/sharded_counter.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace quicsand::core {

/// Compile-time tripwire for the thread-safety annotations below;
/// defined only in tests/tsa_negative.cpp (see scripts/check_tsa.sh).
/// It MUST fail to compile under -Werror=thread-safety — if deleting a
/// QS_GUARDED_BY/QS_REQUIRES here makes the probe build, CI fails.
struct TsaNegativeProbe;

struct ParallelPipelineOptions {
  PipelineOptions base;
  /// Worker threads == analysis shards. 0 means hardware concurrency.
  std::size_t shards = 0;
  /// Packets classified per worker task.
  std::size_t batch_size = 4096;
};

class ParallelPipeline {
 public:
  explicit ParallelPipeline(ParallelPipelineOptions options);
  ParallelPipeline(PipelineOptions base, std::size_t shards);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Ingest one packet (must arrive in time order). Classification runs
  /// on the pool, overlapping with the caller's capture/generation loop.
  void consume(const net::RawPacket& packet);

  /// Take a recycled (empty) batch from the pool, or a fresh one sized
  /// to options().batch_size on first use. Fill it with packets in time
  /// order and hand it back via consume_batch().
  [[nodiscard]] net::RecordBatch acquire_batch();

  /// Ingest a whole batch: classification of the batch runs as one pool
  /// task, and the batch itself is recycled into the pool afterwards, so
  /// the generate→ingest hot loop performs no steady-state allocation.
  /// Batches (and any interleaved consume() packets) must arrive in
  /// global time order.
  void consume_batch(net::RecordBatch&& batch);

  /// Flush pending batches and merge per-worker state. Idempotent; every
  /// analysis accessor calls it, after which consume() must not be
  /// called again.
  void finish();

  [[nodiscard]] const ClassifierStats& stats();
  [[nodiscard]] const HourlySeries& hourly();

  /// Sanitized records in arrival order, identical to the serial
  /// pipeline's record stream.
  [[nodiscard]] std::span<const PacketRecord> records();

  std::vector<Session> request_sessions(util::Duration timeout);
  std::vector<Session> response_sessions(util::Duration timeout);
  std::vector<Session> common_sessions(util::Duration timeout);

  std::vector<std::pair<util::Duration, std::uint64_t>>
  session_timeout_sweep(std::span<const util::Duration> timeouts);

  Pipeline::AttackAnalysis analyze_attacks();
  Pipeline::AttackAnalysis analyze_attacks(const DosThresholds& thresholds);

  [[nodiscard]] const PipelineOptions& options() const {
    return options_.base;
  }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }

 private:
  friend struct TsaNegativeProbe;

  void dispatch_batch();
  /// Block until fewer than 4 * shards_ batches are in flight, then
  /// claim a slot (increments inflight_, publishes the gauge). Caller
  /// holds inflight_mutex_ via `lock` — both ingest paths share this
  /// backpressure gate.
  void wait_for_inflight_slot(util::UniqueLock& lock)
      QS_REQUIRES(inflight_mutex_);
  /// Return a claimed slot and wake blocked producers; takes
  /// inflight_mutex_ itself (called from worker jobs).
  void release_inflight_slot() QS_EXCLUDES(inflight_mutex_);
  std::vector<std::vector<Session>> sharded_sessions(
      util::Duration timeout, const RecordFilter& filter);

  ParallelPipelineOptions options_;
  std::size_t shards_;
  std::size_t hours_;

  // Per-worker ingest state: workers only touch their own slot/row.
  std::vector<std::unique_ptr<Classifier>> worker_classifiers_;
  std::vector<util::ShardedCounter> worker_hourly_;  // one per HourlySlot

  // Ingest: the main thread appends an output slot per batch before
  // submitting it, so workers write disjoint, stable deque elements.
  std::vector<net::RawPacket> pending_;
  std::deque<std::vector<PacketRecord>> batches_;
  util::Mutex inflight_mutex_{util::LockRank::kPipelineInflight,
                              "pipeline_inflight"};
  util::CondVar inflight_cv_;
  std::size_t inflight_ QS_GUARDED_BY(inflight_mutex_) = 0;

  // Recycled RecordBatch pool for the batched ingest path. Workers take
  // pool_mutex_ and inflight_mutex_ strictly sequentially (never
  // nested), so both are leaf ranks.
  util::Mutex pool_mutex_{util::LockRank::kPipelineBatchPool,
                          "pipeline_batch_pool"};
  std::vector<net::RecordBatch> batch_pool_ QS_GUARDED_BY(pool_mutex_);

  // Merged state, valid once finished_.
  bool finished_ = false;
  ClassifierStats stats_;
  HourlySeries hourly_;
  std::vector<PacketRecord> records_;

  // Observability handles, resolved once at construction; all nullptr
  // when no registry is attached (options_.base.obs).
  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* records_counter_ = nullptr;
  obs::Counter* batches_counter_ = nullptr;
  obs::LatencyHistogram* backpressure_wait_us_ = nullptr;
  obs::LatencyHistogram* queue_wait_us_ = nullptr;
  obs::LatencyHistogram* classify_batch_us_ = nullptr;
  obs::LatencyHistogram* sessionize_shard_us_ = nullptr;
  obs::LatencyHistogram* analyze_shard_us_ = nullptr;
  obs::Gauge* inflight_gauge_ = nullptr;
  obs::Gauge* pending_gauge_ = nullptr;
  // Liveness component; heartbeat per dispatched batch, idle once
  // finish() has merged.
  obs::Health::Component* health_ = nullptr;

  // Declared last so jobs referencing the members above are drained
  // before anything else is destroyed.
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace quicsand::core
