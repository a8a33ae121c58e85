// The offline QUICsand analysis pipeline.
//
// Feed it captured packets (from a pcap file or the telescope generator);
// it classifies them, keeps compact records for the analysis stages, and
// exposes the hourly series, sessionization, DoS detection and timeout
// sweep that the figure harnesses consume.
//
// Ingest classifies packet batches on a worker pool: each worker owns a
// Classifier and a row of hourly ShardedCounters, merged by summation
// when ingest finishes. The analyses then shard the record stream by
// hash(source IP) % N; sessionization and DoS detection are purely
// source-local (§5.1), so every shard runs the serial inner loops over
// the one record array, filtered to its own sources, and the merged
// output is the same for every shard count. shards = 1 is the serial
// case. See DESIGN.md "Parallel execution model" for the determinism
// argument.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <ranges>
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

/// Read-only view of a record stream stored in segments, indexed and
/// iterated as one sequence in segment order. Empty segments are allowed.
/// References point into the owner's storage, so the view lives no
/// longer than its owner.
class RecordView {
 public:
  /// `ends[i]` is the number of records in segments [0, i].
  RecordView(RecordSegments segments, std::span<const std::size_t> ends)
      : segments_(segments), ends_(ends), joined_(segments) {}

  [[nodiscard]] std::size_t size() const {
    return ends_.empty() ? 0 : ends_.back();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }
  [[nodiscard]] const PacketRecord& operator[](std::size_t i) const;
  [[nodiscard]] const PacketRecord& front() const { return (*this)[0]; }
  [[nodiscard]] auto begin() const { return joined_.begin(); }
  [[nodiscard]] auto end() const { return joined_.end(); }

 private:
  RecordSegments segments_;
  std::span<const std::size_t> ends_;
  /// Its iterators point back at it, so iterate the view while it lives.
  std::ranges::join_view<RecordSegments> joined_;
};

class ParallelPipeline {
 public:
  /// Packets classified per worker task.
  static constexpr std::size_t kBatchSize = 4096;

  /// `shards` worker threads == analysis shards; 0 means hardware
  /// concurrency.
  ParallelPipeline(PipelineOptions options, std::size_t shards);
  ~ParallelPipeline();

  ParallelPipeline(const ParallelPipeline&) = delete;
  ParallelPipeline& operator=(const ParallelPipeline&) = delete;

  /// Ingest one packet (must arrive in time order). The packet is copied
  /// into a pending batch, which goes to consume_batch() when full, so
  /// classification overlaps the caller's capture/generation loop.
  void consume(const net::RawPacket& packet);

  /// Take a recycled (empty) batch from the pool, or a fresh one of
  /// kBatchSize packets on first use. Fill it with packets in time order
  /// and hand it back via consume_batch().
  [[nodiscard]] net::RecordBatch acquire_batch();

  /// Ingest a whole batch: classification of the batch runs as one pool
  /// task, and the batch itself is recycled into the pool afterwards, so
  /// the generate→ingest hot loop performs no steady-state allocation.
  /// Batches (and any interleaved consume() packets) must arrive in
  /// global time order.
  void consume_batch(net::RecordBatch&& batch);

  /// Flush the pending batch and merge per-worker state. Idempotent; every
  /// analysis accessor calls it, after which consume() must not be
  /// called again.
  void finish();

  [[nodiscard]] const ClassifierStats& stats();
  [[nodiscard]] const HourlySeries& hourly();

  /// Sanitized records (research scanners and kOther dropped) in arrival
  /// order, the same for every shard count. They stay in the per-batch
  /// segments the workers wrote; the view reads them as one sequence.
  [[nodiscard]] RecordView records();

  std::vector<Session> request_sessions(util::Duration timeout);
  std::vector<Session> response_sessions(util::Duration timeout);
  std::vector<Session> common_sessions(util::Duration timeout);

  /// Figure 4 sweep over the sanitized QUIC records (both directions).
  std::vector<std::pair<util::Duration, std::uint64_t>>
  session_timeout_sweep(std::span<const util::Duration> timeouts);

  /// Detected attacks at options().thresholds, or at `thresholds`.
  AttackAnalysis analyze_attacks();
  AttackAnalysis analyze_attacks(const DosThresholds& thresholds);

  [[nodiscard]] const PipelineOptions& options() const { return options_; }
  [[nodiscard]] std::size_t shard_count() const { return shards_; }

 private:
  friend struct TsaNegativeProbe;

  /// Classify `batch` as one pool task; the batch is recycled into the
  /// pool afterwards. The one ingest path behind consume() and
  /// consume_batch().
  void submit_batch(net::RecordBatch&& batch);
  /// Hand the batch consume() is filling to submit_batch(), if any.
  void flush_pending();
  /// Block until fewer than 4 * shards_ batches are in flight, then
  /// claim a slot (increments inflight_, publishes the gauge). Caller
  /// holds inflight_mutex_ via `lock`.
  void wait_for_inflight_slot(util::UniqueLock& lock)
      QS_REQUIRES(inflight_mutex_);
  /// Return a claimed slot and wake blocked producers; takes
  /// inflight_mutex_ itself (called from worker jobs).
  void release_inflight_slot() QS_EXCLUDES(inflight_mutex_);
  std::vector<std::vector<Session>> sharded_sessions(
      util::Duration timeout, const RecordFilter& filter);

  PipelineOptions options_;
  std::size_t shards_;
  std::size_t hours_;

  // Per-worker ingest state: workers only touch their own slot/row.
  std::vector<std::unique_ptr<Classifier>> worker_classifiers_;
  std::vector<util::ShardedCounter> worker_hourly_;  // one per HourlySlot

  // Ingest: the main thread appends an output slot per batch before
  // submitting it, so workers write disjoint, stable deque elements.
  // Each slot holds exactly the batch's kept records (copied from the
  // worker's scratch vector) and is the record storage from then on.
  // pending_ is the batch consume() fills; a zero-capacity placeholder
  // until the first consume(), so batch-only callers never allocate it.
  net::RecordBatch pending_{0, 0};
  std::deque<std::vector<PacketRecord>> batches_;
  std::vector<std::vector<PacketRecord>> worker_scratch_;
  util::Mutex inflight_mutex_{util::LockRank::kPipelineInflight,
                              "pipeline_inflight"};
  util::CondVar inflight_cv_;
  std::size_t inflight_ QS_GUARDED_BY(inflight_mutex_) = 0;

  // Recycled RecordBatch pool. Workers take
  // pool_mutex_ and inflight_mutex_ strictly sequentially (never
  // nested), so both are leaf ranks.
  util::Mutex pool_mutex_{util::LockRank::kPipelineBatchPool,
                          "pipeline_batch_pool"};
  std::vector<net::RecordBatch> batch_pool_ QS_GUARDED_BY(pool_mutex_);

  // Merged state, valid once finished_.
  bool finished_ = false;
  ClassifierStats stats_;
  HourlySeries hourly_;
  /// batches_ as spans, and the running record count at each one's end.
  std::vector<std::span<const PacketRecord>> segments_;
  std::vector<std::size_t> segment_ends_;

  // Observability handles, resolved once at construction; all nullptr
  // when no registry is attached (options_.obs).
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
