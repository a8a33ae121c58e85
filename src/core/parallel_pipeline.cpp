#include "core/parallel_pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/metrics.hpp"

namespace quicsand::core {

namespace {

std::size_t resolve_shards(std::size_t requested) {
  if (requested > 0) return requested;
  const auto hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// `filter` restricted to the records of one source shard.
RecordFilter shard_filter(RecordFilter filter, std::size_t shard,
                          std::size_t shards) {
  filter.shard = shard;
  filter.shards = shards;
  return filter;
}

}  // namespace

ParallelPipeline::ParallelPipeline(PipelineOptions options,
                                   std::size_t shards)
    : options_(std::move(options)),
      shards_(resolve_shards(shards)),
      hours_(static_cast<std::size_t>(options_.days) * 24) {
  worker_classifiers_.reserve(shards_);
  for (std::size_t i = 0; i < shards_; ++i) {
    worker_classifiers_.push_back(std::make_unique<Classifier>(
        ClassifierConfig{options_.research_prefixes}));
  }
  worker_scratch_.resize(shards_);
  worker_hourly_.reserve(kHourlySlotCount);
  for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
    worker_hourly_.emplace_back(shards_, hours_);
  }
  if (auto* metrics = options_.obs.metrics) {
    packets_counter_ = &metrics->counter(
        "pipeline.packets", "packets consumed by the pipeline");
    records_counter_ = &metrics->counter(
        "pipeline.records", "sanitized records kept for analysis");
    batches_counter_ =
        &metrics->counter("parallel.batches", "classify batches dispatched");
    backpressure_wait_us_ = &metrics->latency(
        "parallel.backpressure_wait_us",
        "time the capture loop blocked on in-flight batch backpressure");
    queue_wait_us_ = &metrics->latency(
        "parallel.queue_wait_us",
        "time a classify batch waited in the pool queue");
    classify_batch_us_ = &metrics->latency(
        "parallel.classify_batch_us",
        "wall time a worker spent classifying one batch");
    sessionize_shard_us_ = &metrics->latency(
        "parallel.sessionize_shard_us",
        "wall time one shard spent in sessionization");
    analyze_shard_us_ = &metrics->latency(
        "parallel.analyze_shard_us",
        "wall time one shard spent in session + attack analysis");
    inflight_gauge_ = &metrics->gauge(
        "parallel.inflight_batches", "classify batches queued or running");
    pending_gauge_ = &metrics->gauge(
        "parallel.pending_packets",
        "packets buffered in the current (undispatched) batch");
    metrics->gauge("parallel.shards", "analysis shards / worker threads")
        .set(static_cast<std::int64_t>(shards_));
  }
  if (auto* health = options_.obs.health) {
    health_ = &health->component("parallel_pipeline");
    health_->set_ready(true);
  }
  pool_ = std::make_unique<util::ThreadPool>(shards_);
}

ParallelPipeline::~ParallelPipeline() {
  if (pool_) pool_->wait_idle();
}

void ParallelPipeline::consume(const net::RawPacket& packet) {
  if (!pending_.try_append(packet.timestamp, packet.data)) {
    flush_pending();
    pending_ = acquire_batch();
    if (!pending_.has_room(packet.data.size())) {
      // Larger than a whole arena (pcapng blocks reach 16 MiB): the
      // packet gets a batch of its own size.
      pending_ = net::RecordBatch(kBatchSize, packet.data.size());
    }
    (void)pending_.try_append(packet.timestamp, packet.data);
  }
  if (pending_gauge_ != nullptr) {
    pending_gauge_->set(static_cast<std::int64_t>(pending_.size()));
  }
}

void ParallelPipeline::flush_pending() {
  if (pending_.empty()) return;
  submit_batch(std::exchange(pending_, net::RecordBatch(0, 0)));
  if (pending_gauge_ != nullptr) pending_gauge_->set(0);
}

net::RecordBatch ParallelPipeline::acquire_batch() {
  {
    util::LockGuard lock(pool_mutex_);
    if (!batch_pool_.empty()) {
      auto batch = std::move(batch_pool_.back());
      batch_pool_.pop_back();
      return batch;
    }
  }
  return net::RecordBatch(kBatchSize);
}

void ParallelPipeline::wait_for_inflight_slot(util::UniqueLock& lock) {
  // Backpressure: bound the batches in flight so a fast capture or
  // generation loop cannot buffer the whole trace ahead of the workers.
  while (inflight_ >= 4 * shards_) inflight_cv_.wait(lock);
  ++inflight_;
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
}

void ParallelPipeline::release_inflight_slot() {
  util::LockGuard lock(inflight_mutex_);
  --inflight_;
  if (inflight_gauge_ != nullptr) {
    inflight_gauge_->set(static_cast<std::int64_t>(inflight_));
  }
  inflight_cv_.notify_all();
}

void ParallelPipeline::consume_batch(net::RecordBatch&& batch) {
  if (batch.empty()) {
    util::LockGuard lock(pool_mutex_);
    batch_pool_.push_back(std::move(batch));
    return;
  }
  // Flush any per-packet consume() stragglers first so the record stream
  // keeps global arrival order.
  flush_pending();
  submit_batch(std::move(batch));
}

void ParallelPipeline::submit_batch(net::RecordBatch&& batch) {
  if (packets_counter_ != nullptr) packets_counter_->add(batch.size());
  {
    const auto wait_start =
        backpressure_wait_us_ != nullptr ? steady_us() : 0;
    util::UniqueLock lock(inflight_mutex_);
    wait_for_inflight_slot(lock);
    if (backpressure_wait_us_ != nullptr) {
      backpressure_wait_us_->record(steady_us() - wait_start);
    }
  }
  if (batches_counter_ != nullptr) batches_counter_->add();
  if (health_ != nullptr) health_->heartbeat();
  batches_.emplace_back();
  auto* out = &batches_.back();
  auto shared = std::make_shared<net::RecordBatch>(std::move(batch));
  const auto submit_us = queue_wait_us_ != nullptr ? steady_us() : 0;
  pool_->submit([this, out, shared, submit_us](std::size_t worker) {
    if (queue_wait_us_ != nullptr) {
      queue_wait_us_->record(steady_us() - submit_us);
    }
    const auto batch_start = classify_batch_us_ != nullptr ? steady_us() : 0;
    auto& classifier = *worker_classifiers_[worker];
    auto& kept = worker_scratch_[worker];
    kept.clear();
    for (std::size_t i = 0; i < shared->size(); ++i) {
      const auto view = shared->view(i);
      const auto record = classifier.classify(view.timestamp, view.data);
      if (!record) continue;
      bin_hourly(*record, options_.window_start, hours_,
                 [this, worker](HourlySlot slot, std::size_t hour) {
                   worker_hourly_[static_cast<std::size_t>(slot)].add(worker,
                                                                      hour);
                 });
      if (!keep_for_analysis(*record)) continue;
      kept.push_back(*record);
    }
    // The slot outlives ingest, so it takes exactly the kept records.
    out->assign(kept.begin(), kept.end());
    if (records_counter_ != nullptr) {
      records_counter_->add(out->size());
    }
    if (classify_batch_us_ != nullptr) {
      classify_batch_us_->record(steady_us() - batch_start);
    }
    {
      util::LockGuard lock(pool_mutex_);
      shared->clear();
      batch_pool_.push_back(std::move(*shared));
    }
    release_inflight_slot();
  });
}

void ParallelPipeline::finish() {
  if (finished_) return;
  flush_pending();
  pool_->wait_idle();

  for (const auto& classifier : worker_classifiers_) {
    stats_.merge_from(classifier->stats());
  }
  for (std::size_t slot = 0; slot < kHourlySlotCount; ++slot) {
    hourly_.of(static_cast<HourlySlot>(slot)) = worker_hourly_[slot].merged();
  }
  // Batches were dispatched in arrival order, so reading their slots in
  // order reproduces the arrival-order record stream exactly.
  segments_.reserve(batches_.size());
  segment_ends_.reserve(batches_.size());
  std::size_t total = 0;
  for (const auto& batch : batches_) {
    segments_.emplace_back(batch);
    total += batch.size();
    segment_ends_.push_back(total);
  }
  worker_scratch_ = {};
  finished_ = true;
  if (auto* metrics = options_.obs.metrics) {
    publish_classifier_stats(stats_, *metrics);
  }
  if (health_ != nullptr) {
    health_->heartbeat();
    health_->set_idle(true);  // ingest drained and merged
  }
}

const ClassifierStats& ParallelPipeline::stats() {
  finish();
  return stats_;
}

const HourlySeries& ParallelPipeline::hourly() {
  finish();
  return hourly_;
}

const PacketRecord& RecordView::operator[](std::size_t i) const {
  const auto segment = static_cast<std::size_t>(
      std::upper_bound(ends_.begin(), ends_.end(), i) - ends_.begin());
  const std::size_t start = segment == 0 ? 0 : ends_[segment - 1];
  return segments_[segment][i - start];
}

RecordView ParallelPipeline::records() {
  finish();
  return {segments_, segment_ends_};
}

std::vector<std::vector<Session>> ParallelPipeline::sharded_sessions(
    util::Duration timeout, const RecordFilter& filter) {
  finish();
  std::vector<std::vector<Session>> parts(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    const auto start = sessionize_shard_us_ != nullptr ? steady_us() : 0;
    parts[s] =
        build_sessions(segments_, timeout, shard_filter(filter, s, shards_));
    if (sessionize_shard_us_ != nullptr) {
      sessionize_shard_us_->record(steady_us() - start);
    }
  });
  return parts;
}

std::vector<Session> ParallelPipeline::request_sessions(
    util::Duration timeout) {
  auto parts = sharded_sessions(timeout, quic_request_filter());
  return merge_sessions(std::move(parts)).sessions;
}

std::vector<Session> ParallelPipeline::response_sessions(
    util::Duration timeout) {
  auto parts = sharded_sessions(timeout, quic_response_filter());
  return merge_sessions(std::move(parts)).sessions;
}

std::vector<Session> ParallelPipeline::common_sessions(
    util::Duration timeout) {
  auto parts = sharded_sessions(timeout, common_backscatter_filter());
  return merge_sessions(std::move(parts)).sessions;
}

std::vector<std::pair<util::Duration, std::uint64_t>>
ParallelPipeline::session_timeout_sweep(
    std::span<const util::Duration> timeouts) {
  finish();
  std::vector<GapProfile> profiles(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    profiles[s] = collect_gap_profile(
        segments_, shard_filter(sanitized_quic_filter(), s, shards_));
  });
  GapProfile merged;
  for (auto& profile : profiles) {
    merge_gap_profiles(merged, std::move(profile));
  }
  return sweep_counts(std::move(merged), timeouts);
}

AttackAnalysis ParallelPipeline::analyze_attacks() {
  return analyze_attacks(options_.thresholds);
}

AttackAnalysis ParallelPipeline::analyze_attacks(
    const DosThresholds& thresholds) {
  finish();
  const auto timeout = options_.session_timeout;

  struct ShardAnalysis {
    std::vector<Session> response, common;
    std::vector<DetectedAttack> quic_attacks, common_attacks;
  };
  std::vector<ShardAnalysis> outs(shards_);
  pool_->parallel_for(shards_, [&](std::size_t s, std::size_t) {
    const auto start = analyze_shard_us_ != nullptr ? steady_us() : 0;
    auto& out = outs[s];
    out.response = build_sessions(
        segments_, timeout, shard_filter(quic_response_filter(), s, shards_));
    out.common =
        build_sessions(segments_, timeout,
                       shard_filter(common_backscatter_filter(), s, shards_));
    out.quic_attacks = detect_attacks(out.response, thresholds);
    out.common_attacks = detect_attacks(out.common, thresholds);
    if (analyze_shard_us_ != nullptr) {
      analyze_shard_us_->record(steady_us() - start);
    }
  });

  const auto merge_start_us =
      options_.obs.metrics != nullptr ? steady_us() : 0;

  std::vector<std::vector<Session>> response_parts(shards_);
  std::vector<std::vector<Session>> common_parts(shards_);
  std::vector<std::vector<DetectedAttack>> quic_parts(shards_);
  std::vector<std::vector<DetectedAttack>> common_attack_parts(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    response_parts[s] = std::move(outs[s].response);
    common_parts[s] = std::move(outs[s].common);
    quic_parts[s] = std::move(outs[s].quic_attacks);
    common_attack_parts[s] = std::move(outs[s].common_attacks);
  }

  AttackAnalysis analysis;
  auto response_merge = merge_sessions(std::move(response_parts));
  analysis.quic_attacks =
      merge_attacks(std::move(quic_parts), response_merge.global_index);
  analysis.response_sessions = std::move(response_merge.sessions);
  auto common_merge = merge_sessions(std::move(common_parts));
  analysis.common_attacks =
      merge_attacks(std::move(common_attack_parts), common_merge.global_index);
  analysis.common_sessions = std::move(common_merge.sessions);

  if (auto* metrics = options_.obs.metrics) {
    metrics
        ->latency("parallel.merge_analysis_us",
                  "wall time of the final session/attack merge")
        .record(steady_us() - merge_start_us);
    metrics->gauge("pipeline.quic_attacks")
        .set(static_cast<std::int64_t>(analysis.quic_attacks.size()));
    metrics->gauge("pipeline.common_attacks")
        .set(static_cast<std::int64_t>(analysis.common_attacks.size()));
  }
  return analysis;
}

}  // namespace quicsand::core
