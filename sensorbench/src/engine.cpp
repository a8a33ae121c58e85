#include "engine.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "core/classifier.hpp"
#include "core/correlate.hpp"
#include "core/online_shards.hpp"
#include "core/parallel_pipeline.hpp"
#include "core/victims.hpp"
#include "net/headers.hpp"
#include "net/live/frame.hpp"
#include "net/live/receiver.hpp"
#include "net/live/sender.hpp"
#include "net/live/socket.hpp"
#include "net/pcap.hpp"
#include "obs/events.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/tsdb.hpp"
#include "quic/dissector.hpp"

namespace sensorbench {

namespace qs = quicsand;

namespace {

/// 1-in-N packets whose offline read time is kept for packet latency.
constexpr std::uint64_t kOfflineLatencyEvery = 64;
/// Packets (or records) per span in the serial pass.
constexpr std::size_t kSerialBatch = 4096;
/// Live drain: give up waiting for stragglers after this long without
/// progress; whatever is still missing is reported as loss.
constexpr double kDrainIdle_s = 0.5;
/// Deterministic 1-in-N sample of live datagrams for packet latency.
constexpr std::uint64_t kLiveLatencyEvery = 16;
/// LiveSender's own pacer runs at this multiple of kLivePps, so that
/// only the benchmark's schedule paces the replay.
constexpr double kSenderPacerHeadroom = 4;
/// Traced live runs time a sampler pass this often.
constexpr auto kTracedSamplerCadence = std::chrono::milliseconds(250);

/// Send stamp (µs) of the record the calling shard worker is consuming.
/// The detector fires the alert callback synchronously inside consume(),
/// on the same thread, so the callback reads the stamp of the record
/// that crossed the thresholds.
thread_local std::int64_t t_consuming_send_us = -1;

qs::core::PipelineOptions offline_options(
    const qs::telescope::ScenarioConfig& scenario) {
  qs::core::PipelineOptions options;
  options.window_start = scenario.start;
  options.days = scenario.days;
  options.research_prefixes = research_prefixes();
  return options;
}

}  // namespace

OfflineResult run_offline(const qs::telescope::ScenarioConfig& scenario,
                          const std::string& capture, Tracer& tracer,
                          std::int32_t parent) {
  OfflineResult out;
  const double cpu_start = process_cpu_s();
  const double start = now_s();
  double eof_at = 0;
  double result_at = 0;
  {
    ScopedSpan engine(tracer, "engine", parent);
    qs::core::ParallelPipeline pipeline(offline_options(scenario), kShards);
    qs::net::PcapReader reader(capture);

    auto batch = pipeline.acquire_batch();
    std::optional<qs::net::RawPacket> carry;  // did not fit the last batch
    std::vector<double> read_at;  // sampled packets of the current batch
    std::uint64_t read = 0;
    for (bool eof = false; !eof;) {
      {
        ScopedSpan span(tracer, "read", engine.id());
        if (carry) {
          (void)batch.try_append(carry->timestamp, carry->data);
          carry.reset();
        }
        for (;;) {
          auto packet = reader.next();
          if (!packet) {
            eof = true;
            eof_at = now_s();
            break;
          }
          if (read++ % kOfflineLatencyEvery == 0) read_at.push_back(now_s());
          if (!batch.try_append(packet->timestamp, packet->data)) {
            carry = std::move(packet);
            break;
          }
        }
        span.set_items(batch.size());
      }
      if (batch.empty()) continue;
      const double ingest_start = now_s();
      for (const double t : read_at) {
        out.pkt_latency_us.push_back((ingest_start - t) * 1e6);
      }
      read_at.clear();
      {
        ScopedSpan span(tracer, "ingest", engine.id());
        span.set_items(batch.size());
        pipeline.consume_batch(std::move(batch));
      }
      out.ingest_s += now_s() - ingest_start;
      batch = pipeline.acquire_batch();
    }
    const double finish_start = now_s();
    {
      ScopedSpan span(tracer, "ingest", engine.id());
      pipeline.finish();
    }
    out.ingest_s += now_s() - finish_start;

    ScopedSpan span(tracer, "analyze", engine.id());
    const auto& stats = pipeline.stats();
    out.packets = stats.total;
    const auto& hourly = pipeline.hourly();
    for (const auto& series : {hourly.research_quic, hourly.other_quic}) {
      for (const auto count : series) out.hourly_quic += count;
    }
    out.records = pipeline.records().size();
    const auto timeout = pipeline.options().session_timeout;
    const auto requests = pipeline.request_sessions(timeout);
    auto analysis = pipeline.analyze_attacks();
    out.sessions = requests.size() + analysis.response_sessions.size() +
                   analysis.common_sessions.size();
    const auto victims = qs::core::analyze_victims(analysis.quic_attacks,
                                                   registry(), deployment());
    const auto correlation = qs::core::correlate_attacks(
        analysis.quic_attacks, analysis.common_attacks);
    out.victims = victims.victims.size();
    out.correlated = correlation.total();
    out.common_attacks = analysis.common_attacks.size();
    out.quic_attacks = std::move(analysis.quic_attacks);
    result_at = now_s();
    out.cpu_s = process_cpu_s() - cpu_start;
  }
  out.wall_s = result_at - start;
  out.report_latency_us = (result_at - eof_at) * 1e6;
  return out;
}

LiveResult run_live(const Stream& stream, std::size_t count, bool traced) {
  LiveResult out;

  // The obs stack of `monitor --live`, minus the admin endpoint.
  qs::obs::MetricsRegistry metrics;
  qs::obs::EventLog events;
  qs::obs::Health health;
  qs::obs::TimeSeriesStore tsdb;
  qs::obs::Sampler sampler([&] {
    qs::obs::SamplerConfig config;
    config.metrics = &metrics;
    config.store = &tsdb;
    config.events = &events;
    return config;
  }());

  qs::core::ShardedOnlineDetectorConfig detector_config;
  detector_config.shards = kShards;
  detector_config.detector.obs.metrics = &metrics;
  detector_config.detector.obs.events = &events;
  detector_config.detector.obs.health = &health;
  detector_config.detector.wall_clock = qs::net::live::wall_clock_us;
  qs::core::ShardedOnlineDetector detector(detector_config);
  // The detector serializes alert callbacks, so this vector needs no
  // lock of its own.
  std::vector<double> alert_latency;
  detector.set_on_alert([&](const qs::core::DetectedAttack&) {
    if (t_consuming_send_us >= 0) {
      alert_latency.push_back(us_since_stamp(t_consuming_send_us));
    }
  });
  const auto& open_sessions = metrics.gauge("online.open_sessions");

  struct alignas(64) ShardState {
    std::unique_ptr<qs::core::Classifier> classifier;
    std::uint64_t seen = 0;
    std::vector<double> pkt_latency;
    std::vector<double> pkt_sent;
    std::vector<double> wire;
    std::vector<double> ring_wait;
    std::uint64_t consumed = 0;
    double consume_s = 0;
    std::uint64_t consume_allocs = 0;
  };
  std::vector<ShardState> shards(kShards);
  const std::size_t expected_samples = count / kLiveLatencyEvery + 16;
  // Sample buffers are touched now, so that their pages are resident
  // before the peak-memory window opens.
  const auto prepare = [&](std::vector<double>& samples) {
    samples.resize(expected_samples);
    samples.clear();
  };
  for (auto& shard : shards) {
    shard.classifier = std::make_unique<qs::core::Classifier>(
        qs::core::ClassifierConfig{});
    prepare(shard.pkt_latency);
    prepare(shard.pkt_sent);
    if (traced) {
      prepare(shard.wire);
      prepare(shard.ring_wait);
    }
  }

  // The memory window spans the sensor's life, from before the receiver
  // starts until it has stopped: its rings, threads and metric history
  // are what a live sensor holds beside the few open sessions.
  PeakRss peak;
  peak.start();
  qs::net::live::LiveReceiverConfig receiver_config;
  receiver_config.port = 0;
  receiver_config.shards = kShards;
  receiver_config.obs.metrics = &metrics;
  receiver_config.obs.health = &health;
  qs::net::live::LiveReceiver receiver(receiver_config);
  out.started = receiver.start([&](std::size_t shard_index,
                                   const qs::net::RawPacket& packet,
                                   const qs::net::live::DatagramTiming& timing) {
    auto& shard = shards[shard_index];
    const bool sampled = shard.seen++ % kLiveLatencyEvery == 0;
    if (traced && sampled) {
      shard.wire.push_back(
          static_cast<double>(timing.recv_wall_us - timing.send_wall_us));
      shard.ring_wait.push_back(us_since_stamp(timing.recv_wall_us));
    }
    if (const auto record = shard.classifier->classify(packet)) {
      const qs::core::IngestTiming ingest{timing.send_wall_us,
                                          timing.recv_wall_us};
      t_consuming_send_us = timing.send_wall_us;
      ++shard.consumed;
      if (traced) {
        const double start = now_s();
        const auto allocs = thread_allocations();
        detector.consume(shard_index, *record, &ingest);
        shard.consume_s += now_s() - start;
        shard.consume_allocs += thread_allocations() - allocs;
      } else {
        detector.consume(shard_index, *record, &ingest);
      }
    }
    if (sampled && timing.send_wall_us >= 0) {
      shard.pkt_latency.push_back(us_since_stamp(timing.send_wall_us));
      shard.pkt_sent.push_back(static_cast<double>(timing.send_wall_us));
    }
  });
  if (!out.started) {
    out.error = receiver.last_error();
    return out;
  }

  // One pass now makes the time series of every metric registered so
  // far. Each series preallocates its history, some 7 MB in all; left to
  // the sampler thread's first pass, it could land on either side of the
  // replay's peak.
  sampler.sample_once();
  // Untraced: the sampler's own 1 s thread, as monitor --live runs it.
  // Traced: a benchmark thread times each Sampler::sample_once pass.
  std::jthread cadence;
  if (traced) {
    cadence = std::jthread([&](std::stop_token stop) {
      while (!stop.stop_requested()) {
        std::this_thread::sleep_for(kTracedSamplerCadence);
        const double start = now_s();
        sampler.sample_once();
        out.sampler_pass_us.push_back((now_s() - start) * 1e6);
        out.open_sessions_gauge_max =
            std::max(out.open_sessions_gauge_max,
                     static_cast<double>(open_sessions.value()));
      }
    });
  } else {
    sampler.start();
  }

  // The send schedule is the benchmark's: datagram i is due i / kLivePps
  // after the first send, and each fill hands the sender one socket batch
  // once it is due, so after a stall the overdue batches go out back to
  // back. Batches of one socket batch keep the sender's frame buffers,
  // which count in the replay's peak memory, at 64 datagrams.
  // LiveSender's own pacer is a token bucket that forgets a deficit
  // beyond 4 socket batches (about 1.7 ms here): each longer stall of the
  // sender thread, such as a preempted vCPU, would be lost for good and
  // the run would offer less than its rate. Set far above the rate, that
  // pacer never binds.
  qs::net::live::LiveSenderConfig sender_config;
  sender_config.port = receiver.port();
  sender_config.pps = kSenderPacerHeadroom * kLivePps;
  sender_config.mode = qs::net::live::RateMode::kConstant;
  qs::net::live::LiveSender sender(sender_config);
  qs::net::live::SendStats sent;

  HostSteal steal;
  steal.start();
  const double cpu_start = process_cpu_s();
  const double start = now_s();
  std::jthread sender_thread([&] {
    const double cpu = thread_cpu_s();
    std::size_t cursor = 0;
    double first_send = -1;
    const auto due = [&](std::size_t i) {
      return first_send + static_cast<double>(i) / kLivePps;
    };
    sent = sender.send_batches([&](qs::net::RecordBatch& batch) {
      if (first_send < 0) first_send = now_s();
      const std::size_t last =
          std::min(count, cursor + qs::net::live::ReceiveBatch::kMax) - 1;
      if (const double wait = due(last) - now_s(); wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      out.sender_late_ms =
          std::max(out.sender_late_ms, (now_s() - due(last)) * 1e3);
      while (cursor <= last) {
        const auto view = stream.view(cursor);
        if (!batch.try_append(view.timestamp, view.data)) break;
        ++cursor;
      }
      return cursor < count;
    });
    out.sender_cpu_s = thread_cpu_s() - cpu;
  });
  sender_thread.join();

  // Drain before stop: wait until every sent datagram was received or
  // counted as a kernel drop, or until the socket goes idle.
  const auto accounted = [&] {
    return receiver.received() + receiver.dropped_kernel();
  };
  auto last = accounted();
  double last_progress = now_s();
  while (last < sent.sent && now_s() - last_progress < kDrainIdle_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (const auto now = accounted(); now != last) {
      last = now;
      last_progress = now_s();
    }
  }
  out.drained = accounted() >= sent.sent;
  receiver.stop();
  out.attacks = detector.finish();
  out.wall_s = now_s() - start;
  out.cpu_s = process_cpu_s() - cpu_start - out.sender_cpu_s;
  out.peak_rss_mb = peak.added_mb();
  out.steal_pct = steal.pct();

  if (cadence.joinable()) {
    cadence.request_stop();
    cadence.join();
  }
  sampler.stop();

  out.sent = sent.sent;
  out.offered_pps = sent.achieved_pps;
  out.send_failures = sent.send_failures;
  if (!sender.last_error().empty()) out.error = sender.last_error();
  out.received = receiver.received();
  out.delivered = receiver.delivered();
  out.dropped_ring = receiver.dropped_ring();
  out.dropped_kernel = receiver.dropped_kernel();
  out.undecodable = receiver.undecodable();
  out.alerts = detector.alerts_fired();
  out.alert_latency_us = std::move(alert_latency);
  for (auto& shard : shards) {
    out.pkt_latency_us.insert(out.pkt_latency_us.end(),
                              shard.pkt_latency.begin(),
                              shard.pkt_latency.end());
    out.pkt_sent_us.insert(out.pkt_sent_us.end(), shard.pkt_sent.begin(),
                           shard.pkt_sent.end());
    out.wire_us.insert(out.wire_us.end(), shard.wire.begin(),
                       shard.wire.end());
    out.ring_wait_us.insert(out.ring_wait_us.end(), shard.ring_wait.begin(),
                            shard.ring_wait.end());
    out.consumed += shard.consumed;
    out.consume_s += shard.consume_s;
    out.consume_allocs += shard.consume_allocs;
  }
  return out;
}

SerialResult run_serial(const std::string& capture, Tracer& tracer) {
  SerialResult out;
  ScopedSpan root(tracer, "serial");
  out.root = root.id();

  qs::core::ClassifierConfig classifier_config;
  classifier_config.research_prefixes = research_prefixes();
  qs::core::Classifier classifier(classifier_config);
  qs::net::PcapReader reader(capture);
  std::vector<qs::net::RawPacket> packets(kSerialBatch);
  std::vector<qs::core::PacketRecord> records;
  std::uint64_t quic_payloads = 0;
  for (bool eof = false; !eof;) {
    std::size_t n = 0;
    {
      ScopedSpan span(tracer, "pcap_read", root.id());
      while (n < kSerialBatch) {
        auto packet = reader.next();
        if (!packet) {
          eof = true;
          break;
        }
        packets[n++] = std::move(*packet);
      }
      span.set_items(n);
    }
    {
      // Header decode included: it is how the payload is found.
      ScopedSpan span(tracer, "dissect", root.id());
      std::uint64_t dissected = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto decoded = qs::net::decode_ipv4(packets[i].data);
        if (!decoded || !decoded->is_udp()) continue;
        const auto& udp = decoded->udp();
        if (udp.src_port != 443 && udp.dst_port != 443) continue;
        quic_payloads += qs::quic::dissect_udp_payload(udp.payload).is_quic;
        ++dissected;
      }
      span.set_items(dissected);
      out.dissected += dissected;
    }
    {
      ScopedSpan span(tracer, "classify", root.id());
      for (std::size_t i = 0; i < n; ++i) {
        if (const auto record = classifier.classify(packets[i])) {
          if (qs::core::keep_for_analysis(*record)) records.push_back(*record);
        }
      }
      span.set_items(n);
    }
    out.packets += n;
  }
  out.records = records.size();
  out.record_bytes = records.size() * sizeof(qs::core::PacketRecord);

  const qs::core::PipelineOptions defaults;
  std::vector<qs::core::Session> response;
  std::vector<qs::core::Session> common;
  for (const auto& [filter, sink] :
       {std::pair{qs::core::quic_request_filter(),
                  static_cast<std::vector<qs::core::Session>*>(nullptr)},
        std::pair{qs::core::quic_response_filter(), &response},
        std::pair{qs::core::common_backscatter_filter(), &common}}) {
    ScopedSpan span(tracer, "sessionize", root.id());
    auto sessions =
        qs::core::build_sessions(records, defaults.session_timeout, filter);
    span.set_items(records.size());
    out.sessions += sessions.size();
    if (sink != nullptr) *sink = std::move(sessions);
  }
  std::vector<qs::core::DetectedAttack> quic_attacks;
  std::vector<qs::core::DetectedAttack> common_attacks;
  {
    ScopedSpan span(tracer, "detect", root.id());
    quic_attacks = qs::core::detect_attacks(response, defaults.thresholds);
    common_attacks = qs::core::detect_attacks(common, defaults.thresholds);
    span.set_items(response.size() + common.size());
  }
  {
    ScopedSpan span(tracer, "victims", root.id());
    const auto report =
        qs::core::analyze_victims(quic_attacks, registry(), deployment());
    span.set_items(report.total_attacks);
  }
  {
    ScopedSpan span(tracer, "correlate", root.id());
    const auto report =
        qs::core::correlate_attacks(quic_attacks, common_attacks);
    span.set_items(report.total());
  }

  // The live path's sessionizer, fed the same records on one shard.
  qs::core::ShardedOnlineDetectorConfig online_config;
  online_config.shards = 1;
  auto online =
      std::make_unique<qs::core::ShardedOnlineDetector>(online_config);
  for (std::size_t offset = 0; offset < records.size();
       offset += kSerialBatch) {
    const std::size_t end = std::min(records.size(), offset + kSerialBatch);
    {
      ScopedSpan span(tracer, "online", root.id());
      for (std::size_t i = offset; i < end; ++i) online->consume(0, records[i]);
      span.set_items(end - offset);
    }
    out.online_open_max =
        std::max<std::uint64_t>(out.online_open_max, online->open_sessions());
  }
  {
    ScopedSpan span(tracer, "online", root.id());
    online->finish();
  }
  {
    // Freeing what the layers built is their cost too; timed here so
    // that it does not land in the pass's own self time.
    ScopedSpan span(tracer, "release", root.id());
    online.reset();
    std::vector<qs::core::Session>().swap(response);
    std::vector<qs::core::Session>().swap(common);
    std::vector<qs::core::PacketRecord>().swap(records);
    std::vector<qs::net::RawPacket>().swap(packets);
  }
  out.dissected_quic = quic_payloads;
  root.set_items(out.packets);
  return out;
}

}  // namespace sensorbench
