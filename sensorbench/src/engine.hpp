// The one place the benchmark drives QUICsand's analysis code.
//
//   run_offline  core::ParallelPipeline over a pcap capture, as the
//                figure harnesses (fig06) drive it;
//   run_live     LiveSender -> loopback UDP -> LiveReceiver -> per-shard
//                Classifier + ShardedOnlineDetector, with the 1 s
//                obs::Sampler, wired as `monitor --live` wires them;
//   run_serial   the traced layer-by-layer pass: each layer's public
//                function called in turn on one thread.
//
// When the engines are consolidated or renamed, only this file and its
// source change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dos.hpp"
#include "inputs.hpp"
#include "trace.hpp"

namespace sensorbench {

/// Analysis shards on every path (the reference box has nproc = 4:
/// offline runs one reader and two workers, live one sender, one
/// receiver and two shard workers).
constexpr std::size_t kShards = 2;
/// Offered rate of every live replay.
constexpr double kLivePps = 150000;

struct OfflineResult {
  std::uint64_t packets = 0;   ///< ClassifierStats::total
  std::uint64_t records = 0;   ///< sanitized records the engine holds
  std::uint64_t sessions = 0;  ///< request + response + common, 5 min
  std::uint64_t hourly_quic = 0;  ///< packets in the hourly QUIC series
  std::vector<quicsand::core::DetectedAttack> quic_attacks;
  std::uint64_t common_attacks = 0;
  std::uint64_t victims = 0;
  std::uint64_t correlated = 0;
  double wall_s = 0;    ///< capture opened -> complete result
  double cpu_s = 0;     ///< process CPU over the same interval
  double ingest_s = 0;  ///< inside ParallelPipeline consume_batch + finish
  /// Sampled packets: read off the capture -> their batch handed to
  /// consume_batch(). The engine does not expose when a batch's
  /// classification completes; the time blocked inside consume_batch is
  /// in ingest_s.
  std::vector<double> pkt_latency_us;
  /// End of the capture -> result complete. A batch analysis reports
  /// every attack at once, so this is each attack's alert latency.
  double report_latency_us = 0;
};

/// One full offline analysis of `capture` on kShards shards. With an
/// enabled tracer, the pass is one "engine" span (under `parent`) whose
/// children are the per-batch reads, the ingest calls and the analysis.
OfflineResult run_offline(const quicsand::telescope::ScenarioConfig& scenario,
                          const std::string& capture, Tracer& tracer,
                          std::int32_t parent = -1);

struct LiveResult {
  bool started = false;  ///< sockets available
  std::string error;
  std::uint64_t sent = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t received = 0;
  std::uint64_t delivered = 0;
  std::uint64_t consumed = 0;  ///< records the classifiers passed on
  std::uint64_t dropped_ring = 0;
  std::uint64_t dropped_kernel = 0;
  std::uint64_t undecodable = 0;
  bool drained = false;  ///< every sent datagram accounted before stop
  double wall_s = 0;     ///< first send -> receiver stopped, drained
  double cpu_s = 0;      ///< process CPU over wall_s, sender excluded
  double peak_rss_mb = 0;  ///< peak memory added, receiver start -> stop
  double steal_pct = 0;    ///< host steal over wall_s
  double sender_cpu_s = 0;
  double sender_late_ms = 0;  ///< worst lag behind the send schedule
  double offered_pps = 0;     ///< sent / (first send -> last send)
  std::uint64_t alerts = 0;
  std::vector<quicsand::core::DetectedAttack> attacks;
  std::vector<double> pkt_latency_us;    ///< send stamp -> sink return
  std::vector<double> pkt_sent_us;       ///< those samples' send stamps
  std::vector<double> alert_latency_us;  ///< send stamp -> alert callback
  // Traced runs only.
  std::vector<double> wire_us;       ///< send stamp -> receive stamp
  std::vector<double> ring_wait_us;  ///< receive stamp -> sink entry
  std::vector<double> sampler_pass_us;
  double open_sessions_gauge_max = 0;
  double consume_s = 0;  ///< inside ShardedOnlineDetector::consume
  std::uint64_t consume_allocs = 0;
};

/// Replay the first `count` datagrams of `stream` in order, open loop,
/// at kLivePps, then drain and stop. `traced` adds per-layer timing in
/// the sink and replaces the sampler's own thread with a benchmark
/// cadence that times each Sampler::sample_once pass.
LiveResult run_live(const Stream& stream, std::size_t count, bool traced);

struct SerialResult {
  std::int32_t root = -1;  ///< the "serial" span
  std::uint64_t packets = 0;
  std::uint64_t dissected = 0;  ///< UDP/443 payloads dissected
  std::uint64_t dissected_quic = 0;  ///< of those, accepted as QUIC
  std::uint64_t records = 0;
  std::uint64_t record_bytes = 0;
  std::uint64_t sessions = 0;
  std::uint64_t online_open_max = 0;
};

/// Read `capture` and call each layer in turn: pcap read, dissect,
/// classify (per batch of packets), then sessionize, detect, victims,
/// correlate and the online detector over the records. Needs an
/// enabled tracer: the per-layer numbers are its span totals.
SerialResult run_serial(const std::string& capture, Tracer& tracer);

}  // namespace sensorbench
