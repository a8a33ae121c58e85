#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "engine.hpp"
#include "measure.hpp"
#include "trace.hpp"
#include "yardstick.hpp"

namespace sensorbench {

namespace qs = quicsand;

namespace {

/// Offline passes per run, at least.
constexpr int kMinPasses = 3;
/// The traced offline run replays this long a slice of its capture over
/// loopback, for the socket-path layers.
constexpr double kLiveSliceSeconds = 1.0;
/// The live packet tail is the median of per-second p95s, over the
/// seconds with enough samples for fifty beyond their p95.
constexpr double kTailWindowUs = 1e6;
constexpr std::size_t kMinTailSamples = 1000;
/// Loopback yardstick runs (0.5 s each) before and after a live replay.
constexpr int kLoopbackGauges = 4;
/// The traced live run times engine passes over its stream this long.
constexpr double kLiveOverheadSeconds = 3.0;

std::string fmt(const char* format, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof buf, format, args...);
  return buf;
}

void add(Outcome& out, std::string name, double value, std::string unit,
         std::uint64_t samples) {
  out.metrics.push_back({std::move(name), value, std::move(unit), samples});
}

/// Record a failed check; returns `ok` so callers can count the pass.
bool check(Outcome& out, bool ok, const std::string& what) {
  if (!ok) {
    out.correct = false;
    out.failures.push_back(what);
  }
  return ok;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Median for integer-valued samples (whole microseconds): each value v
/// stands for the interval [v - 0.5, v + 0.5), and the median is
/// interpolated inside the interval that holds it.
double quantized_median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double half = static_cast<double>(values.size()) / 2.0;
  const double v = values[values.size() / 2];
  const auto below = static_cast<double>(
      std::lower_bound(values.begin(), values.end(), v) - values.begin());
  const auto equal = static_cast<double>(
      std::upper_bound(values.begin(), values.end(), v) - values.begin()) -
      below;
  return v - 0.5 + (half - below) / equal;
}

std::string capture_path(const RunConfig& config) {
  return config.work_dir + "/" + workload_name(config.workload) + "-" +
         std::to_string(config.seed) + ".pcap";
}

/// kSetups set-ups; each must make the same input. setup_s is the
/// median of their process CPU times on the reference scale: each divided
/// by the one-thread compute yardstick's slowdown, averaged over the
/// gauges taken just before and just after it. The wall time of writing a
/// capture also holds the wait for the disk, which follows the machine's
/// other tenants rather than the generator.
/// setup_s is an end-to-end metric: the traced run only logs it.
template <typename SetUp>
Input repeated_setup(Outcome& out, bool traced, SetUp&& set_up) {
  std::vector<double> cpu, scaled;
  std::string wall = "set-ups: wall";
  std::string slow_note = " s; host slowdown";
  Input input;
  double before = traced ? 1 : compute_slowdown(1);
  for (int i = 0; i < kSetups; ++i) {
    const double start = now_s();
    const double cpu_start = process_cpu_s();
    Input made = set_up();
    cpu.push_back(process_cpu_s() - cpu_start);
    wall += fmt(" %.3f", now_s() - start);
    if (!traced) {
      const double after = compute_slowdown(1);
      const double slowdown = (before + after) / 2;
      scaled.push_back(cpu.back() / slowdown);
      slow_note += fmt(" %.3f", slowdown);
      before = after;
    }
    if (i > 0) {
      check(out, made.packets == input.packets && made.bytes == input.bytes,
            "set-up made a different input on repetition");
    }
    input = std::move(made);
  }
  std::string cpu_note = " s, CPU";
  for (const double v : cpu) cpu_note += fmt(" %.3f", v);
  if (!traced) {
    out.notes.push_back(wall + cpu_note + slow_note);
    add(out, "setup_s", median(scaled), "s", scaled.size());
  } else {
    out.notes.push_back(wall + cpu_note + " s");
  }
  out.notes.push_back(fmt("input: %llu packets, %llu bytes",
                          static_cast<unsigned long long>(input.packets),
                          static_cast<unsigned long long>(input.bytes)));
  return input;
}

/// Detection floors; a failure fails every packet the run offered.
void check_score(Outcome& out, const Score& s) {
  bool ok = check(out, s.precision >= kPrecisionFloor,
                  fmt("attack precision %.4f below %.2f", s.precision,
                      kPrecisionFloor));
  ok &= check(out, s.recall >= kRecallFloor,
              fmt("attack recall %.4f below %.2f", s.recall, kRecallFloor));
  if (!ok) out.failed = out.attempted;
  out.notes.push_back(fmt("score: %llu detected, %llu planned, %llu "
                          "comfortably detectable",
                          static_cast<unsigned long long>(s.detected),
                          static_cast<unsigned long long>(s.planned),
                          static_cast<unsigned long long>(s.detectable)));
}

void add_score(Outcome& out, const Score& s, std::uint64_t samples) {
  add(out, "attack_precision", s.precision, "ratio", samples);
  add(out, "attack_recall", s.recall, "ratio", samples);
  check_score(out, s);
}

// ---------------------------------------------------------------- offline

/// Checks of one offline pass against its input; false fails the pass.
bool check_offline(Outcome& out, const OfflineResult& r, const Input& input,
                   const std::vector<qs::core::DetectedAttack>& reference) {
  bool ok = check(out, r.packets == input.packets,
                  fmt("stats().total %llu != %llu packets in the capture",
                      static_cast<unsigned long long>(r.packets),
                      static_cast<unsigned long long>(input.packets)));
  ok &= check(out, r.quic_attacks == reference,
              "QUIC attacks differ between passes over one capture");
  return ok;
}

/// Packet and alert latency quantiles, one entry per pass.
struct Latencies {
  std::vector<double> pkt_p50, pkt_p95, alert_p50, alert_p90;
  std::uint64_t pkt_samples = 0;
  std::uint64_t alert_samples = 0;
};

void add_pass(Latencies& l, OfflineResult& r) {
  l.pkt_samples += r.pkt_latency_us.size();
  l.pkt_p50.push_back(quantile(r.pkt_latency_us, 0.5));
  l.pkt_p95.push_back(quantile(r.pkt_latency_us, 0.95));
  // One report per pass: every attack's alert waits the same time.
  l.alert_p50.push_back(r.report_latency_us);
  l.alert_p90.push_back(r.report_latency_us);
  ++l.alert_samples;
}

Latencies live_latencies(const LiveResult& r) {
  auto pkt = r.pkt_latency_us;
  auto alert = r.alert_latency_us;
  return {{quantile(pkt, 0.5)},
          {windowed_quantile(r.pkt_sent_us, r.pkt_latency_us, kTailWindowUs,
                             0.95, kMinTailSamples)},
          {quantile(alert, 0.5)},
          {quantile(alert, 0.9)},
          pkt.size(),
          alert.size()};
}

/// Latency is a per-layer metric of the traced run, and a note of the
/// untraced one: on a shared VM it follows the host's steal time, which
/// spreads it across runs far past any usable bound (NOTES.md).
void add_latencies(Outcome& out, Latencies l, bool traced) {
  const double pkt_p50 = median(std::move(l.pkt_p50));
  const double pkt_p95 = median(std::move(l.pkt_p95));
  const double alert_p50 = median(std::move(l.alert_p50));
  const double alert_p90 = median(std::move(l.alert_p90));
  if (!traced) {
    out.notes.push_back(fmt("latency: packets p50 %.1f us, p95 %.1f us; "
                            "alerts p50 %.1f us, p90 %.1f us",
                            pkt_p50, pkt_p95, alert_p50, alert_p90));
    return;
  }
  add(out, "latency.pkt_p50_us", pkt_p50, "us", l.pkt_samples);
  add(out, "latency.pkt_p95_us", pkt_p95, "us", l.pkt_samples);
  add(out, "latency.alert_p50_us", alert_p50, "us", l.alert_samples);
  add(out, "latency.alert_p90_us", alert_p90, "us", l.alert_samples);
}

/// Peak memory per record the sensor kept (offline: sanitized records
/// held; live: records consumed). Peak MB alone follows the seed's
/// attack volume, which is heavy-tailed; per record it follows the
/// sensor.
void add_memory(Outcome& out, double peak_mb, std::uint64_t records,
                std::uint64_t samples) {
  out.notes.push_back(fmt("peak memory added: %.1f MB over %llu records",
                          peak_mb, static_cast<unsigned long long>(records)));
  add(out, "rss_bytes_per_record",
      ratio(peak_mb * 1024 * 1024, static_cast<double>(records)),
      "bytes/record", samples);
}

void timed_offline(const RunConfig& config,
                   const qs::telescope::ScenarioConfig& scenario,
                   const std::string& path, const Input& input,
                   Outcome& out) {
  Tracer off(false, 0);
  std::vector<double> pps, cpu, delivered;
  Latencies latencies;
  std::vector<qs::core::DetectedAttack> reference;
  Score first_score;
  std::uint64_t records = 0;
  const double deadline = now_s() + config.seconds;
  double last_pass_s = 0;
  // Each pass is put on the reference scale by the slowdown of the
  // compute yardstick on the pass's threads, averaged over the gauges
  // taken just before and just after it.
  std::vector<double> raw_pps, raw_cpu, slowdowns;
  double before = compute_slowdown(kShards + 1);
  // One peak over all passes: the footprint of a process that keeps
  // analyzing captures, which per-pass allocator noise does not move.
  PeakRss peak;
  peak.start();
  HostSteal steal;
  steal.start();
  for (int pass = 0;
       pass < kMinPasses || now_s() + last_pass_s <= deadline; ++pass) {
    const double pass_start = now_s();
    auto r = run_offline(scenario, path, off);
    const double after = compute_slowdown(kShards + 1);
    const double slowdown = (before + after) / 2;
    before = after;
    last_pass_s = now_s() - pass_start;
    if (pass == 0) {
      records = r.records;
      out.notes.push_back(fmt(
          "result: %llu records, %llu sessions, %zu QUIC and %llu TCP/ICMP "
          "attacks, %llu victims, %llu correlated, %llu packets in the "
          "hourly QUIC series",
          static_cast<unsigned long long>(r.records),
          static_cast<unsigned long long>(r.sessions), r.quic_attacks.size(),
          static_cast<unsigned long long>(r.common_attacks),
          static_cast<unsigned long long>(r.victims),
          static_cast<unsigned long long>(r.correlated),
          static_cast<unsigned long long>(r.hourly_quic)));
      reference = r.quic_attacks;
      first_score = score(r.quic_attacks, input.truth, input.last);
      check(out, r.quic_attacks.size() >= kMinAlerts,
            fmt("%zu attacks detected, fewer than %llu",
                r.quic_attacks.size(),
                static_cast<unsigned long long>(kMinAlerts)));
    }
    out.attempted += input.packets;
    if (!check_offline(out, r, input, reference)) {
      out.failed += input.packets;
    }
    raw_pps.push_back(ratio(static_cast<double>(r.packets), r.wall_s));
    raw_cpu.push_back(ratio(r.cpu_s * 1e6, static_cast<double>(r.packets)));
    slowdowns.push_back(slowdown);
    pps.push_back(raw_pps.back() * slowdown);
    cpu.push_back(raw_cpu.back() / slowdown);
    delivered.push_back(
        100.0 * ratio(static_cast<double>(r.packets),
                      static_cast<double>(input.packets)));
    add_pass(latencies, r);
  }
  const auto passes = pps.size();
  std::string per_pass = "pkt/s per pass, as measured:";
  for (const double v : raw_pps) per_pass += fmt(" %.4g", v);
  out.notes.push_back(per_pass + fmt(" (host steal %.1f%%)", steal.pct()));
  std::string slow_note = "host slowdown per pass:";
  for (const double v : slowdowns) slow_note += fmt(" %.3f", v);
  out.notes.push_back(slow_note);
  out.notes.push_back(fmt("as measured: %.4g pkt/s, %.4f us CPU per packet "
                          "(medians)",
                          median(raw_pps), median(raw_cpu)));
  add(out, "pkts_per_s", median(pps), "pkt/s", passes);
  add(out, "cpu_us_per_pkt", median(cpu), "us", passes);
  add_memory(out, peak.added_mb(), records, passes);
  add_latencies(out, std::move(latencies), false);
  add(out, "delivered_pct", median(delivered), "%", passes);
  add_score(out, first_score, passes);
}

// ------------------------------------------------------------------- live

/// Checks of one live pass; the failed count is what did not arrive.
void check_live(Outcome& out, const LiveResult& r, std::size_t offered) {
  out.attempted += offered;
  out.failed += offered - std::min<std::uint64_t>(r.delivered, offered);
  check(out, r.started, "loopback sockets unavailable: " + r.error);
  check(out, r.sent == offered && r.send_failures == 0,
        fmt("sent %llu of %zu datagrams (%llu send failures)",
            static_cast<unsigned long long>(r.sent), offered,
            static_cast<unsigned long long>(r.send_failures)));
  check(out, r.drained,
        fmt("drain timed out: %llu of %llu datagrams received",
            static_cast<unsigned long long>(r.received + r.dropped_kernel),
            static_cast<unsigned long long>(r.sent)));
  check(out, r.sent == r.delivered + r.dropped_ring + r.dropped_kernel,
        fmt("accounting: sent %llu != delivered %llu + ring drops %llu + "
            "kernel drops %llu",
            static_cast<unsigned long long>(r.sent),
            static_cast<unsigned long long>(r.delivered),
            static_cast<unsigned long long>(r.dropped_ring),
            static_cast<unsigned long long>(r.dropped_kernel)));
  check(out, r.undecodable == 0, "undecodable datagrams in a clean stream");
  check(out, r.offered_pps >= kMinOfferedShare * kLivePps,
        fmt("invalid run: sender offered %.0f pps, below %.0f%% of %.0f",
            r.offered_pps, kMinOfferedShare * 100, kLivePps));
  out.notes.push_back(fmt(
      "live: sent %llu, delivered %llu, ring drops %llu, kernel drops %llu, "
      "%llu alerts, sender offered %.0f pps and was %.2f ms late at worst, "
      "host steal %.1f%%",
      static_cast<unsigned long long>(r.sent),
      static_cast<unsigned long long>(r.delivered),
      static_cast<unsigned long long>(r.dropped_ring),
      static_cast<unsigned long long>(r.dropped_kernel),
      static_cast<unsigned long long>(r.alerts), r.offered_pps,
      r.sender_late_ms, r.steal_pct));
}

// ------------------------------------------------------------ per layer

/// Tracing overhead: the same engine pass with spans on and off. Returns
/// the untraced passes' latencies.
Latencies overhead_passes(const RunConfig& config,
                          const qs::telescope::ScenarioConfig& scenario,
                          const std::string& path, std::uint64_t packets,
                          const qs::telescope::GroundTruth* score_against,
                          qs::util::Timestamp replay_end, Tracer& tracer,
                          Outcome& out) {
  Tracer off(false, 0);
  Latencies untraced;
  std::vector<double> traced_pps, traced_cpu, plain_pps, plain_cpu, ingest;
  const double deadline = now_s() + config.seconds;
  bool traced_first = true;
  do {
    // Alternate which side runs first, so that neither pays the other's
    // warm-up.
    OfflineResult traced;
    OfflineResult plain;
    if (traced_first) {
      traced = run_offline(scenario, path, tracer);
      plain = run_offline(scenario, path, off);
    } else {
      plain = run_offline(scenario, path, off);
      traced = run_offline(scenario, path, tracer);
    }
    traced_first = !traced_first;
    for (const auto* r : {&traced, &plain}) {
      out.attempted += packets;
      if (!check(out, r->packets == packets,
                 fmt("stats().total %llu != %llu packets in the capture",
                     static_cast<unsigned long long>(r->packets),
                     static_cast<unsigned long long>(packets)))) {
        out.failed += packets;
      }
    }
    if (score_against != nullptr && traced_pps.empty()) {
      check_score(out, score(traced.quic_attacks, *score_against,
                             replay_end));
    }
    const auto n = static_cast<double>(traced.packets);
    traced_pps.push_back(ratio(n, traced.wall_s));
    traced_cpu.push_back(ratio(traced.cpu_s * 1e6, n));
    plain_pps.push_back(ratio(n, plain.wall_s));
    plain_cpu.push_back(ratio(plain.cpu_s * 1e6, n));
    ingest.push_back(ratio(traced.ingest_s * 1e9, n));
    add_pass(untraced, plain);
  } while (now_s() < deadline);
  const auto passes = traced_pps.size();
  const double tp = median(traced_pps), pp = median(plain_pps);
  const double tc = median(traced_cpu), pc = median(plain_cpu);
  add(out, "stage.ingest.ns_per_pkt", median(ingest), "ns", passes);
  add(out, "trace.pkts_per_s", tp, "pkt/s", passes);
  add(out, "trace.cpu_us_per_pkt", tc, "us", passes);
  add(out, "trace.untraced_pkts_per_s", pp, "pkt/s", passes);
  add(out, "trace.untraced_cpu_us_per_pkt", pc, "us", passes);
  add(out, "trace.overhead_pkts_per_s_pct", 100.0 * ratio(pp - tp, pp), "%",
      passes);
  add(out, "trace.overhead_cpu_pct", 100.0 * ratio(tc - pc, pc), "%", passes);
  return untraced;
}

void serial_layers(const std::string& path, Tracer& tracer, Outcome& out) {
  const auto s = run_serial(path, tracer);
  out.notes.push_back(fmt("serial pass: %llu packets, %llu UDP/443 payloads "
                          "dissected, %llu of them QUIC",
                          static_cast<unsigned long long>(s.packets),
                          static_cast<unsigned long long>(s.dissected),
                          static_cast<unsigned long long>(s.dissected_quic)));
  const auto per = [&](const char* name, double items, double scale) {
    const auto t = tracer.totals(name, s.root);
    return std::pair{ratio(t.self_s * scale, items),
                     ratio(static_cast<double>(t.allocs), items)};
  };
  const double packets = static_cast<double>(s.packets);
  const double records = static_cast<double>(s.records);
  const auto read = per("pcap_read", packets, 1e9);
  const auto dissect = per("dissect", static_cast<double>(s.dissected), 1e9);
  const auto classify = per("classify", packets, 1e9);
  const auto sessionize = per("sessionize", records, 1e9);
  const auto online = per("online", records, 1e9);
  add(out, "stage.pcap_read.ns_per_pkt", read.first, "ns", s.packets);
  add(out, "stage.pcap_read.allocs_per_pkt", read.second, "count", s.packets);
  add(out, "stage.dissect.ns_per_pkt", dissect.first, "ns", s.dissected);
  add(out, "stage.classify.ns_per_pkt", classify.first, "ns", s.packets);
  add(out, "stage.classify.allocs_per_pkt", classify.second, "count",
      s.packets);
  add(out, "stage.sessionize.ns_per_record", sessionize.first, "ns",
      s.records);
  add(out, "stage.sessionize.allocs_per_record", sessionize.second, "count",
      s.records);
  add(out, "stage.sessions.count", static_cast<double>(s.sessions), "count",
      1);
  add(out, "stage.records.bytes", static_cast<double>(s.record_bytes),
      "bytes", s.records);
  for (const char* name : {"detect", "victims", "correlate", "release"}) {
    const auto t = tracer.totals(name, s.root);
    add(out, std::string("stage.") + name + ".ms", t.self_s * 1e3, "ms",
        t.spans);
  }
  add(out, "stage.online.ns_per_record", online.first, "ns", s.records);
  add(out, "stage.online.allocs_per_record", online.second, "count",
      s.records);
  add(out, "stage.online.open_sessions_max",
      static_cast<double>(s.online_open_max), "count", 1);

  // Self times of the serial pass: the layers' plus the pass's own.
  const double wall = tracer.duration_s(s.root);
  double layers = 0;
  for (const char* name : {"pcap_read", "dissect", "classify", "sessionize",
                           "detect", "victims", "correlate", "online",
                           "release"}) {
    layers += tracer.totals(name, s.root).self_s;
  }
  add(out, "trace.serial.wall_ms", wall * 1e3, "ms", 1);
  add(out, "trace.serial.layers_self_ms", layers * 1e3, "ms", 1);
  add(out, "trace.serial.unattributed_pct",
      100.0 * ratio(tracer.self_s(s.root), wall), "%", 1);
}

void live_layers(const LiveResult& r, Outcome& out) {
  add(out, "stage.wire.us_p50", quantized_median(r.wire_us), "us",
      r.wire_us.size());
  auto ring = r.ring_wait_us;
  add(out, "stage.ring.wait_us_p50", quantile(ring, 0.5), "us",
      r.ring_wait_us.size());
  add(out, "stage.online.live_ns_per_record",
      ratio(r.consume_s * 1e9, static_cast<double>(r.consumed)), "ns",
      r.consumed);
  add(out, "stage.online.live_allocs_per_record",
      ratio(static_cast<double>(r.consume_allocs),
            static_cast<double>(r.consumed)),
      "count", r.consumed);
  add(out, "stage.online.live_open_sessions_max", r.open_sessions_gauge_max,
      "count", r.sampler_pass_us.size());
  add(out, "stage.sampler.us_per_pass", median(r.sampler_pass_us), "us",
      r.sampler_pass_us.size());
  add(out, "stage.sender.cpu_us_per_pkt",
      ratio(r.sender_cpu_s * 1e6, static_cast<double>(r.sent)), "us", r.sent);
  add(out, "stage.sender.late_ms", r.sender_late_ms, "ms", 1);
}

void add_generate(Outcome& out, const Tracer& setup_tracer) {
  const auto t = setup_tracer.totals("generate");
  add(out, "stage.generate.ns_per_pkt",
      ratio(t.total_s * 1e9, static_cast<double>(t.items)), "ns", t.items);
}

void write_spans(const RunConfig& config, const Tracer& setup,
                 const Tracer& tracer, Outcome& out) {
  const std::string base = config.work_dir + "/spans-" +
                           workload_name(config.workload) + "-" +
                           std::to_string(config.seed);
  if (setup.write(base + "-setup.jsonl") && tracer.write(base + ".jsonl")) {
    out.notes.push_back("spans written to " + base + "{-setup,}.jsonl");
  }
}

// -------------------------------------------------------------- workloads

Outcome offline_workload(const RunConfig& config) {
  Outcome out;
  const auto scenario = light_scenario(config.seed);
  const auto path = capture_path(config);
  Tracer setup(config.traced, 0);
  const Input input = repeated_setup(
      out, config.traced,
      [&] { return write_capture(scenario, path, setup); });
  if (!config.traced) {
    timed_offline(config, scenario, path, input, out);
  } else {
    Tracer tracer(true, 1);
    add_generate(out, setup);
    serial_layers(path, tracer, out);
    add_latencies(out,
                  overhead_passes(config, scenario, path, input.packets,
                                  &input.truth, input.last, tracer, out),
                  true);
    Stream slice;
    const auto n = read_capture(
        path, static_cast<std::size_t>(kLivePps * kLiveSliceSeconds), slice);
    const auto live = run_live(slice, n, true);
    check_live(out, live, n);
    live_layers(live, out);
    write_spans(config, setup, tracer, out);
  }
  std::remove(path.c_str());
  return out;
}

Outcome live_workload(const RunConfig& config) {
  Outcome out;
  const auto scenario = light_scenario(config.seed);
  const auto count = static_cast<std::size_t>(kLivePps * config.seconds);
  Tracer setup(config.traced, 0);
  Stream stream;
  bool enough = true;
  const Input input = repeated_setup(out, config.traced, [&] {
    stream = Stream{};  // every set-up starts from no buffer
    auto made = build_stream(scenario, count, stream, setup);
    enough &= made.has_value();
    return made.value_or(Input{});
  });
  if (!check(out, enough, "scenario holds fewer datagrams than the run")) {
    return out;
  }

  // The live CPU is put on the reference scale by the loopback
  // yardstick's slowdown, gauged before and after the replay while no
  // thread of the program runs.
  const double before =
      config.traced ? 1 : loopback_slowdown(kLoopbackGauges);
  const auto r = run_live(stream, count, config.traced);
  const double after = config.traced ? 1 : loopback_slowdown(kLoopbackGauges);
  check(out, before > 0 && after > 0,
        "loopback yardstick: sockets unavailable");
  check_live(out, r, count);
  check(out, r.alert_latency_us.size() >= kMinAlerts,
        fmt("%zu alerts, fewer than %llu", r.alert_latency_us.size(),
            static_cast<unsigned long long>(kMinAlerts)));
  const auto live_score = score(r.attacks, input.truth, input.last);
  if (!config.traced) {
    const double delivered = static_cast<double>(r.delivered);
    add(out, "pkts_per_s", ratio(delivered, r.wall_s), "pkt/s", r.delivered);
    const double slowdown = (before + after) / 2;
    out.notes.push_back(fmt("host slowdown: loopback %.3f before, %.3f "
                            "after; CPU per datagram as measured %.4f us",
                            before, after,
                            ratio(r.cpu_s * 1e6, delivered)));
    add(out, "cpu_us_per_pkt",
        ratio(r.cpu_s * 1e6, delivered) / slowdown, "us", r.delivered);
    add_memory(out, r.peak_rss_mb, r.consumed, 1);
    add_latencies(out, live_latencies(r), false);
    add(out, "delivered_pct",
        100.0 * ratio(delivered, static_cast<double>(r.sent)), "%", r.sent);
    add_score(out, live_score, 1);
  } else {
    check_score(out, live_score);
    Tracer tracer(true, 1);
    add_generate(out, setup);
    live_layers(r, out);
    add_latencies(out, live_latencies(r), true);
    const auto path = capture_path(config);
    write_stream_capture(stream, path);
    serial_layers(path, tracer, out);
    RunConfig one_pass = config;
    one_pass.seconds = kLiveOverheadSeconds;
    // The live replay's latencies are reported, not the engine passes'.
    (void)overhead_passes(one_pass, scenario, path, count, nullptr,
                          input.last, tracer, out);
    write_spans(config, setup, tracer, out);
    std::remove(path.c_str());
  }
  return out;
}

}  // namespace

Outcome run_workload(const RunConfig& config) {
  return is_offline(config.workload) ? offline_workload(config)
                                     : live_workload(config);
}

}  // namespace sensorbench
