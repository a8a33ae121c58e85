// The three workloads: set-up, timed phase, checks and metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "inputs.hpp"

namespace sensorbench {

struct RunConfig {
  Workload workload = Workload::kOfflineFloods;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool traced = false;
  std::string work_dir;  ///< where captures and span dumps go
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  ///< observations behind the value
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< packets offered to the sensor
  std::uint64_t failed = 0;     ///< lost, or in a pass that failed a check
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<std::string> notes;     ///< run details for the log
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// A live run whose sender offered less than this share of kLivePps,
/// from its first send to its last, is invalid: its latency and loss
/// would describe the load generator. The schedule catches up after a
/// stall, so only a sender that cannot sustain the rate falls short.
constexpr double kMinOfferedShare = 0.95;
/// latency.alert_p90_us needs at least this many alerts (10 beyond it).
constexpr std::uint64_t kMinAlerts = 100;

Outcome run_workload(const RunConfig& config);

}  // namespace sensorbench
