// Sensor benchmark program: runs one workload and prints its metrics.
//
//   sensorbench --workload NAME --seed N --seconds S
//               [--work-dir DIR] [--commit ID]
//
// The binary decides what is measured: `sensorbench` prints the
// end-to-end metrics, `sensorbench_traced` (which links the allocation
// counting hook) the per-layer ones.
//
// Prints the run's provenance, one line per metric (name, value, unit,
// sample count), the failed checks, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness or accounting check failed, 2 on bad arguments.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "engine.hpp"
#include "measure.hpp"
#include "util/parse.hpp"
#include "workloads.hpp"

namespace {

using namespace sensorbench;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload offline_floods|live_loopback "
               "--seed N --seconds S "
               "[--work-dir DIR] [--commit ID]\n",
               argv0);
  return 2;
}

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.work_dir = ".";
  config.traced = allocations_counted();
  std::string commit = "unknown";
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) return usage(argv[0]);
      config.workload = *workload;
      have_workload = true;
    } else if (arg == "--seed") {
      const auto seed = quicsand::util::parse_u64(value);
      if (!seed) return usage(argv[0]);
      config.seed = *seed;
      have_seed = true;
    } else if (arg == "--seconds") {
      const auto seconds = quicsand::util::parse_u64(value);
      if (!seconds || *seconds == 0) return usage(argv[0]);
      config.seconds = static_cast<double>(*seconds);
    } else if (arg == "--work-dir") {
      config.work_dir = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload || !have_seed) return usage(argv[0]);
  ::mkdir(config.work_dir.c_str(), 0755);

  std::printf(
      "provenance: commit=%s nproc=%ld build_type=%s shards=%zu seed=%llu "
      "workload=%s offered_pps=%s seconds=%.0f trace=%d\n",
      commit.c_str(), sysconf(_SC_NPROCESSORS_ONLN), SENSORBENCH_BUILD_TYPE,
      kShards, static_cast<unsigned long long>(config.seed),
      workload_name(config.workload),
      is_offline(config.workload)
          ? "closed-loop"
          : std::to_string(static_cast<long>(kLivePps)).c_str(),
      config.seconds, config.traced ? 1 : 0);
  std::fflush(stdout);

  const Outcome out = run_workload(config);
  for (const auto& note : out.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& m : out.metrics) {
    std::printf("metric: %-36s %16.6f %-6s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const auto& failure : out.failures) {
    std::printf("FAILED: %s\n", failure.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  out.attempted, 1)),
              static_cast<unsigned long long>(out.failed));
  bool first = true;
  for (const auto& m : out.metrics) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(m.name);
    std::printf(": {\"value\": %.17g, \"unit\": ", m.value);
    print_json_string(m.unit);
    std::printf("}");
  }
  std::printf("}}\n");
  return out.correct ? 0 : 1;
}
