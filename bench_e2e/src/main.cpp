// bench_e2e: the end-to-end benchmark of analyze, fleet and follow.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
//             [--work DIR]
//
// Prints a human-readable metric table and, as the last line of stdout,
// one JSON object: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
// Exit code 0 means the run completed (a failed correctness check is
// reported in the JSON, not by the exit code); 2 is a usage error, 1 a
// run that could not complete.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/json.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload e1_analyze|rm_heavy|fleet_skewed|"
               "follow_replay --seed N --seconds S --trace 0|1 [--smoke] "
               "[--work DIR]\n");
  return 2;
}

std::string format_value(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bench::RunOptions options;
  options.work = std::filesystem::current_path() / ".bench_work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--work" && has_value) {
      options.work = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload || !bench::known_workload(options.workload) ||
      !(options.seconds > 0)) {
    return usage();
  }
  options.work /= options.workload + "." + std::to_string(getpid());

  // Deleting tens of thousands of corpus files leaves journal and
  // writeback work behind; flush it before set-up starts and after this
  // run's own clean-up, so it never lands in a later measurement.
  const auto clean_up = [&options] {
    std::error_code ec;
    std::filesystem::remove_all(options.work, ec);
    try {
      bench::sync_filesystem(options.work.parent_path());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    }
  };
  bench::RunResult result;
  try {
    std::filesystem::create_directories(options.work);
    bench::sync_filesystem(options.work);
    result = bench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    clean_up();
    return 1;
  }
  clean_up();

  sdc::json::Writer json;
  json.begin_object();
  json.key("correct").value(result.failed == 0);
  json.key("attempted").value(static_cast<std::int64_t>(result.attempted));
  json.key("failed").value(static_cast<std::int64_t>(result.failed));
  json.key("metrics").begin_object();
  for (const bench::Metric& metric : result.metrics) {
    std::printf("  %-28s %16s %s\n", metric.name.c_str(),
                format_value(metric.value).c_str(), metric.unit.c_str());
    json.key(metric.name).begin_object();
    json.key("value");
    if (std::isfinite(metric.value)) {
      json.raw(format_value(metric.value));
    } else {
      json.null();
    }
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return 0;
}
