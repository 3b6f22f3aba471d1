// The four workloads and the two kinds of run over them.
//
//   e1_analyze     SdChecker::analyze_directory over the E1 corpus,
//                  1 thread (the CLI default)
//   rm_heavy       the same pipeline over the large-rm.log synthetic,
//                  min(nproc, 4) threads
//   fleet_skewed   analyze_fleet over 16 simulated corpora of skewed
//                  sizes, min(nproc, 4) threads
//   follow_replay  the E1 corpus replayed live through FollowService in
//                  fixed slices, one closed-loop client
//
// An untraced run reports the end-to-end metrics; a traced run reports
// the per-layer metrics (see NOTES.md for the layer -> end-to-end map).
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace bench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny corpora, one set-up: for the benchmark's self-test.
  bool smoke = false;
  /// Scratch space for corpora and outputs (created and removed by the
  /// caller).
  std::filesystem::path work;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs one workload; throws only when the run itself cannot proceed
/// (corpus generation failed, disk full).  Wrong outputs are counted in
/// `failed`, never thrown.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace bench
