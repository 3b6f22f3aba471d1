// Seeded corpus generators.  Each runs inside a forked child (see
// measure.hpp run_in_child), writes the corpus plus a ground-truth side
// file next to it, and exits; the measuring process only ever sees the
// files on disk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace bench {

/// E1-shaped corpus: `jobs` TPC-H queries on the bursty submission trace,
/// exactly as `sdchecker simulate --jobs N --seed S` builds it (2,000
/// jobs: 10,026 files, 265,632 lines).
void write_tpch_corpus(const std::filesystem::path& dir, int jobs,
                       std::uint64_t seed);

/// The large-rm.log synthetic of bench_miner_throughput: one dominant
/// RM stream (~70% of lines), 8 NM streams and 24 driver/executor
/// instance families.  The seed varies per-app noise counts and the
/// epoch, not the shape.
void write_rm_heavy_corpus(const std::filesystem::path& dir,
                           std::size_t total_lines, std::uint64_t seed);

/// Job counts of the skewed fleet: `corpora` corpora, the largest
/// `largest_jobs`, falling off as 1/(i+1)^0.9.
[[nodiscard]] std::vector<int> fleet_job_counts(std::size_t corpora,
                                                int largest_jobs);

/// One completed job's scheduling delay as the simulator knows it.
struct TruthRow {
  std::string app;
  /// first_task_at - submitted_at in ms; negative when unknown.
  double total_ms = -1;
};
/// Ground-truth side file of a simulated corpus (written by
/// write_tpch_corpus next to `dir`, never inside it).
[[nodiscard]] std::filesystem::path truth_path(
    const std::filesystem::path& dir);
[[nodiscard]] std::vector<TruthRow> read_truth(
    const std::filesystem::path& dir);

}  // namespace bench
