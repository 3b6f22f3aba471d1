// One batch operation, timed whole or layer by layer.
//
// `analyze_once` is what `sdchecker analyze --json` does: the entry call,
// the JSON render and write, and the destruction of every result.
// `analyze_traced` runs the same pipeline as separate calls into each
// layer's public functions, with a clock read between them, so no span
// inside the library is needed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace bench {

struct OpSample {
  double wall_s = 0;
  double cpu_s = 0;
  std::uint64_t hash = 0;
  /// Fleet only: each corpus document's hash, in corpus order.
  std::vector<std::uint64_t> part_hashes;
};

/// SdChecker::analyze_directory -> analysis_json -> write `out`.
[[nodiscard]] OpSample analyze_once(const std::filesystem::path& dir,
                                    std::size_t threads,
                                    const std::filesystem::path& out);

/// analyze_fleet over `corpora` -> every corpus's analysis_json and the
/// summary written under `out_dir`.  The hash covers every corpus
/// document in order.
[[nodiscard]] OpSample fleet_once(
    const std::vector<std::filesystem::path>& corpora, std::size_t threads,
    const std::filesystem::path& out_dir);

/// Layer times (seconds) and counts of one decomposed batch analysis.
struct LayerSample {
  // Rows of the pipeline, in order; they cover `total_s` but for the
  // few moves between calls.
  double open_s = 0;      // BundleView::read_from_directory
  double mine_s = 0;      // LogMiner::mine on that view
  double group_s = 0;     // group_events
  double finalize_s = 0;  // finalize_analysis + result assembly
  double render_s = 0;    // analysis_json
  double write_s = 0;     // writing the document
  double teardown_s = 0;  // destroying view, mined data and result
  double total_s = 0;
  // MinePlan protocol driven separately on the same view (not part of
  // `total_s`): the breakdown of `mine_s` into plan, chunks and stitch.
  double plan_s = 0;
  double chunk_busy_s = 0;
  double chunk_wall_s = 0;
  double stitch_s = 0;
  std::size_t files = 0;
  std::size_t bytes = 0;
  std::size_t lines = 0;
  std::size_t streams = 0;
  std::size_t chunks = 0;
  std::size_t events = 0;
  std::size_t events_unattributed = 0;
  std::size_t json_bytes = 0;
  std::uint64_t hash = 0;

  /// Adds every time and count of `other` (the hash is left alone).
  LayerSample& operator+=(const LayerSample& other);
};

[[nodiscard]] LayerSample analyze_traced(const std::filesystem::path& dir,
                                         std::size_t threads,
                                         const std::filesystem::path& out);

}  // namespace bench
