// Live replay of a finished corpus for follow mode.
//
// The corpus is re-played into an empty live directory in log-timestamp
// order, cut into a fixed number of equal-line slices.  Within a stream
// the file order is kept, so each slice appends one contiguous byte range
// per touched file and the plan is just (file, begin, end) triples.  The
// loop is closed with one client: append a slice, then run what
// `sdchecker follow --serve` runs on every non-empty poll —
// FollowService::poll_once -> snapshot -> analysis_json ->
// FollowPublisher::publish — and only then append the next slice.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

namespace bench {

struct ReplayPiece {
  std::uint32_t file = 0;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

struct ReplayPlan {
  std::vector<std::string> files;
  std::vector<std::vector<ReplayPiece>> slices;
};

/// Orders the corpus in `source` by log timestamp (lines without one
/// keep their predecessor's) and writes a plan of `slices` slices to
/// `plan_file`.  Meant to run in the generator child.
void write_replay_plan(const std::filesystem::path& source,
                       std::size_t slices,
                       const std::filesystem::path& plan_file);
[[nodiscard]] ReplayPlan read_replay_plan(
    const std::filesystem::path& plan_file);

/// Per-slice stage times of one replay, in ms.
struct SliceStages {
  double poll_ms = 0;
  double snapshot_ms = 0;
  double render_ms = 0;
  double publish_ms = 0;
};

struct ReplayOutcome {
  /// Time and CPU the follow service spent on the replay: every slice
  /// from the end of its append until its snapshot is released, plus the
  /// drain.  The benchmark's own appends (which create the corpus's 10k
  /// files) are excluded.
  double wall_s = 0;
  double cpu_s = 0;
  /// Per slice: end of the slice's append to the end of the publish of
  /// an analysis that includes it.
  std::vector<double> freshness_ms;
  /// Stage breakdown per slice.  The four extra clock reads per slice
  /// cost well under a microsecond, so untimed and traced replays are
  /// the same code.
  std::vector<SliceStages> stages;
  /// Per-replay stage sums in seconds.  `append_s` is the benchmark's
  /// writing; poll, snapshot, render, publish and `drain_s` cover `wall_s`
  /// but for releasing each slice's snapshot.
  double append_s = 0;
  double poll_s = 0;
  double snapshot_s = 0;
  double render_s = 0;
  double publish_s = 0;
  /// finish() + final snapshot/render/publish + service teardown.
  double drain_s = 0;
  /// Hash of the drained snapshot's analysis_json.
  std::uint64_t drained_hash = 0;
  std::size_t lines_fed = 0;
  std::size_t apps_resident_max = 0;
  std::size_t apps_retired = 0;
  std::size_t events_late_dropped = 0;
};

/// Replays `plan` from `source` into `live`, which must not exist yet.
[[nodiscard]] ReplayOutcome replay(const ReplayPlan& plan,
                                   const std::filesystem::path& source,
                                   const std::filesystem::path& live);

}  // namespace bench
