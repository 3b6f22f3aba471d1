// Follow-mode streaming service: live tail ingestion of a log directory.
//
// The batch pipeline collects a finished corpus and mines it once; this
// service watches a directory the cluster is still writing — the
// `tail -F` analogue of `SdChecker::analyze_directory`.  Each poll it
// lists the directory once (`readdir` + `fstatat`), opens only the files
// whose size moved since the previous poll, reads the appended bytes,
// follows rename-based rotation (`app.log` -> `app.log.1` plus a fresh
// `app.log`, tracked by inode so no byte is read twice or skipped), and
// feeds complete lines into an `IncrementalAnalyzer`.  Memory stays
// bounded: applications whose terminal transition has been mined are
// retired after a quiet grace (timeline freed, decomposed row kept) and
// streams that never bind an application id park at most
// `MinerOptions::parked_events_cap` events.
//
// Parity contract: once the writers stop and the service has drained
// (`quiescent()`, then `finish()`), `snapshot()` returns an
// `AnalysisResult` whose `analysis_json` is byte-identical to running
// the batch `SdChecker::analyze_directory` over the same directory —
// including the rotation-reassembly and unreadable-file diagnostics the
// batch reader would emit.  `snapshot()` never lists the directory
// itself: its diagnostics describe the files as the last poll saw them,
// which at quiescence is the directory as it stands.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sdchecker/incremental.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

struct FollowOptions {
  /// Per-line analysis knobs (skew budget, burst threshold, parked-event
  /// cap); threads/shard_grain are ignored — tailing is serial.
  MinerOptions miner = {};
  /// Shards for the snapshot finalize stage (same meaning as
  /// `AnalyzeOptions::analyze_shards`; snapshots are byte-identical
  /// either way).
  std::size_t analyze_shards = 1;
  /// Retire terminal applications (free their timelines) once they have
  /// been quiet for this many polls.  The grace absorbs out-of-order
  /// stragglers across streams; events arriving after retirement are
  /// dropped and counted.
  std::uint64_t retire_quiet_polls = 2;
  /// Master switch for retirement (off = keep every timeline resident,
  /// as the batch pipeline does).
  bool retire = true;
};

/// One poll's delta, for pacing and watch output.
struct PollStats {
  std::size_t bytes_read = 0;
  std::size_t lines_fed = 0;
  std::size_t new_streams = 0;
  std::size_t rotations = 0;
  std::size_t apps_retired = 0;
  /// Files opened this poll: tails that grew, shrank, are new, or hold a
  /// partial line on a segment that was just rotated away.
  std::size_t files_read = 0;
};

class FollowService {
 public:
  explicit FollowService(std::filesystem::path dir, FollowOptions options = {});
  /// Not copyable: the drain order points into the tail table.
  FollowService(const FollowService&) = delete;
  FollowService& operator=(const FollowService&) = delete;

  /// One ingestion cycle: list the directory, read the bytes appended to
  /// the files that grew, feed complete lines, retire quiet terminal
  /// applications.
  PollStats poll_once();

  /// True when the previous poll observed no appended bytes, no new
  /// streams and no rotation handoffs — the corpus is (momentarily)
  /// drained.
  [[nodiscard]] bool quiescent() const noexcept { return quiescent_; }

  /// Flushes buffered final partial lines (a live file's last line
  /// before its newline arrives).  Call once after the final poll;
  /// matches the batch reader's treatment of a file that ends without a
  /// trailing newline.  Idempotent only if no further polls run.
  void finish();

  /// Full analysis of everything ingested so far (see the parity
  /// contract above).  O(apps) plus O(rotated files); no filesystem
  /// access, so a rotation after the last poll shows only after the next
  /// one.  Safe to call between polls.
  [[nodiscard]] AnalysisResult snapshot() const;

  /// One newline-free ndjson watch record: poll/quiescence counters, the
  /// full `analysis_json` document and a metrics-registry snapshot.
  [[nodiscard]] std::string watch_record() const;

  [[nodiscard]] const IncrementalAnalyzer& analyzer() const noexcept {
    return analyzer_;
  }
  [[nodiscard]] std::uint64_t polls() const noexcept { return polls_; }
  [[nodiscard]] std::uint64_t bytes_read() const noexcept {
    return bytes_read_;
  }
  [[nodiscard]] std::size_t streams_seen() const noexcept {
    return streams_seen_;
  }
  [[nodiscard]] std::uint64_t rotations() const noexcept { return rotations_; }

 private:
  /// One physical file being tailed, keyed by (dev, inode) so the tail
  /// survives the rotation rename.  `logical` is the rotation base name
  /// — the stream the analyzer sees.
  struct Tail {
    std::uint64_t key = 0;
    std::string physical;
    std::string logical;
    std::uintmax_t offset = 0;
    /// `st_size` at the last scan; equal to `offset` means nothing to read.
    std::uintmax_t size = 0;
    /// The poll whose scan last listed this file.
    std::uint64_t seen_poll = 0;
    std::string partial;
    /// The segment's first bytes as read (at most `kHeadBytes`): a
    /// copytruncate rewrite that outgrew `offset` before the next poll
    /// shows up as a mismatch here.
    std::string head;
    /// False once the file carries a rotation suffix: the segment is
    /// frozen, its final partial line (if any) has been flushed.
    bool is_base = true;
    /// Set by the first open attempt, so a new file (even an empty one)
    /// is opened once and an unreadable one is diagnosed.
    bool opened = false;
  };

  /// Reads bytes appended to one tail; feeds complete lines.  Returns
  /// false when the file vanished between scan and read (mid-rotation
  /// race) — the caller re-reads it under its new name next poll.
  bool drain_tail(int dir_fd, Tail& tail, PollStats& stats);
  void flush_partial(Tail& tail);
  /// Re-sorts `order_` into drain order after the tail set changed.
  void sort_order();

  std::filesystem::path dir_;
  FollowOptions options_;
  IncrementalAnalyzer analyzer_;
  /// (dev << 32 ^ ino) -> tail.  Good enough as a key: collisions would
  /// need two filesystems in one log directory.  Node-based, so the
  /// pointers in `order_` stay valid across inserts.
  std::unordered_map<std::uint64_t, Tail> tails_;
  /// Every tail in drain order (logical name, then rotation rank);
  /// re-sorted only when a stream appears, is renamed or is dropped.
  std::vector<Tail*> order_;
  /// Reused buffer for the complete lines of one drain.
  std::vector<std::string_view> lines_;
  /// Unreadable-file diagnostics, deduped per stream: first error text
  /// wins, `count` accumulates repeats.
  std::map<std::string, logging::Diagnostic> unreadable_;
  std::uint64_t polls_ = 0;
  std::uint64_t bytes_read_ = 0;
  std::size_t streams_seen_ = 0;
  std::uint64_t rotations_ = 0;
  bool quiescent_ = false;
  bool finished_ = false;
};

/// Schema check for one line of the `--watch` ndjson stream.  Verifies
/// the line parses as a JSON object carrying numeric "poll", boolean
/// "quiescent", an "analysis" object with a "summary" object, and a
/// "metrics" object with a "counters" object.  Never throws.
struct WatchCheckResult {
  bool ok = true;
  std::vector<std::string> errors;
  void fail(std::string message);
};
[[nodiscard]] WatchCheckResult check_watch_json(std::string_view line);

}  // namespace sdc::checker
