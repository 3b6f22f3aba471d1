// Online (streaming) variant of the analyzer.
//
// The paper's tool is offline: collect all logs after the runs, then
// mine.  For a monitoring deployment one wants the same decomposition
// while the cluster runs — feeding lines as `tail -f` delivers them.
// Every per-stream rule (kind, binding, FIRST_LOG, health diagnostics)
// comes from the batch miner's fold: each fed batch of a stream's lines
// is one more `mine_chunk`, `combine`d into that stream's
// `StreamSummary`, so a feed boundary is just a chunk boundary and a
// snapshot is batch mining applied to the lines fed so far.  What is
// specific to streaming lives here: a driver/executor stream's FIRST_LOG
// event and its milestone events arrive *before* the line that reveals
// which application/container the stream belongs to, so unbound events
// are parked per stream (up to a cap) and flushed the moment the stream
// binds; applications retire once quiet (see below).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_hash_map.hpp"
#include "sdchecker/decompose.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/miner.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

class IncrementalAnalyzer {
 public:
  /// `threads` and `shard_grain` of the options are ignored (feeding is
  /// inherently serial).
  explicit IncrementalAnalyzer(MinerOptions options = {})
      : options_(options) {}

  /// Feeds the next lines of the named stream (file), in file order, as
  /// one chunk.  Batches of different streams may interleave
  /// arbitrarily.  Lines arrive already split by `logging::split_lines`
  /// (newline and one trailing '\r' stripped), as the batch read path
  /// splits them.
  void feed_all(const std::string& stream,
                std::span<const std::string_view> lines);
  void feed_all(const std::string& stream,
                const std::vector<std::string>& lines);
  /// Feeds one line (a one-line batch).
  void feed(const std::string& stream, std::string_view line);

  /// Live view of the grouped timelines.  Iteration order is the table's
  /// (stable for a given key set but unordered); sort by `first` when
  /// presenting.
  [[nodiscard]] const AppTable& timelines() const noexcept {
    return timelines_;
  }

  /// Decomposition of one application *as of now* (fields fill in as
  /// events arrive).
  [[nodiscard]] Delays delays_for(const ApplicationId& app) const;

  /// Full snapshot: decompositions, aggregates and anomalies over
  /// everything seen so far — retired applications included, folded into
  /// the delays/aggregate/anomaly outputs at their app-ID position.
  /// O(apps) — intended for periodic reporting.
  [[nodiscard]] AnalysisResult snapshot() const;

  // --- bounded-memory eviction (the follow service's discipline) ------
  //
  // A long-running ingestion loop cannot keep every application's full
  // timeline forever.  The loop advances a tick per poll; an application
  // whose terminal state-machine transition (RMAppImpl -> FINISHED) has
  // been mined and that has then stayed quiet for `quiet_ticks` ticks is
  // *retired*: its decomposition and anomaly findings are computed once
  // and cached in a RetiredTable, and the full timeline is freed.  An
  // event arriving for an already-retired application is dropped and
  // counted (`events_late_dropped`) — the grace period exists precisely
  // to make that a pathological case.

  /// Advances the eviction clock; call once per ingestion poll.
  void advance_tick() noexcept { ++tick_; }

  /// Retires every terminal application that has been quiet for at least
  /// `quiet_ticks` ticks; returns how many were retired now.
  std::size_t retire_terminal(std::uint64_t quiet_ticks);

  /// Retired rows in app-ID order.
  [[nodiscard]] const RetiredTable& retired() const noexcept {
    return retired_;
  }
  /// Applications retired so far (== retired().size()).
  [[nodiscard]] std::size_t apps_retired() const noexcept {
    return retired_.size();
  }
  /// Applications whose full timelines are still resident.
  [[nodiscard]] std::size_t apps_resident() const noexcept {
    return timelines_.size();
  }
  /// Events dropped because they arrived after their application was
  /// retired (0 unless the eviction grace was too aggressive).
  [[nodiscard]] std::size_t events_late_dropped() const noexcept {
    return events_late_dropped_;
  }

  [[nodiscard]] std::size_t lines_total() const noexcept {
    return lines_total_;
  }
  [[nodiscard]] std::size_t lines_unparsed() const noexcept {
    return lines_unparsed_;
  }
  /// Every event extracted so far — applied, parked, or dropped under
  /// the parked cap — matching the batch miner's event count.
  [[nodiscard]] std::size_t events_total() const noexcept {
    return events_total_;
  }
  /// Events not attributed to any application: currently parked because
  /// their stream has not bound yet, plus events dropped when a stream's
  /// parked buffer overflowed `MinerOptions::parked_events_cap`.
  [[nodiscard]] std::size_t events_pending() const;

  /// Typed corpus-health findings accumulated so far: each stream's
  /// `StreamSummary::finish` records plus the parked-cap kUnboundStream
  /// record, streams in name order — the streaming analogue of
  /// `MineResult::diagnostics`.
  [[nodiscard]] std::vector<logging::Diagnostic> diagnostics() const;

 private:
  struct StreamState {
    StreamSummary summary;
    bool first_log_done = false;
    /// Stream-scoped events waiting for the stream to bind (allocated on
    /// the first), capped at `MinerOptions::parked_events_cap`.
    std::unique_ptr<EventBatch> parked;
    /// Events dropped past the cap (reported as one kUnboundStream
    /// diagnostic per stream).
    std::size_t parked_dropped = 0;
    std::size_t parked_dropped_first_line = 0;
  };

  /// Per-application eviction bookkeeping, erased on retirement.
  struct AppActivity {
    std::uint64_t last_tick = 0;
    bool terminal = false;
  };

  /// Counts newly extracted events, binds them, then applies or parks
  /// each one.
  void dispatch(StreamState& state, EventBatch& events);
  /// Applies one bound event row (dropped and counted when its
  /// application already retired).
  void apply(const EventBatch& events, std::size_t row);

  MinerOptions options_;
  /// Hot per-feed lookup — flat hash table, name-sorted only when a
  /// diagnostics report is cut.
  FlatHashMap<std::string, StreamState, StringHash> streams_;
  AppTable timelines_;
  FlatHashMap<ApplicationId, AppActivity, ApplicationIdHash> activity_;
  RetiredTable retired_;
  std::uint64_t tick_ = 0;
  std::size_t lines_total_ = 0;
  std::size_t lines_unparsed_ = 0;
  std::size_t events_total_ = 0;
  std::size_t events_late_dropped_ = 0;
};

}  // namespace sdc::checker
