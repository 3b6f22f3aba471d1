// Third stage: mine a whole bundle (or directory) of log files.
//
// Per stream: parse every line, extract identified messages, classify the
// daemon kind from content (never from file names), synthesize the
// FIRST_LOG event for driver/executor streams (Table I messages 9/13 —
// "we use the first log message to mark the successful launching",
// §III-B), and bind stream-scoped events to the application/container id
// of the stream's first id-carrying line.
//
// Robustness: the miner never throws on damaged input.  Rotated segments
// (`rm.log.1`, `rm.log.2`, ...) are reassembled into one logical stream
// (oldest suffix first, base last — logrotate order); binary garbage,
// mid-line truncation, unparsable bursts and backwards timestamp jumps
// beyond a skew budget are recorded as typed `logging::Diagnostic`
// records per stream instead of being silently folded into one
// "unparsed" number.
//
// Every per-stream rule lives in one fold, `StreamSummary`: `mine_chunk`
// summarizes a contiguous range of a stream's lines, `combine` appends
// the next range (closing the unparsable runs and timestamp jumps that
// span the seam) and `finish` derives the stream's kind, bound ids and
// diagnostics.  Batch mining splits each stream into chunks at line
// boundaries so one dominant stream (the RM log — every application's
// state machine logs there) cannot serialize the run, and combines the
// chunk summaries in order at stitch; follow mode (incremental.hpp)
// folds each poll's lines through the same `mine_chunk`/`combine`.
// Where the cuts fall never changes the result.  Each chunk emits a
// sorted event run; runs are combined by k-way merge instead of a
// global sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "logging/log_view.hpp"
#include "sdchecker/events.hpp"
#include "sdchecker/extractor.hpp"

namespace sdc::checker {

struct MinerOptions {
  /// Worker threads for mining; 1 = serial.
  std::size_t threads = 1;
  /// Minimum lines per intra-stream chunk.  Streams are split into up to
  /// ~4*threads chunks but never smaller than this, so chunk bookkeeping
  /// cannot dominate short streams.  0 disables intra-stream sharding
  /// (one chunk per stream — the pre-sharding behaviour).
  std::size_t shard_grain = 8192;
  /// A within-stream timestamp going backwards by more than this budget
  /// is reported as a kTimestampRegression diagnostic (NTP step,
  /// interleaved foreign lines).  Smaller jitter is normal (buffered
  /// appenders) and ignored.
  std::int64_t skew_budget_ms = 1000;
  /// Minimum length of a consecutive unparsable-line run reported as a
  /// kUnparsableBurst (stack traces are a few lines; long runs mean a
  /// corrupt or foreign section).
  std::size_t unparsable_burst_min = 4;
  /// Streaming ingestion only (IncrementalAnalyzer/follow mode): maximum
  /// events parked per stream while the stream has not bound to an
  /// application id.  A stream that never binds would otherwise grow its
  /// parked buffer forever in a long-running service; past the cap,
  /// further events are dropped, counted, and reported as one
  /// kUnboundStream diagnostic per stream.  0 = unbounded (the batch
  /// miner's behaviour, which buffers whole streams anyway).
  std::size_t parked_events_cap = 65536;
};

/// Per-stream mining outcome (diagnostics and tests).
struct MinedStream {
  std::string name;
  StreamKind kind = StreamKind::kUnknown;
  /// Events sorted by (ts, line, kind), in columnar storage (see
  /// EventBatch).  `LogMiner::mine` moves these into
  /// `MineResult::events`; they stay populated when `mine_stream` is
  /// called directly.
  EventBatch events;
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  std::optional<ApplicationId> bound_app;
  std::optional<ContainerId> bound_container;
  /// Typed findings about this stream's health, in a deterministic order
  /// (independent of sharding).
  std::vector<logging::Diagnostic> diagnostics;
  /// Per-kind totals over `diagnostics`.
  logging::DiagnosticCounts diag_counts;
};

struct MinedChunk;

/// Mines lines [base_line, base_line + lines.size()) of one stream.
/// Line numbers are 1-based, so the produced events carry
/// `base_line + i + 1`.  Events land in a columnar batch carrying the
/// interned `stream_id`.
[[nodiscard]] MinedChunk mine_chunk(
    std::uint32_t stream_id, const std::shared_ptr<const StringInterner>& pool,
    std::span<const std::string_view> lines, std::size_t base_line,
    const MinerOptions& options);

/// The per-stream rules folded over a contiguous range of one stream's
/// lines.  Default construction is the identity (covers no lines).
///
/// Binding: a stream binds at its first line carrying any id.  A
/// container id on that line decides the application (container ids
/// encode it) and, on executor streams, the container of every
/// stream-scoped event; otherwise the line's application id decides.
/// The rule is causal, so a live tail can apply it line by line.
///
/// State stays bounded however many lines are folded: counters, first
/// and last timestamps, and only those unparsable runs a diagnostic can
/// still come from — the run at the range's head, the open run at its
/// tail, and runs of at least `unparsable_burst_min` lines (each one is
/// a diagnostic record anyway).
class StreamSummary {
 public:
  StreamSummary() = default;

  /// Appends `next`, the summary of the lines directly following this
  /// range (`mine_chunk` with `base_line == lines()`).  Associative, so
  /// the chunking of a stream never shows in `finish`.
  void combine(StreamSummary next, const MinerOptions& options);

  /// The last covered line number (the stream's line count when the
  /// range starts at the stream's head).
  [[nodiscard]] std::size_t lines() const noexcept { return end_; }
  [[nodiscard]] std::size_t lines_unparsed() const noexcept {
    return lines_unparsed_;
  }
  [[nodiscard]] const std::optional<ApplicationId>& bound_app() const noexcept {
    return app_;
  }

  /// Sets the bound ids on the rows of `events` that lack them (the
  /// container only on executor streams).
  void bind(EventBatch& events) const;

  /// Appends the synthesized FIRST_LOG event (line 1, stamped with the
  /// first parsed line's time) when this is a driver or executor stream;
  /// returns whether it did.
  bool push_first_log(EventBatch& out, std::uint32_t stream_id) const;

  /// The stream's outcome for a range starting at its head: kind, line
  /// counts, bound ids and health diagnostics in a fixed order (garbage
  /// summary, cut-line summary, head tear, bursts by position, tail
  /// tear, regression summary).  `events` and `diag_counts` are left
  /// empty.
  [[nodiscard]] MinedStream finish(const std::string& name,
                                   const MinerOptions& options) const;

 private:
  friend MinedChunk mine_chunk(std::uint32_t,
                               const std::shared_ptr<const StringInterner>&,
                               std::span<const std::string_view>, std::size_t,
                               const MinerOptions&);

  /// A maximal run of consecutive unparsable lines (`start` 1-based).
  /// `first_plain` / `last_plain` record whether its boundary lines were
  /// plain failures (not garbage, not timestamp-cut) — the head/tail
  /// tear rules only fire on plain boundaries so one phenomenon is not
  /// reported twice.
  struct Run {
    std::size_t start = 0;
    std::size_t len = 0;
    bool first_plain = false;
    bool last_plain = false;
  };
  /// A line-numbered finding counted once per occurrence.
  struct Tally {
    std::size_t count = 0;
    std::size_t first_line = 0;
    void add(std::size_t line, std::size_t n = 1);
  };

  /// Keeps a closed or merged run only while a diagnostic can still
  /// come from it.
  [[nodiscard]] bool keeps(const Run& run, const MinerOptions& options) const;

  /// Covered lines are (begin_, end_], 1-based.
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t lines_unparsed_ = 0;
  StreamKind kind_ = StreamKind::kUnknown;
  std::optional<ApplicationId> app_;
  std::optional<ContainerId> container_;
  std::optional<std::int64_t> first_ts_;
  std::size_t first_parsed_line_ = 0;
  std::optional<std::int64_t> last_ts_;
  Tally garbage_;
  Tally cut_;
  Tally regressions_;
  std::int64_t regression_max_ms_ = 0;
  std::vector<Run> runs_;
};

/// One mined chunk: its events in line order (unsorted, ids as extracted)
/// and the chunk's summary.
struct MinedChunk {
  EventBatch events;
  StreamSummary summary;
  /// Parsed lines whose message was too short for any extractor rule —
  /// dispatch skipped entirely (aggregated into mine.scan.prefilter_skipped).
  std::size_t prefilter_skipped = 0;
};

struct MineResult {
  /// All events, ids resolved, sorted by (ts, stream, line), in columnar
  /// storage sharing one interned stream-name pool.
  EventBatch events;
  std::vector<MinedStream> streams;
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  /// Bundle-level findings (unreadable files) followed by every stream's
  /// findings in stream order.
  std::vector<logging::Diagnostic> diagnostics;
  logging::DiagnosticCounts diag_counts;
};

/// One corpus's mining work decomposed into schedulable pieces: the
/// stream/chunk structure `LogMiner::mine` runs start-to-finish, exposed
/// so fleet mode (fleet.hpp) can run the chunks of many corpora on one
/// shared pool and stitch each stream — handing its events to grouping —
/// the moment that stream's last chunk completes, instead of waiting for
/// the whole corpus.  Both paths share this one pipeline, so the
/// sharded/serial byte-identity proof covers fleet mining too.
///
/// Protocol: construct over a live BundleView (the view must outlive the
/// plan — chunks alias its lines), call `run_chunk` for every chunk
/// (thread-safe across distinct chunks), and `stitch` each stream exactly
/// once after all of its chunks ran.  `run_chunk` maintains the
/// `mine.lines` / `mine.scan.prefilter_skipped` instruments; the
/// constructor stamps `mine.lines_expected` and the scan-backend counter
/// exactly as one `mine()` call would.
class MinePlan {
 public:
  MinePlan(const logging::BundleView& view, const MinerOptions& options);
  ~MinePlan();
  MinePlan(MinePlan&&) noexcept;
  MinePlan& operator=(MinePlan&&) noexcept;

  [[nodiscard]] std::size_t stream_count() const;
  [[nodiscard]] std::size_t chunk_count() const;
  /// The stream chunk `chunk` belongs to.
  [[nodiscard]] std::size_t stream_of(std::size_t chunk) const;
  /// How many chunks stream `stream` was split into.
  [[nodiscard]] std::size_t chunks_of(std::size_t stream) const;
  /// Streams are in logical-name order (rotated families reassembled).
  [[nodiscard]] const std::string& stream_name(std::size_t stream) const;
  [[nodiscard]] std::size_t stream_lines(std::size_t stream) const;
  /// The interned stream-name pool every produced batch shares.
  [[nodiscard]] const std::shared_ptr<const StringInterner>& interner() const;

  /// Mines one chunk (mutates only that chunk's slot).
  void run_chunk(std::size_t chunk);
  /// Resolves stream-wide state and returns the stitched stream; consumes
  /// the stream's chunk outputs and pre-diagnostics.
  [[nodiscard]] MinedStream stitch(std::size_t stream);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

class LogMiner {
 public:
  explicit LogMiner(MinerOptions options = {}) : options_(options) {}

  [[nodiscard]] MineResult mine(const logging::LogBundle& bundle) const;
  /// Zero-copy path: mines mmap-backed (or adapted) line views directly.
  [[nodiscard]] MineResult mine(const logging::BundleView& view) const;
  /// Mines a directory through the mmap-backed view layer.  Unreadable
  /// files become kUnreadableFile diagnostics instead of throwing.
  [[nodiscard]] MineResult mine_directory(
      const std::filesystem::path& dir) const;

  /// Mines one stream in isolation (exposed for unit tests).
  [[nodiscard]] MinedStream mine_stream(
      const std::string& name, const std::vector<std::string>& lines) const;
  [[nodiscard]] MinedStream mine_stream(
      const std::string& name,
      std::span<const std::string_view> lines) const;

 private:
  MinerOptions options_;
};

/// The deterministic total order of `MineResult::events`: (ts, stream,
/// line, kind) — the final kind tiebreak places a synthesized FIRST_LOG
/// ahead of a real event extracted from the same line.
[[nodiscard]] bool event_order_less(const SchedEvent& a, const SchedEvent& b);
[[nodiscard]] bool event_order_less(const EventBatch::View& a,
                                    const EventBatch::View& b);

/// Splits a rotated-segment file name: "rm.log.3" -> {"rm.log", 3}.
/// Returns nullopt for names without an all-digit final component.
struct RotationSuffix {
  std::string base;
  unsigned long index = 0;
};
[[nodiscard]] std::optional<RotationSuffix> split_rotation_suffix(
    std::string_view name);
/// Order of the members of one rotated family, logrotate style: older
/// (higher suffix) segments first, the unsuffixed base — the live,
/// newest segment — last.
[[nodiscard]] bool rotation_order_less(std::string_view a, std::string_view b);

}  // namespace sdc::checker
