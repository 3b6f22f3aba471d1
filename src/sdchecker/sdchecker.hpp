// SDchecker façade — the paper's tool as a library.
//
// Pipeline (paper §III): parse log4j lines -> extract Table-I messages ->
// group by global IDs -> build per-app scheduling graphs -> decompose
// scheduling delay into components -> detect anomalies -> aggregate.
//
//   sdc::checker::SdChecker checker({.threads = 4});
//   auto result = checker.analyze_directory("/var/log/hadoop");
//   std::cout << result.aggregate.render_text();
#pragma once

#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <vector>

#include "logging/log_bundle.hpp"
#include "sdchecker/anomaly.hpp"
#include "sdchecker/decompose.hpp"
#include "sdchecker/graph.hpp"
#include "sdchecker/grouping.hpp"
#include "sdchecker/miner.hpp"
#include "sdchecker/report.hpp"

namespace sdc {
class ThreadPool;
}  // namespace sdc

namespace sdc::checker {

struct AnalyzeOptions {
  /// Worker threads of the pipeline's pool (0 = one per hardware
  /// thread).  Mining chunks, grouping and per-app finalize all run on
  /// it; the output never depends on the count.
  std::size_t threads = 1;
  /// Minimum lines per intra-stream mining chunk (see MinerOptions);
  /// 0 disables intra-stream sharding.
  std::size_t shard_grain = 8192;
  /// Within-stream backwards timestamp jumps beyond this budget become
  /// kTimestampRegression diagnostics (see MinerOptions).
  std::int64_t skew_budget_ms = 1000;

  [[nodiscard]] MinerOptions miner_options() const {
    MinerOptions options;
    options.threads = threads;
    options.shard_grain = shard_grain;
    options.skew_budget_ms = skew_budget_ms;
    return options;
  }
};

struct AnalysisResult {
  /// Per-application grouped event timelines.
  std::map<ApplicationId, AppTimeline> timelines;
  /// Per-application delay decompositions.
  std::map<ApplicationId, Delays> delays;
  /// All findings across applications.
  std::vector<Anomaly> anomalies;
  /// Distribution summaries across applications.
  AggregateReport aggregate;
  /// Mining summary counters.
  std::size_t lines_total = 0;
  std::size_t lines_unparsed = 0;
  std::size_t events_total = 0;
  std::size_t events_unattributed = 0;
  /// Typed corpus-health findings accumulated through the whole mining
  /// stack (unreadable files, garbage, truncation, rotation, clock
  /// steps, unparsable bursts) — the analysis *completed*, these say what
  /// it had to tolerate.
  std::vector<logging::Diagnostic> diagnostics;
  /// Per-kind totals over `diagnostics`.
  logging::DiagnosticCounts diag_counts;

  /// Builds the Fig.-3-style scheduling graph for one application.
  [[nodiscard]] SchedulingGraph graph_for(const ApplicationId& app) const;

  /// Anomalies of one type.
  [[nodiscard]] std::vector<const Anomaly*> anomalies_of(
      AnomalyType type) const;

  /// Per-Table-I-message completeness: for each of the 14 identified
  /// messages, how many applications have no occurrence of it.  Non-zero
  /// counts on a real corpus usually mean a daemon's logs were not
  /// collected (the per-message footprint tells which one).
  struct Completeness {
    EventKind kind = EventKind::kAppSubmitted;
    std::size_t apps_missing = 0;
  };
  [[nodiscard]] std::vector<Completeness> completeness() const;

  /// Renders the non-zero completeness rows, followed by the per-stream
  /// diagnostics summary ("" when fully complete and clean).
  [[nodiscard]] std::string render_completeness() const;

  /// Renders one line per diagnostic record ("" when the corpus was
  /// clean).
  [[nodiscard]] std::string render_diagnostics() const;
};

/// Runs the pipeline (`start_corpus`) for one corpus on a pool of
/// `AnalyzeOptions::threads` workers (at 1, `ThreadPool::calling_thread`)
/// and waits for it: a fleet of one.  Read errors are rethrown as thrown.
class SdChecker {
 public:
  explicit SdChecker(AnalyzeOptions options = {}) : options_(options) {}

  [[nodiscard]] AnalysisResult analyze(const logging::LogBundle& bundle) const;
  /// Zero-copy path over mmap-backed (or adapted) line views.
  [[nodiscard]] AnalysisResult analyze(const logging::BundleView& view) const;
  [[nodiscard]] AnalysisResult analyze_directory(
      const std::filesystem::path& dir) const;

 private:
  AnalysisResult run(const std::filesystem::path& dir,
                     const logging::BundleView* view) const;

  AnalyzeOptions options_;
};

/// An application whose full timeline was evicted under the streaming
/// bounded-memory policy: only the decomposed delay row and the anomaly
/// findings computed at retirement survive.  Cheap (no per-event state),
/// so a long-running follow service can hold millions of them.
struct RetiredApp {
  Delays delays;
  std::vector<Anomaly> anomalies;
};

/// Retired rows in application-ID order; the finalize merge interleaves
/// them with the live timelines so aggregates, anomalies and the delays
/// map come out exactly as if every timeline were still resident.
using RetiredTable = std::map<ApplicationId, RetiredApp>;

/// Runs the decomposition + anomaly + aggregation stages over already-
/// grouped timelines in one thread (the incremental analyzer's snapshot,
/// and the serial reference the pipeline is tested against).
/// `retired` rows (apps disjoint from `timelines`) are folded into the
/// delays/aggregate/anomaly outputs at their app-ID position; only
/// `AnalysisResult::timelines` (and the reports derived from it) is
/// limited to the still-resident applications.
[[nodiscard]] AnalysisResult finalize_analysis(
    std::map<ApplicationId, AppTimeline> timelines,
    const RetiredTable& retired = {});

/// Sharded/parallel variant (the pipeline's): folds the per-shard tables
/// into the deterministic app-ID order, decomposes and anomaly-checks
/// each app on `pool`, then merges aggregates/delays/anomalies in that
/// order — the result (including `analysis_json`) is byte-identical to
/// the serial overload on the same grouped state.  Consumes the shard
/// tables.
[[nodiscard]] AnalysisResult finalize_analysis(ShardedGroupResult grouped,
                                               ThreadPool& pool,
                                               const RetiredTable& retired =
                                                   {});

/// Grouping shards per corpus on a pool of `threads` workers:
/// min(threads, 8), at least 1 — shards beyond the thread count only add
/// table-merge work.  The output never depends on it.
[[nodiscard]] std::size_t analysis_shards(std::size_t threads);

/// Receives one corpus run's outcome: the first exception the run caught
/// (then `result` is empty), or null and the result.
using CorpusDone =
    std::function<void(std::exception_ptr error, AnalysisResult result)>;

/// Starts the analysis pipeline for one corpus on `pool` and returns at
/// once.  An open task reads the corpus (`dir`, unless `view` is given)
/// and plans its mining chunks; one task per chunk mines it; the task
/// that ends a stream stitches the stream and folds its events into
/// `analysis_shards(pool.thread_count())` grouping tables; the task that
/// ends the last stream finalizes (its per-app fan-out helps drain the
/// same pool) and calls `done`, after the run has let go of the lines.
/// There are no barriers, so the chunks of many corpora started on one
/// pool interleave (fleet mode).
///
/// Streams finish in a racy order, but grouping commutes
/// (`KindFirstTs::record` keeps the minimum, counts add) and finalize
/// restores app-ID order, so the result is byte-identical to mining the
/// whole corpus, merging its events and grouping them serially
/// (`group_events` + `finalize_analysis`), for every pool size.
///
/// `view`, when not null, is mined in place and must outlive `done`.
/// `options.threads` is taken from the pool.
void start_corpus(ThreadPool& pool, const std::filesystem::path& dir,
                  const logging::BundleView* view, MinerOptions options,
                  CorpusDone done);

}  // namespace sdc::checker
