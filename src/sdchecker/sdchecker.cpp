#include "sdchecker/sdchecker.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <stdexcept>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "common/thread_pool.hpp"
#include "logging/diagnostics.hpp"
#include "logging/log_view.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace sdc::checker {
namespace {

struct FinalizeCounters {
  obs::Counter& apps;
  obs::Counter& anomalies;
  static const FinalizeCounters& get() {
    static const FinalizeCounters counters{
        obs::catalog_counter(obs::metric::kAnalyzeApps),
        obs::catalog_counter(obs::metric::kAnalyzeAnomalies)};
    return counters;
  }
};

/// Decompose + anomaly + aggregate over timelines already in app-ID
/// order.  `decomposed`/`found` are the per-app parallel-stage outputs,
/// index-aligned with the iteration order of `result.timelines`; the
/// serial path passes empty vectors and computes inline.  Merging is
/// serial and ordered, so every aggregate SampleSet and the anomaly list
/// are filled exactly as the historical serial loop filled them.
/// `retired` rows (evicted timelines, apps disjoint from the live set)
/// are spliced in at their app-ID position, which keeps the aggregate
/// fold order — and therefore the floating-point sums and the rendered
/// report — identical to a run where every timeline were still resident.
void merge_finalized(AnalysisResult& result, std::vector<Delays> decomposed,
                     std::vector<std::vector<Anomaly>> found,
                     const RetiredTable& retired) {
  auto next_retired = retired.begin();
  const auto fold_retired_before = [&](const ApplicationId* app) {
    while (next_retired != retired.end() &&
           (app == nullptr || next_retired->first < *app)) {
      const RetiredApp& row = next_retired->second;
      for (const Anomaly& anomaly : row.anomalies) {
        result.anomalies.push_back(anomaly);
      }
      result.aggregate.add(row.delays);
      result.delays.emplace_hint(result.delays.end(), next_retired->first,
                                 row.delays);
      ++next_retired;
    }
  };
  std::size_t i = 0;
  for (const auto& [app, timeline] : result.timelines) {
    fold_retired_before(&app);
    Delays delays =
        i < decomposed.size() ? std::move(decomposed[i]) : decompose(timeline);
    if (i < found.size()) {
      for (Anomaly& anomaly : found[i]) {
        result.anomalies.push_back(std::move(anomaly));
      }
    } else {
      detect_anomalies(timeline, delays, result.anomalies);
    }
    result.aggregate.add(delays);
    result.delays.emplace_hint(result.delays.end(), app, std::move(delays));
    ++i;
  }
  fold_retired_before(nullptr);
  const FinalizeCounters& counters = FinalizeCounters::get();
  counters.apps.add(result.timelines.size() + retired.size());
  counters.anomalies.add(result.anomalies.size());
}

}  // namespace

SchedulingGraph AnalysisResult::graph_for(const ApplicationId& app) const {
  const auto it = timelines.find(app);
  if (it == timelines.end()) {
    throw std::invalid_argument("no timeline for application " + app.str());
  }
  return SchedulingGraph::build(it->second);
}

std::vector<const Anomaly*> AnalysisResult::anomalies_of(
    AnomalyType type) const {
  std::vector<const Anomaly*> out;
  for (const Anomaly& anomaly : anomalies) {
    if (anomaly.type == type) out.push_back(&anomaly);
  }
  return out;
}

AnalysisResult SdChecker::analyze(const logging::LogBundle& bundle) const {
  const logging::BundleView view = logging::BundleView::from_bundle(bundle);
  return run({}, &view);
}

AnalysisResult SdChecker::analyze(const logging::BundleView& view) const {
  return run({}, &view);
}

AnalysisResult SdChecker::analyze_directory(
    const std::filesystem::path& dir) const {
  return run(dir, nullptr);
}

AnalysisResult SdChecker::run(const std::filesystem::path& dir,
                              const logging::BundleView* view) const {
  const auto span = obs::Tracer::global().span("analyze.total");
  std::exception_ptr error;
  AnalysisResult result;
  {
    // At one thread the caller runs every task: what the run allocates
    // stays in its own malloc arena, for its later allocations to reuse.
    ThreadPool pool = options_.threads == 1 ? ThreadPool::calling_thread()
                                            : ThreadPool(options_.threads);
    start_corpus(pool, dir, view, options_.miner_options(),
                 [&](std::exception_ptr e, AnalysisResult r) {
                   error = std::move(e);
                   result = std::move(r);
                 });
    pool.wait_idle();
  }
  if (error) std::rethrow_exception(error);
  return result;
}

std::vector<AnalysisResult::Completeness> AnalysisResult::completeness()
    const {
  static constexpr EventKind kTable1[] = {
      EventKind::kAppSubmitted,       EventKind::kAppAccepted,
      EventKind::kAttemptRegistered,  EventKind::kContainerAllocated,
      EventKind::kContainerAcquired,  EventKind::kNmLocalizing,
      EventKind::kNmScheduled,        EventKind::kNmRunning,
      EventKind::kDriverFirstLog,     EventKind::kDriverRegister,
      EventKind::kStartAllo,          EventKind::kEndAllo,
      EventKind::kExecutorFirstLog,   EventKind::kExecutorFirstTask,
  };
  std::vector<Completeness> out;
  out.reserve(std::size(kTable1));
  for (const EventKind kind : kTable1) {
    Completeness row;
    row.kind = kind;
    out.push_back(row);
  }
  // One pass over apps: each timeline contributes two presence bitsets
  // (its own events, the union of its containers'), and every Table-I
  // row is a single bit test against the matching mask.
  for (const auto& [app, timeline] : timelines) {
    const std::uint32_t app_mask = timeline.first_ts.present_mask();
    const std::uint32_t container_mask = timeline.container_present_mask();
    for (std::size_t i = 0; i < std::size(kTable1); ++i) {
      const std::uint32_t mask =
          is_container_event(kTable1[i]) ? container_mask : app_mask;
      if ((mask & (1u << static_cast<std::uint32_t>(kTable1[i]))) == 0) {
        ++out[i].apps_missing;
      }
    }
  }
  return out;
}

std::string AnalysisResult::render_completeness() const {
  std::string out;
  char buf[96];
  for (const Completeness& row : completeness()) {
    if (row.apps_missing == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  message %2d (%s): missing in %zu of %zu apps\n",
                  table1_number(row.kind),
                  std::string(event_name(row.kind)).c_str(), row.apps_missing,
                  timelines.size());
    out += buf;
  }
  out += render_diagnostics();
  return out;
}

std::string AnalysisResult::render_diagnostics() const {
  std::string out;
  for (const logging::Diagnostic& diagnostic : diagnostics) {
    out += "  ";
    out += logging::render_diagnostic(diagnostic);
    out += '\n';
  }
  return out;
}

AnalysisResult finalize_analysis(
    std::map<ApplicationId, AppTimeline> timelines,
    const RetiredTable& retired) {
  const auto span = obs::Tracer::global().span("analyze.finalize");
  AnalysisResult result;
  result.timelines = std::move(timelines);
  merge_finalized(result, {}, {}, retired);
  return result;
}

AnalysisResult finalize_analysis(ShardedGroupResult grouped,
                                 ThreadPool& pool,
                                 const RetiredTable& retired) {
  const auto span = obs::Tracer::global().span("analyze.finalize");
  static obs::Counter& shards_counter =
      obs::catalog_counter(obs::metric::kAnalyzeShards);
  shards_counter.add(grouped.shards.size());

  AnalysisResult result;
  {
    // Fold the unordered shard tables into the result's sorted map; apps
    // are disjoint across shards, so this is pure re-ordering.
    const auto merge_span = obs::Tracer::global().span("analyze.merge");
    std::vector<std::pair<ApplicationId, AppTimeline*>> apps;
    for (AppTable& shard : grouped.shards) {
      for (auto& [app, timeline] : shard) {
        apps.emplace_back(app, &timeline);
      }
    }
    std::sort(apps.begin(), apps.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& [app, timeline] : apps) {
      result.timelines.emplace_hint(result.timelines.end(), app,
                                    std::move(*timeline));
    }
  }

  // Per-app decomposition + anomaly detection is embarrassingly parallel
  // (the paper's components never cross applications); results land in
  // index-aligned vectors so the ordered merge below stays serial.
  const std::size_t n = result.timelines.size();
  std::vector<const AppTimeline*> order;
  order.reserve(n);
  for (const auto& [app, timeline] : result.timelines) {
    order.push_back(&timeline);
  }
  std::vector<Delays> decomposed(n);
  std::vector<std::vector<Anomaly>> found(n);
  parallel_for(pool, n, [&](std::size_t i) {
    decomposed[i] = decompose(*order[i]);
    detect_anomalies(*order[i], decomposed[i], found[i]);
  });

  {
    const auto merge_span = obs::Tracer::global().span("analyze.merge");
    merge_finalized(result, std::move(decomposed), std::move(found), retired);
  }
  return result;
}

std::size_t analysis_shards(std::size_t threads) {
  return std::clamp<std::size_t>(threads, 1, 8);
}

namespace {

/// All in-flight state of one `start_corpus` run.  Every task of the run
/// holds a reference; the state dies with the last one.
struct CorpusRun {
  std::filesystem::path dir;
  /// The lines mined: the caller's view, or `owned_view`.
  const logging::BundleView* view = nullptr;
  MinerOptions options;
  std::size_t shard_count = 1;
  CorpusDone done;

  std::vector<logging::Diagnostic> io_diagnostics;
  std::optional<logging::BundleView> owned_view;
  std::optional<MinePlan> plan;

  /// Countdowns to "stream fully mined" / "corpus fully stitched".  The
  /// acq_rel fetch_sub chains publish every chunk's output to whichever
  /// thread observes the last decrement and proceeds.
  std::unique_ptr<std::atomic<std::size_t>[]> chunks_left;
  std::atomic<std::size_t> streams_left{0};

  struct StreamMeta {
    std::size_t lines_total = 0;
    std::size_t lines_unparsed = 0;
    std::size_t events = 0;
    std::vector<logging::Diagnostic> diagnostics;
    logging::DiagnosticCounts diag_counts;
  };
  /// Slot s is written only by the thread that stitched stream s.
  std::vector<StreamMeta> streams;

  /// One grouping table per shard.  A shard's lock is held for one
  /// batch application at a time, so two streams finishing close
  /// together contend per shard, not per corpus.
  struct Shard {
    Mutex mu;
    AppTable apps SDC_GUARDED_BY(mu);
  };
  std::unique_ptr<Shard[]> shards;
  std::atomic<std::size_t> unattributed{0};

  Mutex error_mu;
  std::exception_ptr error SDC_GUARDED_BY(error_mu);
  std::atomic<bool> failed{false};

  /// Records the exception being handled, unless an earlier one was.
  void fail() {
    {
      MutexLock lock(error_mu);
      if (!error) error = std::current_exception();
    }
    failed.store(true, std::memory_order_release);
  }
  [[nodiscard]] std::exception_ptr first_error() {
    MutexLock lock(error_mu);
    return error;
  }
};

/// Runs on the thread that saw the corpus's last stream complete:
/// finalizes the grouping tables (the nested `parallel_for` helps drain
/// the pool), then the counts and diagnostics — I/O findings first,
/// stream findings in stream (= logical name) order, then the severity
/// sort — exactly as one merged mine of the corpus reports them.
void finalize_corpus(CorpusRun& run, ThreadPool& pool) {
  AnalysisResult result;
  if (!run.failed.load(std::memory_order_acquire)) {
    try {
      ShardedGroupResult grouped;
      grouped.shards.reserve(run.shard_count);
      for (std::size_t s = 0; s < run.shard_count; ++s) {
        MutexLock lock(run.shards[s].mu);
        grouped.shards.push_back(std::move(run.shards[s].apps));
      }
      result = finalize_analysis(std::move(grouped), pool);
      result.events_unattributed =
          run.unattributed.load(std::memory_order_relaxed);

      for (const logging::Diagnostic& diagnostic : run.io_diagnostics) {
        result.diag_counts.add(diagnostic);
      }
      result.diagnostics = std::move(run.io_diagnostics);
      for (CorpusRun::StreamMeta& meta : run.streams) {
        result.lines_total += meta.lines_total;
        result.lines_unparsed += meta.lines_unparsed;
        result.events_total += meta.events;
        for (logging::Diagnostic& diagnostic : meta.diagnostics) {
          // The mine.diagnostics counters cover stream findings only
          // (I/O findings are bundle-level).
          obs::catalog_counter(obs::metric::kMineDiagnostics,
                               logging::diagnostic_kind_name(diagnostic.kind))
              .add(diagnostic.count);
          result.diagnostics.push_back(std::move(diagnostic));
        }
        result.diag_counts += meta.diag_counts;
      }
      logging::sort_diagnostics(result.diagnostics);
      obs::catalog_counter(obs::metric::kMineStreams).add(run.streams.size());
      obs::catalog_counter(obs::metric::kMineEvents).add(result.events_total);
    } catch (const std::exception&) {
      run.fail();
      result = AnalysisResult();
    }
  }
  // Let go of the lines and the chunk slots before the result is handed
  // on: with many corpora in flight this bounds peak memory to the
  // active set.
  {
    const auto span = obs::Tracer::global().span("analyze.teardown");
    run.plan.reset();
    run.owned_view.reset();
  }
  const CorpusDone done = std::move(run.done);
  done(run.first_error(), std::move(result));
}

void run_corpus_chunk(const std::shared_ptr<CorpusRun>& run, ThreadPool& pool,
                      std::size_t chunk) {
  if (!run->failed.load(std::memory_order_relaxed)) {
    try {
      run->plan->run_chunk(chunk);
    } catch (const std::exception&) {
      run->fail();
    }
  }
  const std::size_t stream = run->plan->stream_of(chunk);
  if (run->chunks_left[stream].fetch_sub(1, std::memory_order_acq_rel) !=
      1) {
    return;
  }
  // This chunk completed its stream: stitch it and hand its events to
  // grouping now, while other chunks are still mining.
  if (!run->failed.load(std::memory_order_acquire)) {
    try {
      MinedStream stitched = [&] {
        const auto span = obs::Tracer::global().span("mine.stitch");
        return run->plan->stitch(stream);
      }();
      {
        const auto span = obs::Tracer::global().span("analyze.group");
        for (std::size_t s = 0; s < run->shard_count; ++s) {
          std::size_t unattributed = 0;
          {
            MutexLock lock(run->shards[s].mu);
            unattributed = apply_batch_to_shard(
                stitched.events, run->shards[s].apps, s, run->shard_count);
          }
          if (s == 0) {
            run->unattributed.fetch_add(unattributed,
                                        std::memory_order_relaxed);
          }
        }
      }
      CorpusRun::StreamMeta& meta = run->streams[stream];
      meta.lines_total = stitched.lines_total;
      meta.lines_unparsed = stitched.lines_unparsed;
      meta.events = stitched.events.size();
      meta.diagnostics = std::move(stitched.diagnostics);
      meta.diag_counts = stitched.diag_counts;
    } catch (const std::exception&) {
      run->fail();
    }
  }
  if (run->streams_left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    finalize_corpus(*run, pool);
  }
}

void open_corpus(const std::shared_ptr<CorpusRun>& run, ThreadPool& pool) {
  try {
    const auto span = obs::Tracer::global().span("analyze.open");
    if (run->view == nullptr) {
      const auto read_span = obs::Tracer::global().span("analyze.read");
      run->owned_view.emplace(logging::BundleView::read_from_directory(
          run->dir, &run->io_diagnostics));
      run->view = &*run->owned_view;
    }
    const auto plan_span = obs::Tracer::global().span("analyze.plan");
    run->plan.emplace(*run->view, run->options);
  } catch (const std::exception&) {
    run->fail();
    finalize_corpus(*run, pool);
    return;
  }
  const std::size_t streams = run->plan->stream_count();
  run->streams.resize(streams);
  run->shards = std::make_unique<CorpusRun::Shard[]>(run->shard_count);
  if (streams == 0) {
    finalize_corpus(*run, pool);
    return;
  }
  run->chunks_left = std::make_unique<std::atomic<std::size_t>[]>(streams);
  for (std::size_t s = 0; s < streams; ++s) {
    run->chunks_left[s].store(run->plan->chunks_of(s),
                              std::memory_order_relaxed);
  }
  run->streams_left.store(streams, std::memory_order_release);
  const std::size_t chunks = run->plan->chunk_count();
  for (std::size_t c = 0; c < chunks; ++c) {
    pool.submit([run, &pool, c] { run_corpus_chunk(run, pool, c); });
  }
}

}  // namespace

void start_corpus(ThreadPool& pool, const std::filesystem::path& dir,
                  const logging::BundleView* view, MinerOptions options,
                  CorpusDone done) {
  auto run = std::make_shared<CorpusRun>();
  run->dir = dir;
  run->view = view;
  options.threads = pool.thread_count();
  run->options = options;
  run->shard_count = analysis_shards(pool.thread_count());
  run->done = std::move(done);
  pool.submit([run, &pool] { open_corpus(run, pool); });
}

}  // namespace sdc::checker
