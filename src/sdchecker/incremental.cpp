#include "sdchecker/incremental.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "common/thread_pool.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace sdc::checker {

void IncrementalAnalyzer::feed_all(const std::string& stream,
                                   std::span<const std::string_view> lines) {
  static obs::Counter& lines_counter =
      obs::catalog_counter(obs::metric::kIncrementalLines);
  lines_counter.add(lines.size());
  // CRLF parity with the batch path: LogBundle/LogView strip the '\r' of
  // CRLF-terminated logs at read time; a tail delivers the raw line.
  stripped_.assign(lines.begin(), lines.end());
  for (std::string_view& line : stripped_) {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  }
  StreamState& state = streams_[stream];
  // The analyzer never reads stream names back from its event batches,
  // so they carry no name pool.
  MinedChunk chunk =
      mine_chunk(0, nullptr, stripped_, state.summary.lines(), options_);
  lines_total_ += lines.size();
  lines_unparsed_ += chunk.summary.lines_unparsed();
  const bool was_bound = state.summary.bound_app().has_value();
  state.summary.combine(std::move(chunk.summary), options_);

  if (!state.first_log_done) {
    EventBatch first;
    state.first_log_done = state.summary.push_first_log(first, 0);
    dispatch(state, first);
  }
  dispatch(state, chunk.events);
  if (!was_bound && state.summary.bound_app() && state.parked) {
    // The stream just bound: release what it parked.
    const std::unique_ptr<EventBatch> parked = std::move(state.parked);
    state.summary.bind(*parked);
    for (std::size_t i = 0; i < parked->size(); ++i) apply(*parked, i);
  }
}

void IncrementalAnalyzer::feed_all(const std::string& stream,
                                   const std::vector<std::string>& lines) {
  const std::vector<std::string_view> views(lines.begin(), lines.end());
  feed_all(stream, views);
}

void IncrementalAnalyzer::feed(const std::string& stream,
                               std::string_view line) {
  feed_all(stream, std::span<const std::string_view>(&line, 1));
}

void IncrementalAnalyzer::dispatch(StreamState& state, EventBatch& events) {
  // Counted here — once per extracted event, bound or not — so
  // `events_total` matches the batch miner, which counts every mined
  // event whether or not it ever attributes.
  events_total_ += events.size();
  state.summary.bind(events);
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events.has_app(i)) {
      apply(events, i);
    } else if (options_.parked_events_cap > 0 && state.parked &&
               state.parked->size() >= options_.parked_events_cap) {
      // A stream that never binds must not grow without bound in a
      // long-running service; past the cap events are dropped, counted,
      // and surfaced as one kUnboundStream diagnostic.
      if (state.parked_dropped++ == 0) {
        state.parked_dropped_first_line = events.line_at(i);
      }
    } else {
      if (!state.parked) state.parked = std::make_unique<EventBatch>();
      state.parked->append_row(events, i);
    }
  }
}

void IncrementalAnalyzer::apply(const EventBatch& events, std::size_t row) {
  const ApplicationId& app = events.app_at(row);
  if (!retired_.empty() && retired_.contains(app)) {
    // The application's timeline is gone; re-materializing a partial one
    // would diverge from the cached decomposition.
    ++events_late_dropped_;
    return;
  }
  apply_event(timelines_, events, row);
  AppActivity& activity = activity_[app];
  activity.last_tick = tick_;
  if (events.kind_at(row) == EventKind::kAppFinished) activity.terminal = true;
}

std::size_t IncrementalAnalyzer::retire_terminal(std::uint64_t quiet_ticks) {
  static obs::Counter& retired_counter =
      obs::catalog_counter(obs::metric::kIncrementalAppsRetired);
  std::vector<ApplicationId> ready;
  for (const auto& [app, activity] : activity_) {
    if (activity.terminal && tick_ - activity.last_tick >= quiet_ticks) {
      ready.push_back(app);
    }
  }
  std::size_t retired_now = 0;
  for (const ApplicationId& app : ready) {
    const auto it = timelines_.find(app);
    if (it == timelines_.end()) {
      activity_.erase(app);
      continue;
    }
    RetiredApp row;
    row.delays = decompose(it->second);
    detect_anomalies(it->second, row.delays, row.anomalies);
    retired_.emplace(app, std::move(row));
    timelines_.erase(app);
    activity_.erase(app);
    ++retired_now;
  }
  retired_counter.add(retired_now);
  return retired_now;
}

Delays IncrementalAnalyzer::delays_for(const ApplicationId& app) const {
  if (const auto retired = retired_.find(app); retired != retired_.end()) {
    return retired->second.delays;
  }
  const auto it = timelines_.find(app);
  if (it == timelines_.end()) {
    Delays empty;
    empty.app = app;
    return empty;
  }
  return decompose(it->second);
}

AnalysisResult IncrementalAnalyzer::snapshot(
    std::size_t analyze_shards) const {
  const auto span = obs::Tracer::global().span("incremental.snapshot");
  AnalyzeOptions shard_options;
  shard_options.analyze_shards = analyze_shards;
  const std::size_t shards = shard_options.effective_analyze_shards();
  AnalysisResult result;
  if (shards > 1) {
    // Route a copy of the live table into per-shard tables (the same
    // partition group_events_sharded produces) and finalize in parallel.
    ShardedGroupResult grouped;
    grouped.shards.resize(shards);
    for (const auto& [app, timeline] : timelines_) {
      grouped.shards[timeline_shard(app, shards)][app] = timeline;
    }
    ThreadPool pool(shards);
    result = finalize_analysis(std::move(grouped), pool, retired_);
  } else {
    std::map<ApplicationId, AppTimeline> ordered;
    for (const auto& [app, timeline] : timelines_) ordered[app] = timeline;
    result = finalize_analysis(std::move(ordered), retired_);
  }
  result.lines_total = lines_total_;
  result.lines_unparsed = lines_unparsed_;
  result.events_total = events_total_;
  result.events_unattributed = events_pending();
  result.diagnostics = diagnostics();
  result.diag_counts = logging::count_diagnostics(result.diagnostics);
  logging::sort_diagnostics(result.diagnostics);
  return result;
}

std::vector<logging::Diagnostic> IncrementalAnalyzer::diagnostics() const {
  using logging::Diagnostic;
  using logging::DiagnosticKind;
  std::vector<Diagnostic> out;
  // The stream table is unordered; reports are per-stream in name order,
  // so sort the (few) stream pointers at snapshot time.
  std::vector<const std::pair<std::string, StreamState>*> ordered;
  ordered.reserve(streams_.size());
  for (const auto& entry : streams_) ordered.push_back(&entry);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  for (const auto* entry : ordered) {
    const std::string& name = entry->first;
    const StreamState& state = entry->second;
    std::vector<Diagnostic> found =
        state.summary.finish(name, options_).diagnostics;
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
    if (state.parked_dropped > 0) {
      out.push_back(Diagnostic{
          DiagnosticKind::kUnboundStream, name,
          state.parked_dropped_first_line, state.parked_dropped,
          "stream never bound to an application id; parked-event cap (" +
              std::to_string(options_.parked_events_cap) +
              ") exceeded, event(s) dropped"});
    }
  }
  return out;
}

std::size_t IncrementalAnalyzer::events_pending() const {
  std::size_t n = 0;
  for (const auto& [name, state] : streams_) {
    n += (state.parked ? state.parked->size() : 0) + state.parked_dropped;
  }
  return n;
}

}  // namespace sdc::checker
