#include "sdchecker/miner.hpp"

#include <algorithm>
#include <cctype>

#include "common/thread_pool.hpp"
#include "logging/timestamp.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace sdc::checker {

bool event_order_less(const SchedEvent& a, const SchedEvent& b) {
  if (a.ts_ms != b.ts_ms) return a.ts_ms < b.ts_ms;
  if (a.stream != b.stream) return a.stream < b.stream;
  if (a.line_no != b.line_no) return a.line_no < b.line_no;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

bool event_order_less(const EventBatch::View& a, const EventBatch::View& b) {
  if (a.ts_ms != b.ts_ms) return a.ts_ms < b.ts_ms;
  if (a.stream != b.stream) return a.stream < b.stream;
  if (a.line_no != b.line_no) return a.line_no < b.line_no;
  return static_cast<int>(a.kind) < static_cast<int>(b.kind);
}

std::optional<RotationSuffix> split_rotation_suffix(std::string_view name) {
  const std::size_t dot = name.rfind('.');
  if (dot == std::string_view::npos || dot == 0 || dot + 1 >= name.size()) {
    return std::nullopt;
  }
  const std::string_view digits = name.substr(dot + 1);
  unsigned long index = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    index = index * 10 + static_cast<unsigned long>(c - '0');
  }
  return RotationSuffix{std::string(name.substr(0, dot)), index};
}

bool rotation_order_less(std::string_view a, std::string_view b) {
  const auto ra = split_rotation_suffix(a);
  const auto rb = split_rotation_suffix(b);
  if (ra.has_value() != rb.has_value()) return ra.has_value();
  return ra && ra->index > rb->index;
}

using logging::Diagnostic;
using logging::DiagnosticKind;

void StreamSummary::Tally::add(std::size_t line, std::size_t n) {
  if (count == 0) first_line = line;
  count += n;
}

bool StreamSummary::keeps(const Run& run, const MinerOptions& options) const {
  return run.start == begin_ + 1 || run.start + run.len == end_ + 1 ||
         run.len >= options.unparsable_burst_min;
}

MinedChunk mine_chunk(std::uint32_t stream_id,
                      const std::shared_ptr<const StringInterner>& pool,
                      std::span<const std::string_view> lines,
                      std::size_t base_line, const MinerOptions& options) {
  MinedChunk out;
  out.events = EventBatch(pool);
  StreamSummary& sum = out.summary;
  sum.begin_ = base_line;
  sum.end_ = base_line + lines.size();
  const std::size_t shortest_rule_len = min_rule_message_len();
  StreamSummary::Run run;  // run.len == 0 <=> no open run
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::size_t line_no = base_line + i + 1;
    const auto parsed = parse_line(lines[i]);
    if (!parsed) {
      ++sum.lines_unparsed_;
      const UnparsedClass fail = classify_unparsed_line(lines[i]);
      if (fail == UnparsedClass::kBinaryGarbage) sum.garbage_.add(line_no);
      if (fail == UnparsedClass::kTruncated) sum.cut_.add(line_no);
      if (run.len == 0) {
        run.start = line_no;
        run.first_plain = fail == UnparsedClass::kPlain;
      }
      ++run.len;
      run.last_plain = fail == UnparsedClass::kPlain;
      continue;
    }
    if (run.len > 0 && sum.keeps(run, options)) sum.runs_.push_back(run);
    run = StreamSummary::Run{};
    if (!sum.first_ts_) {
      sum.first_ts_ = parsed->epoch_ms;
      sum.first_parsed_line_ = line_no;
    }
    if (sum.last_ts_ &&
        *sum.last_ts_ - parsed->epoch_ms > options.skew_budget_ms) {
      sum.regressions_.add(line_no);
      sum.regression_max_ms_ =
          std::max(sum.regression_max_ms_, *sum.last_ts_ - parsed->epoch_ms);
    }
    sum.last_ts_ = parsed->epoch_ms;
    if (sum.kind_ == StreamKind::kUnknown) sum.kind_ = classify_line(*parsed);
    // Driver and executor logs do not carry ids on every line (Fig. 2):
    // the first line that carries one binds the stream.
    if (!sum.app_) {
      if (auto container = find_container_id(parsed->message)) {
        sum.app_ = container->app;
        sum.container_ = container;
      } else {
        sum.app_ = find_application_id(parsed->message);
      }
    }
    if (parsed->message.size() < shortest_rule_len) ++out.prefilter_skipped;
    extract_event_into(*parsed, stream_id, line_no, out.events);
  }
  if (run.len > 0) sum.runs_.push_back(run);
  return out;
}

void StreamSummary::combine(StreamSummary next, const MinerOptions& options) {
  if (next.end_ == next.begin_) return;
  if (end_ == begin_) {
    *this = std::move(next);
    return;
  }
  lines_unparsed_ += next.lines_unparsed_;
  if (kind_ == StreamKind::kUnknown) kind_ = next.kind_;
  if (!app_) {
    app_ = next.app_;
    container_ = next.container_;
  }
  garbage_.add(next.garbage_.first_line, next.garbage_.count);
  cut_.add(next.cut_.first_line, next.cut_.count);
  // A jump backwards across the seam is a regression neither side could
  // see on its own; it sits between this range's and next's own.
  if (last_ts_ && next.first_ts_ &&
      *last_ts_ - *next.first_ts_ > options.skew_budget_ms) {
    regressions_.add(next.first_parsed_line_);
    regression_max_ms_ =
        std::max(regression_max_ms_, *last_ts_ - *next.first_ts_);
  }
  regressions_.add(next.regressions_.first_line, next.regressions_.count);
  regression_max_ms_ = std::max(regression_max_ms_, next.regression_max_ms_);
  if (!first_ts_) {
    first_ts_ = next.first_ts_;
    first_parsed_line_ = next.first_parsed_line_;
  }
  if (next.last_ts_) last_ts_ = next.last_ts_;

  // An open run at this range's tail continues into next's head run.
  auto from = next.runs_.begin();
  if (!runs_.empty() && from != next.runs_.end() &&
      runs_.back().start + runs_.back().len == from->start) {
    runs_.back().len += from->len;
    runs_.back().last_plain = from->last_plain;
    ++from;
  }
  end_ = next.end_;
  if (!runs_.empty() && !keeps(runs_.back(), options)) runs_.pop_back();
  for (; from != next.runs_.end(); ++from) {
    if (keeps(*from, options)) runs_.push_back(*from);
  }
}

void StreamSummary::bind(EventBatch& events) const {
  const bool bind_container =
      container_.has_value() && kind_ == StreamKind::kExecutor;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (app_ && !events.has_app(i)) events.set_app(i, *app_);
    if (bind_container && !events.has_container(i)) {
      events.set_container(i, *container_);
    }
  }
}

bool StreamSummary::push_first_log(EventBatch& out,
                                   std::uint32_t stream_id) const {
  if (!first_ts_ ||
      (kind_ != StreamKind::kDriver && kind_ != StreamKind::kExecutor)) {
    return false;
  }
  out.push(kind_ == StreamKind::kDriver ? EventKind::kDriverFirstLog
                                        : EventKind::kExecutorFirstLog,
           *first_ts_, stream_id, 1, std::nullopt, std::nullopt);
  return true;
}

MinedStream StreamSummary::finish(const std::string& name,
                                  const MinerOptions& options) const {
  MinedStream out;
  out.name = name;
  out.kind = kind_;
  out.lines_total = end_;
  out.lines_unparsed = lines_unparsed_;
  out.bound_app = app_;
  out.bound_container = container_;
  auto& diags = out.diagnostics;
  if (garbage_.count > 0) {
    diags.push_back(Diagnostic{DiagnosticKind::kBinaryGarbage, name,
                               garbage_.first_line, garbage_.count,
                               "line(s) contain NUL or mostly non-printable "
                               "bytes"});
  }
  if (cut_.count > 0) {
    diags.push_back(Diagnostic{DiagnosticKind::kTruncatedLine, name,
                               cut_.first_line, cut_.count,
                               "line(s) cut mid-write: timestamp intact, "
                               "remainder malformed"});
  }
  const Run* head = !runs_.empty() && runs_.front().start == 1 &&
                            runs_.front().first_plain
                        ? &runs_.front()
                        : nullptr;
  if (head != nullptr) {
    diags.push_back(Diagnostic{DiagnosticKind::kTruncatedLine, name, 1, 1,
                               "stream begins mid-line (head truncation or "
                               "rotation tear)"});
  }
  for (const Run& run : runs_) {
    if (run.len >= options.unparsable_burst_min) {
      diags.push_back(Diagnostic{DiagnosticKind::kUnparsableBurst, name,
                                 run.start, run.len,
                                 std::to_string(run.len) +
                                     " consecutive unparsable lines"});
    }
  }
  if (!runs_.empty()) {
    const Run& tail = runs_.back();
    const bool head_already = &tail == head && tail.len == 1;
    if (tail.start + tail.len == end_ + 1 && tail.last_plain &&
        !head_already) {
      diags.push_back(Diagnostic{DiagnosticKind::kTruncatedLine, name, end_, 1,
                                 "stream ends mid-line (tail truncation)"});
    }
  }
  if (regressions_.count > 0) {
    diags.push_back(Diagnostic{DiagnosticKind::kTimestampRegression, name,
                               regressions_.first_line, regressions_.count,
                               "timestamp jumped backwards by up to " +
                                   std::to_string(regression_max_ms_) +
                                   " ms (budget " +
                                   std::to_string(options.skew_budget_ms) +
                                   " ms)"});
  }
  return out;
}

namespace {

/// Combines a stream's chunks in order, synthesizes FIRST_LOG, merges
/// the chunk runs (each already sorted) and binds stream-scoped events —
/// semantically identical to one chunk over the whole stream.
MinedStream stitch_stream(const std::string& name, std::uint32_t stream_id,
                          const std::shared_ptr<const StringInterner>& pool,
                          std::span<MinedChunk> chunks,
                          const MinerOptions& options,
                          std::vector<Diagnostic> pre_diagnostics = {}) {
  StreamSummary summary;
  std::vector<EventBatch> runs;
  runs.reserve(chunks.size() + 1);
  for (MinedChunk& chunk : chunks) {
    summary.combine(std::move(chunk.summary), options);
    runs.push_back(std::move(chunk.events));
  }
  MinedStream out = summary.finish(name, options);
  out.diagnostics.insert(out.diagnostics.begin(),
                         std::make_move_iterator(pre_diagnostics.begin()),
                         std::make_move_iterator(pre_diagnostics.end()));
  out.diag_counts = logging::count_diagnostics(out.diagnostics);
  // FIRST_LOG is its own single-event run, placed by the merge (it sorts
  // ahead of any same-line real event via the kind tiebreak).
  EventBatch first_run(pool);
  if (summary.push_first_log(first_run, stream_id)) {
    runs.push_back(std::move(first_run));
  }
  out.events = merge_event_batches(std::move(runs));
  summary.bind(out.events);
  return out;
}

/// One logical stream to mine: either a single physical stream (lines
/// alias the view) or a rotated family reassembled in segment order
/// (lines owned here).
struct LogicalStream {
  std::string name;
  std::vector<std::string_view> owned;
  std::span<const std::string_view> lines;
  std::vector<Diagnostic> pre_diagnostics;
};

/// Groups `view`'s streams into logical streams, reassembling rotated
/// families (`base`, `base.1`, `base.2`, ... — higher suffix = older,
/// logrotate order: oldest first, base last).
std::vector<LogicalStream> group_rotations(const logging::BundleView& view) {
  std::map<std::string, std::vector<std::string>> families;
  for (const std::string& name : view.stream_names()) {
    const auto rotation = split_rotation_suffix(name);
    families[rotation ? rotation->base : name].push_back(name);
  }
  std::vector<LogicalStream> out;
  out.reserve(families.size());
  for (auto& [base, members] : families) {
    LogicalStream logical;
    logical.name = base;
    if (members.size() == 1 && members.front() == base) {
      logical.lines = view.stream(base).lines();
      out.push_back(std::move(logical));
      continue;
    }
    std::sort(members.begin(), members.end(), rotation_order_less);
    std::size_t total = 0;
    std::string segment_list;
    for (const std::string& member : members) {
      total += view.stream(member).line_count();
      if (!segment_list.empty()) segment_list += ", ";
      segment_list += member;
    }
    logical.owned.reserve(total);
    for (const std::string& member : members) {
      const auto& lines = view.stream(member).lines();
      logical.owned.insert(logical.owned.end(), lines.begin(), lines.end());
    }
    logical.lines = logical.owned;
    logical.pre_diagnostics.push_back(
        Diagnostic{DiagnosticKind::kRotationGap, base, 0, members.size(),
                   "reassembled " + std::to_string(members.size()) +
                       " rotated segments: " + segment_list});
    out.push_back(std::move(logical));
  }
  return out;
}

/// Cached per-kind diagnostic counters ("mine.diagnostics.<kind>").
obs::Counter& diagnostic_counter(DiagnosticKind kind) {
  static const auto& counters = *[] {
    auto* out = new std::array<obs::Counter*, logging::kDiagnosticKindCount>{};
    for (std::size_t i = 0; i < out->size(); ++i) {
      (*out)[i] = &obs::catalog_counter(
          obs::metric::kMineDiagnostics,
          logging::diagnostic_kind_name(static_cast<DiagnosticKind>(i)));
    }
    return out;
  }();
  return *counters[static_cast<std::size_t>(kind)];
}

}  // namespace

/// The plan's state is exactly what `LogMiner::mine` used to build
/// inline: the logical streams (rotations reassembled), the frozen
/// interner, the chunk work list, and one output slot per chunk.  The
/// types live in this file's anonymous namespace; Impl is defined and
/// used only here.
struct MinePlan::Impl {
  struct ChunkRef {
    std::size_t stream;
    std::size_t begin;
    std::size_t end;
  };

  MinerOptions options;
  std::vector<LogicalStream> logicals;
  std::shared_ptr<const StringInterner> pool;
  std::vector<ChunkRef> refs;
  /// refs index range of stream s: [first_chunk[s], first_chunk[s+1]).
  std::vector<std::size_t> first_chunk;
  std::vector<MinedChunk> outs;
  obs::Counter& lines_counter;
  obs::Counter& prefilter_counter;

  Impl()
      : lines_counter(obs::catalog_counter(obs::metric::kMineLines)),
        prefilter_counter(
            obs::catalog_counter(obs::metric::kMineScanPrefilterSkipped)) {}
};

MinePlan::MinePlan(const logging::BundleView& view,
                   const MinerOptions& options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
  static obs::Gauge& lines_expected =
      obs::catalog_gauge(obs::metric::kMineLinesExpected);

  impl_->logicals = group_rotations(view);
  {
    std::int64_t expected = 0;
    for (const LogicalStream& logical : impl_->logicals) {
      expected += static_cast<std::int64_t>(logical.lines.size());
    }
    // Cumulative like the counters: `mine.lines_expected - mine.lines` is
    // the remaining work even across repeated mines.
    lines_expected.add(expected);
  }

  // One string pool for the whole mine: every batch stores interned
  // stream ids; the pool is frozen (const) before the workers start, so
  // sharing it across mining threads is read-only.  group_rotations
  // returns streams in name order, so id order equals name order and the
  // merge comparator almost never touches the strings.
  impl_->pool = [this] {
    auto building = std::make_shared<StringInterner>();
    for (const LogicalStream& logical : impl_->logicals) {
      building->intern(logical.name);
    }
    return std::shared_ptr<const StringInterner>(std::move(building));
  }();

  // Work list: every logical stream split into chunks at line boundaries,
  // so all chunks across all streams feed one parallel loop and a
  // dominant stream cannot serialize the run.
  impl_->first_chunk.assign(impl_->logicals.size() + 1, 0);
  for (std::size_t s = 0; s < impl_->logicals.size(); ++s) {
    impl_->first_chunk[s] = impl_->refs.size();
    const std::size_t n = impl_->logicals[s].lines.size();
    std::size_t chunk_len = n;
    if (options.threads > 1 && options.shard_grain > 0) {
      const std::size_t target = 4 * options.threads;
      chunk_len = std::max(options.shard_grain, (n + target - 1) / target);
    }
    if (chunk_len == 0) chunk_len = 1;
    std::size_t begin = 0;
    do {
      const std::size_t end = std::min(n, begin + chunk_len);
      impl_->refs.push_back(Impl::ChunkRef{s, begin, end});
      begin = end;
    } while (begin < n);
  }
  impl_->first_chunk[impl_->logicals.size()] = impl_->refs.size();
  impl_->outs.resize(impl_->refs.size());
}

MinePlan::~MinePlan() = default;
MinePlan::MinePlan(MinePlan&&) noexcept = default;
MinePlan& MinePlan::operator=(MinePlan&&) noexcept = default;

std::size_t MinePlan::stream_count() const { return impl_->logicals.size(); }

std::size_t MinePlan::chunk_count() const { return impl_->refs.size(); }

std::size_t MinePlan::stream_of(std::size_t chunk) const {
  return impl_->refs[chunk].stream;
}

std::size_t MinePlan::chunks_of(std::size_t stream) const {
  return impl_->first_chunk[stream + 1] - impl_->first_chunk[stream];
}

const std::string& MinePlan::stream_name(std::size_t stream) const {
  return impl_->logicals[stream].name;
}

std::size_t MinePlan::stream_lines(std::size_t stream) const {
  return impl_->logicals[stream].lines.size();
}

const std::shared_ptr<const StringInterner>& MinePlan::interner() const {
  return impl_->pool;
}

void MinePlan::run_chunk(std::size_t chunk) {
  const auto chunk_span = obs::Tracer::global().span("mine.chunk");
  const Impl::ChunkRef& ref = impl_->refs[chunk];
  const LogicalStream& logical = impl_->logicals[ref.stream];
  MinedChunk& out = impl_->outs[chunk];
  out = mine_chunk(impl_->pool->find(logical.name), impl_->pool,
                   logical.lines.subspan(ref.begin, ref.end - ref.begin),
                   ref.begin, impl_->options);
  // Chunks emit sorted runs; within one stream the order reduces to
  // (ts, line, kind).
  out.events.sort();
  impl_->lines_counter.add(ref.end - ref.begin);
  impl_->prefilter_counter.add(out.prefilter_skipped);
}

MinedStream MinePlan::stitch(std::size_t stream) {
  LogicalStream& logical = impl_->logicals[stream];
  const std::span<MinedChunk> chunks(
      impl_->outs.data() + impl_->first_chunk[stream], chunks_of(stream));
  return stitch_stream(logical.name, impl_->pool->find(logical.name),
                       impl_->pool, chunks, impl_->options,
                       std::move(logical.pre_diagnostics));
}

MinedStream LogMiner::mine_stream(
    const std::string& name, std::span<const std::string_view> lines) const {
  auto pool = std::make_shared<StringInterner>();
  const std::uint32_t stream_id = pool->intern(name);
  const std::shared_ptr<const StringInterner> frozen = std::move(pool);
  MinedChunk chunk = mine_chunk(stream_id, frozen, lines, 0, options_);
  chunk.events.sort();
  return stitch_stream(name, stream_id, frozen, {&chunk, 1}, options_);
}

MinedStream LogMiner::mine_stream(const std::string& name,
                                  const std::vector<std::string>& lines) const {
  const logging::LogView view = logging::LogView::from_lines(lines);
  return mine_stream(name, view.lines());
}

MineResult LogMiner::mine(const logging::BundleView& view) const {
  const auto total_span = obs::Tracer::global().span("mine.total");
  static obs::Counter& events_counter =
      obs::catalog_counter(obs::metric::kMineEvents);
  static obs::Counter& streams_counter =
      obs::catalog_counter(obs::metric::kMineStreams);

  MinePlan plan(view, options_);
  if (options_.threads > 1 && plan.chunk_count() > 1) {
    ThreadPool pool(options_.threads);
    parallel_for(pool, plan.chunk_count(),
                 [&plan](std::size_t c) { plan.run_chunk(c); });
  } else {
    for (std::size_t c = 0; c < plan.chunk_count(); ++c) plan.run_chunk(c);
  }

  MineResult result;
  result.streams.reserve(plan.stream_count());
  std::vector<EventBatch> runs;
  runs.reserve(plan.stream_count());
  {
    const auto stitch_span = obs::Tracer::global().span("mine.stitch");
    for (std::size_t s = 0; s < plan.stream_count(); ++s) {
      MinedStream stream = plan.stitch(s);
      result.lines_total += stream.lines_total;
      result.lines_unparsed += stream.lines_unparsed;
      result.diagnostics.insert(result.diagnostics.end(),
                                stream.diagnostics.begin(),
                                stream.diagnostics.end());
      result.diag_counts += stream.diag_counts;
      // Per-stream runs are already sorted; move them out (no per-event
      // copies) and k-way merge instead of re-sorting globally.
      runs.push_back(std::move(stream.events));
      result.streams.push_back(std::move(stream));
    }
  }
  {
    const auto merge_span = obs::Tracer::global().span("mine.merge");
    result.events = merge_event_batches(std::move(runs));
  }
  streams_counter.add(result.streams.size());
  events_counter.add(result.events.size());
  for (const Diagnostic& diagnostic : result.diagnostics) {
    diagnostic_counter(diagnostic.kind).add(diagnostic.count);
  }
  return result;
}

MineResult LogMiner::mine(const logging::LogBundle& bundle) const {
  return mine(logging::BundleView::from_bundle(bundle));
}

MineResult LogMiner::mine_directory(const std::filesystem::path& dir) const {
  std::vector<Diagnostic> io_diagnostics;
  const logging::BundleView view =
      logging::BundleView::read_from_directory(dir, &io_diagnostics);
  MineResult result = mine(view);
  if (!io_diagnostics.empty()) {
    for (const Diagnostic& diagnostic : io_diagnostics) {
      result.diag_counts.add(diagnostic);
    }
    result.diagnostics.insert(result.diagnostics.begin(),
                              std::make_move_iterator(io_diagnostics.begin()),
                              std::make_move_iterator(io_diagnostics.end()));
  }
  return result;
}

}  // namespace sdc::checker
