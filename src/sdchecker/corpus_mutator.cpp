#include "sdchecker/corpus_mutator.hpp"

#include <algorithm>
#include <cstddef>
#include <exception>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "logging/timestamp.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/incremental.hpp"

namespace sdc::checker {
namespace {

using logging::DiagnosticKind;
using logging::LogBundle;

struct ClassName {
  MutationClass cls;
  std::string_view name;
};

constexpr ClassName kClassNames[kMutationClassCount] = {
    {MutationClass::kIdentity, "identity"},
    {MutationClass::kTruncateHead, "truncate-head"},
    {MutationClass::kTruncateTail, "truncate-tail"},
    {MutationClass::kRotateSplit, "rotate-split"},
    {MutationClass::kDuplicateLines, "duplicate-lines"},
    {MutationClass::kGarbageBytes, "garbage-bytes"},
    {MutationClass::kClockSkew, "clock-skew"},
    {MutationClass::kInterleave, "interleave"},
};

void append_all(LogBundle& out, const std::string& stream,
                const std::vector<std::string>& lines) {
  for (const std::string& line : lines) out.append(stream, line);
}

/// Copies every stream except the (up to two) named ones.
LogBundle copy_except(const LogBundle& input, const std::string& skip,
                      const std::string& skip2 = {}) {
  LogBundle out;
  for (const std::string& name : input.stream_names()) {
    if (name == skip) continue;
    if (!skip2.empty() && name == skip2) continue;
    append_all(out, name, input.lines(name));
  }
  return out;
}

/// Seeded choice of the stream a destructive class damages, among
/// streams long enough to damage meaningfully.
std::optional<std::string> pick_target(const LogBundle& input, Rng& rng) {
  std::vector<std::string> candidates;
  for (const std::string& name : input.stream_names()) {
    if (input.lines(name).size() >= 8) candidates.push_back(name);
  }
  if (candidates.empty()) {
    for (const std::string& name : input.stream_names()) {
      if (!input.lines(name).empty()) candidates.push_back(name);
    }
  }
  if (candidates.empty()) return std::nullopt;
  return candidates[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(candidates.size()) - 1))];
}

std::optional<std::int64_t> line_ts(const std::string& line) {
  if (line.size() < logging::kTimestampWidth) return std::nullopt;
  return logging::parse_epoch_ms(
      std::string_view(line).substr(0, logging::kTimestampWidth));
}

struct TsSpan {
  std::string name;
  std::size_t first_idx = 0;  // first line with a parseable timestamp
  std::size_t last_idx = 0;   // last such line (> first_idx)
  std::int64_t first_ts = 0;
  std::int64_t last_ts = 0;
};

std::optional<TsSpan> stream_span(const LogBundle& input,
                                  const std::string& name) {
  const std::vector<std::string>& lines = input.lines(name);
  TsSpan span;
  span.name = name;
  bool found_first = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (const auto ts = line_ts(lines[i])) {
      if (!found_first) {
        found_first = true;
        span.first_idx = i;
        span.first_ts = *ts;
      }
      span.last_idx = i;
      span.last_ts = *ts;
    }
  }
  if (!found_first || span.last_idx == span.first_idx) return std::nullopt;
  return span;
}

/// The stream whose parseable timestamps cover the widest interval —
/// the pick for classes that need room to make time jump backwards.
std::optional<TsSpan> widest_span_stream(const LogBundle& input) {
  std::optional<TsSpan> best;
  for (const std::string& name : input.stream_names()) {
    const auto span = stream_span(input, name);
    if (!span) continue;
    if (!best ||
        span->last_ts - span->first_ts > best->last_ts - best->first_ts) {
      best = span;
    }
  }
  return best;
}

/// Rewrites the leading timestamp of `line` by `delta_ms`; returns the
/// line unchanged when it has no parseable timestamp.
std::string shift_line_ts(const std::string& line, std::int64_t delta_ms) {
  const auto ts = line_ts(line);
  if (!ts) return line;
  return logging::format_epoch_ms(*ts + delta_ms) +
         line.substr(logging::kTimestampWidth);
}

// --- mutation classes ------------------------------------------------------

LogBundle mutate_truncate_head(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  const std::vector<std::string>& lines = input.lines(*target);
  if (lines.size() < 2) return input;
  LogBundle out = copy_except(input, *target);
  std::size_t drop = std::max<std::size_t>(
      1, static_cast<std::size_t>(rng.uniform_int(
             1, static_cast<std::int64_t>(lines.size()) / 4 + 1)));
  drop = std::min(drop, lines.size() - 1);
  std::vector<std::string> kept(lines.begin() +
                                    static_cast<std::ptrdiff_t>(drop),
                                lines.end());
  // Tear the new first line mid-line: only its tail survives, timestamp
  // gone — what a reader sees after the head was rotated away mid-write.
  std::string& first = kept.front();
  if (first.size() > 4) first.erase(0, first.size() * 2 / 3);
  append_all(out, *target, kept);
  return out;
}

LogBundle mutate_truncate_tail(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  std::vector<std::string> lines = input.lines(*target);
  if (lines.size() < 2) return input;
  LogBundle out = copy_except(input, *target);
  std::size_t drop = std::max<std::size_t>(
      1, static_cast<std::size_t>(rng.uniform_int(
             1, static_cast<std::int64_t>(lines.size()) / 4 + 1)));
  drop = std::min(drop, lines.size() - 1);
  lines.resize(lines.size() - drop);
  // Cut the surviving last line mid-write: the timestamp reached disk,
  // the rest of the write did not.
  std::string& last = lines.back();
  if (last.size() > logging::kTimestampWidth + 2) {
    last.resize(logging::kTimestampWidth +
                static_cast<std::size_t>(rng.uniform_int(1, 4)));
  } else if (last.size() > 1) {
    last.resize(last.size() / 2);
  }
  append_all(out, *target, lines);
  return out;
}

LogBundle mutate_rotate_split(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  const std::vector<std::string>& lines = input.lines(*target);
  if (lines.size() < 2) return input;
  LogBundle out = copy_except(input, *target);
  const std::size_t segments = lines.size() >= 30 ? 3 : 2;
  // Seed-jittered cut points, kept strictly increasing.
  std::vector<std::size_t> bounds{0};
  for (std::size_t s = 1; s < segments; ++s) {
    const auto base =
        static_cast<std::int64_t>(lines.size() * s / segments);
    const auto spread = static_cast<std::int64_t>(lines.size() / 8);
    std::int64_t cut = base + rng.uniform_int(-spread, spread);
    cut = std::clamp(cut, static_cast<std::int64_t>(bounds.back()) + 1,
                     static_cast<std::int64_t>(lines.size()) -
                         static_cast<std::int64_t>(segments - s));
    bounds.push_back(static_cast<std::size_t>(cut));
  }
  bounds.push_back(lines.size());
  // logrotate order: the oldest lines live in the highest suffix, the
  // newest keep the base name.
  for (std::size_t s = 0; s < segments; ++s) {
    const std::size_t suffix = segments - 1 - s;
    const std::string name =
        suffix == 0 ? *target : *target + "." + std::to_string(suffix);
    for (std::size_t i = bounds[s]; i < bounds[s + 1]; ++i) {
      out.append(name, lines[i]);
    }
  }
  return out;
}

LogBundle mutate_duplicate_lines(const LogBundle& input, Rng& rng) {
  const auto span = widest_span_stream(input);
  if (!span) return input;
  const std::vector<std::string>& lines = input.lines(span->name);
  LogBundle out = copy_except(input, span->name);
  // Re-flushed buffer: a block reaching to the end of the stream appears
  // twice.  The seam where the copy restarts jumps backwards by (nearly)
  // the stream's whole timestamp span.
  const std::size_t begin = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(span->first_idx)));
  std::vector<std::string> mutated = lines;
  mutated.insert(mutated.end(),
                 lines.begin() + static_cast<std::ptrdiff_t>(begin),
                 lines.end());
  append_all(out, span->name, mutated);
  return out;
}

LogBundle mutate_garbage_bytes(const LogBundle& input, Rng& rng) {
  const auto target = pick_target(input, rng);
  if (!target) return input;
  const std::vector<std::string>& lines = input.lines(*target);
  LogBundle out = copy_except(input, *target);
  const std::size_t at = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(lines.size())));
  constexpr std::size_t kBurst = 6;
  std::vector<std::string> mutated(
      lines.begin(), lines.begin() + static_cast<std::ptrdiff_t>(at));
  for (std::size_t b = 0; b < kBurst; ++b) {
    const std::size_t len =
        static_cast<std::size_t>(rng.uniform_int(8, 40));
    std::string junk(len, '\0');
    for (char& c : junk) {
      const auto byte = static_cast<int>(rng.uniform_int(0, 255));
      // Keep the corpus line-structured: '\n' would split the line.
      c = byte == '\n' ? '\0' : static_cast<char>(byte);
    }
    // At least one NUL so the line classifies as binary garbage even if
    // the draw happened to be printable.
    junk[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(len) - 1))] = '\0';
    mutated.push_back(std::move(junk));
  }
  mutated.insert(mutated.end(),
                 lines.begin() + static_cast<std::ptrdiff_t>(at),
                 lines.end());
  append_all(out, *target, mutated);
  return out;
}

LogBundle mutate_clock_skew(const LogBundle& input, Rng& rng) {
  const auto span = widest_span_stream(input);
  if (!span) return input;
  const std::vector<std::string>& lines = input.lines(span->name);
  LogBundle out = copy_except(input, span->name);
  // NTP step: the daemon's clock is corrected backwards mid-run, so
  // every later line is stamped several seconds earlier.
  const std::size_t split =
      span->first_idx + std::max<std::size_t>(
                            1, (span->last_idx - span->first_idx) / 2);
  const std::int64_t delta = -(5000 + rng.uniform_int(0, 5000));
  std::vector<std::string> mutated;
  mutated.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    mutated.push_back(i >= split ? shift_line_ts(lines[i], delta)
                                 : lines[i]);
  }
  append_all(out, span->name, mutated);
  return out;
}

LogBundle mutate_interleave(const LogBundle& input, Rng& rng) {
  // Two daemons writing one file.  The host stream keeps its name; the
  // guest's lines are woven in block-wise with its (badly skewed) clock
  // stamping everything before the host's run even started — every
  // host->guest seam jumps backwards in time.
  const auto host = widest_span_stream(input);
  if (!host) return input;
  std::optional<TsSpan> guest;
  for (const std::string& name : input.stream_names()) {
    if (name == host->name) continue;
    const auto span = stream_span(input, name);
    if (!span) continue;
    if (!guest ||
        span->last_ts - span->first_ts > guest->last_ts - guest->first_ts) {
      guest = span;
    }
  }
  if (!guest) return input;
  const std::vector<std::string>& a = input.lines(host->name);
  const std::vector<std::string>& b = input.lines(guest->name);
  LogBundle out = copy_except(input, host->name, guest->name);
  const std::int64_t guest_delta =
      (host->first_ts - guest->last_ts) - 5000 - rng.uniform_int(0, 5000);
  const std::size_t block =
      static_cast<std::size_t>(rng.uniform_int(4, 12));
  std::vector<std::string> mutated;
  mutated.reserve(a.size() + b.size());
  std::size_t ai = 0;
  std::size_t bi = 0;
  // Lead with a host block that includes a parsed timestamp, so the
  // first guest block lands after it and trips the regression check.
  std::size_t take_a = std::max(block, host->first_idx + 1);
  while (ai < a.size() || bi < b.size()) {
    for (std::size_t n = 0; n < take_a && ai < a.size(); ++n) {
      mutated.push_back(a[ai++]);
    }
    take_a = block;
    for (std::size_t n = 0; n < block && bi < b.size(); ++n) {
      mutated.push_back(shift_line_ts(b[bi++], guest_delta));
    }
  }
  append_all(out, host->name, mutated);
  return out;
}

/// Feeds `corpus` into an IncrementalAnalyzer the way a tail would: each
/// logical stream (rotated segments oldest first) becomes one byte
/// stream cut at seeded random offsets, mid-line cuts included, and the
/// streams' pieces interleave at random.  Each piece's complete lines
/// are one feed; a cut line waits for the rest of its bytes.
AnalysisResult stream_corpus(const LogBundle& corpus, Rng& rng,
                             const AnalyzeOptions& options) {
  struct Feed {
    std::string name;
    std::string bytes;
    std::size_t fed = 0;  // bytes up to the last complete line fed
    std::size_t read = 0;
  };
  std::map<std::string, std::vector<std::string>> families;
  for (const std::string& name : corpus.stream_names()) {
    const auto rotation = split_rotation_suffix(name);
    families[rotation ? rotation->base : name].push_back(name);
  }
  std::vector<Feed> feeds;
  for (auto& [base, members] : families) {
    std::sort(members.begin(), members.end(), rotation_order_less);
    Feed feed{base, {}};
    for (const std::string& member : members) {
      for (const std::string& line : corpus.lines(member)) {
        feed.bytes += line;
        feed.bytes += '\n';
      }
    }
    feeds.push_back(std::move(feed));
  }

  IncrementalAnalyzer analyzer(options.miner_options());
  std::vector<std::string_view> lines;
  std::vector<Feed*> open;
  for (Feed& feed : feeds) open.push_back(&feed);
  while (!open.empty()) {
    const auto pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(open.size()) - 1));
    Feed& feed = *open[pick];
    const auto piece = static_cast<std::size_t>(rng.uniform_int(
        1, std::max<std::int64_t>(
               1, static_cast<std::int64_t>(feed.bytes.size() / 4))));
    feed.read = std::min(feed.bytes.size(), feed.read + piece);
    lines.clear();
    const std::string_view bytes(feed.bytes);
    for (std::size_t nl = bytes.find('\n', feed.fed);
         nl != std::string_view::npos && nl < feed.read;
         nl = bytes.find('\n', feed.fed)) {
      lines.push_back(bytes.substr(feed.fed, nl - feed.fed));
      feed.fed = nl + 1;
    }
    if (!lines.empty()) analyzer.feed_all(feed.name, lines);
    if (feed.read == feed.bytes.size()) open.erase(open.begin() + pick);
  }
  return analyzer.snapshot(options.analyze_shards);
}

/// Batch analysis as a drained follow service reports it: rotation-gap
/// records come from the tailer's view of the directory, which an
/// analyzer fed lines never has.
std::string streaming_view(AnalysisResult analysis) {
  std::erase_if(analysis.diagnostics, [](const logging::Diagnostic& d) {
    return d.kind == DiagnosticKind::kRotationGap;
  });
  analysis.diag_counts = logging::count_diagnostics(analysis.diagnostics);
  return analysis_json(analysis);
}

}  // namespace

std::string_view mutation_class_name(MutationClass cls) {
  for (const ClassName& entry : kClassNames) {
    if (entry.cls == cls) return entry.name;
  }
  return "?";
}

std::optional<MutationClass> mutation_class_from_name(std::string_view name) {
  for (const ClassName& entry : kClassNames) {
    if (entry.name == name) return entry.cls;
  }
  return std::nullopt;
}

std::vector<MutationClass> all_mutation_classes() {
  std::vector<MutationClass> out;
  out.reserve(kMutationClassCount);
  for (const ClassName& entry : kClassNames) out.push_back(entry.cls);
  return out;
}

std::optional<DiagnosticKind> expected_diagnostic(MutationClass cls) {
  switch (cls) {
    case MutationClass::kIdentity:
      return std::nullopt;
    case MutationClass::kTruncateHead:
    case MutationClass::kTruncateTail:
      return DiagnosticKind::kTruncatedLine;
    case MutationClass::kRotateSplit:
      return DiagnosticKind::kRotationGap;
    case MutationClass::kDuplicateLines:
    case MutationClass::kClockSkew:
    case MutationClass::kInterleave:
      return DiagnosticKind::kTimestampRegression;
    case MutationClass::kGarbageBytes:
      return DiagnosticKind::kBinaryGarbage;
  }
  return std::nullopt;
}

std::vector<MutationClass> mutation_classes_for(logging::DiagnosticKind kind) {
  std::vector<MutationClass> out;
  for (MutationClass cls : all_mutation_classes()) {
    if (expected_diagnostic(cls) == kind) out.push_back(cls);
  }
  return out;
}

std::optional<std::string_view> runtime_only_reason(
    logging::DiagnosticKind kind) {
  // Kinds here arise from I/O or cross-stream state the byte-level
  // mutator cannot model; each names the mechanism that surfaces it.
  // If a new mutation class starts covering one of these kinds, sdlint's
  // diag.stale-exemption check fires until the row is deleted.
  switch (kind) {
    case logging::DiagnosticKind::kUnreadableFile:
      return "filesystem permission/open failure; mutations rewrite bytes "
             "of readable bundles";
    case logging::DiagnosticKind::kUnparsableBurst:
      return "emitted when the per-stream unparsable-line ratio trips the "
             "analyzer threshold, a derived signal exercised directly by "
             "miner tests";
    case logging::DiagnosticKind::kUnboundStream:
      return "requires a stream whose app binding never resolves; mutator "
             "inputs are generated from bound scenario logs";
    default:
      return std::nullopt;
  }
}

logging::LogBundle apply_mutation(const logging::LogBundle& input,
                                  MutationClass cls, std::uint64_t seed) {
  // Fork per class so every class sees an independent stream for the
  // same seed.
  Rng root(seed);
  Rng rng = root.fork(static_cast<std::uint64_t>(cls) + 1);
  switch (cls) {
    case MutationClass::kIdentity:
      return input;
    case MutationClass::kTruncateHead:
      return mutate_truncate_head(input, rng);
    case MutationClass::kTruncateTail:
      return mutate_truncate_tail(input, rng);
    case MutationClass::kRotateSplit:
      return mutate_rotate_split(input, rng);
    case MutationClass::kDuplicateLines:
      return mutate_duplicate_lines(input, rng);
    case MutationClass::kGarbageBytes:
      return mutate_garbage_bytes(input, rng);
    case MutationClass::kClockSkew:
      return mutate_clock_skew(input, rng);
    case MutationClass::kInterleave:
      return mutate_interleave(input, rng);
  }
  return input;
}

std::vector<FuzzCaseResult> fuzz_corpus(const logging::LogBundle& base,
                                        std::uint64_t seed,
                                        const std::vector<MutationClass>&
                                            classes,
                                        const AnalyzeOptions& options) {
  std::vector<FuzzCaseResult> out;
  out.reserve(classes.size());
  const SdChecker checker(options);
  std::optional<std::string> baseline_events;
  std::optional<std::string> baseline_delays;
  try {
    const AnalysisResult baseline = checker.analyze(base);
    baseline_events = events_csv(baseline);
    baseline_delays = delays_csv(baseline);
  } catch (...) {
    // Identity can never pass without a baseline; each case still runs.
  }
  for (const MutationClass cls : classes) {
    FuzzCaseResult result;
    result.cls = cls;
    try {
      const LogBundle mutated = apply_mutation(base, cls, seed);
      const AnalysisResult analysis = checker.analyze(mutated);
      result.events_total = analysis.events_total;
      result.anomalies = analysis.anomalies.size();
      result.diag_counts = analysis.diag_counts;
      if (const auto kind = expected_diagnostic(cls)) {
        result.expected_kind_count = analysis.diag_counts.of(*kind);
        result.ok = result.expected_kind_count > 0;
      } else {
        result.expected_kind_count = analysis.diag_counts.total();
        result.ok = result.expected_kind_count == 0 &&
                    baseline_events.has_value() &&
                    events_csv(analysis) == *baseline_events &&
                    delays_csv(analysis) == *baseline_delays;
      }
      Rng split_rng = Rng(seed).fork(kMutationClassCount + 1 +
                                     static_cast<std::uint64_t>(cls));
      result.streaming_parity =
          analysis_json(stream_corpus(mutated, split_rng, options)) ==
          streaming_view(analysis);
      result.ok = result.ok && result.streaming_parity;
    } catch (const std::exception& e) {
      result.crashed = true;
      result.error = e.what();
    } catch (...) {
      result.crashed = true;
      result.error = "non-standard exception";
    }
    out.push_back(std::move(result));
  }
  return out;
}

std::string render_fuzz_report(const std::vector<FuzzCaseResult>& results) {
  std::string out;
  for (const FuzzCaseResult& result : results) {
    out += result.ok ? "ok   " : "FAIL ";
    std::string name(mutation_class_name(result.cls));
    name.resize(16, ' ');
    out += name;
    if (result.crashed) {
      out += " crashed: " + result.error;
    } else {
      const auto kind = expected_diagnostic(result.cls);
      out += " diag[";
      out += kind ? logging::diagnostic_kind_name(*kind) : "total";
      out += "]=" + std::to_string(result.expected_kind_count);
      out += " diagnostics=" + std::to_string(result.diag_counts.total());
      out += " events=" + std::to_string(result.events_total);
      out += " anomalies=" + std::to_string(result.anomalies);
      out += result.streaming_parity ? " streaming=same" : " streaming=DIFF";
    }
    out += '\n';
  }
  return out;
}

}  // namespace sdc::checker
