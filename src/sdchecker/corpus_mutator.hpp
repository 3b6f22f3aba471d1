// Deterministic, seeded corpus mutator — the fuzz harness that proves
// the mining pipeline degrades gracefully.
//
// Each mutation class models one way real clusters damage their logs:
// head/tail truncation (rotation tears, full disks), rotated segments,
// duplicated flushes, binary garbage, a daemon clock stepping mid-run,
// and two daemons interleaving one file.  Mutations are pure functions
// of (input bundle, class, seed), so every failure is replayable.  The
// self-check (`fuzz_corpus`) asserts the analyzer never throws, that the
// identity mutation reproduces the baseline analysis event for event,
// that each destructive class surfaces its expected diagnostic kind, and
// that streaming the mutant in random feed splits reproduces the batch
// analysis.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "logging/diagnostics.hpp"
#include "logging/log_bundle.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

enum class MutationClass {
  /// No change — the control: analysis must be event-for-event identical.
  kIdentity = 0,
  /// Drop the head of one stream and tear the new first line mid-line.
  kTruncateHead,
  /// Drop the tail of one stream and cut the new last line mid-write
  /// (timestamp survives, remainder lost).
  kTruncateTail,
  /// Split one stream into rotated segments (`name.N` oldest ... `name`).
  kRotateSplit,
  /// Duplicate a contiguous block of one stream in place (re-flushed
  /// buffer): the seam jumps backwards in time.
  kDuplicateLines,
  /// Inject a burst of binary-garbage lines into one stream.
  kGarbageBytes,
  /// Step one daemon's clock mid-stream (NTP correction): later lines
  /// shift backwards by several seconds.
  kClockSkew,
  /// Interleave a second stream's lines into the first, block-wise (two
  /// daemons writing one file).
  kInterleave,
};

inline constexpr std::size_t kMutationClassCount = 8;

std::string_view mutation_class_name(MutationClass cls);
std::optional<MutationClass> mutation_class_from_name(std::string_view name);
/// All classes, identity first.
std::vector<MutationClass> all_mutation_classes();

/// The diagnostic kind a destructive class is expected to surface
/// (nullopt for kIdentity, which must surface nothing new).
std::optional<logging::DiagnosticKind> expected_diagnostic(MutationClass cls);

/// Inverse of `expected_diagnostic`: the mutation classes expected to
/// surface `kind` (empty when no class models it).  sdlint's `diag.*`
/// checks require every diagnostic kind to be either reachable this way
/// or explicitly declared runtime-only below — a kind in neither set is
/// a vocabulary hole the fuzz harness can never exercise.
std::vector<MutationClass> mutation_classes_for(logging::DiagnosticKind kind);

/// Why a diagnostic kind is runtime-only (no byte-level mutation of a
/// log bundle can surface it), or nullopt when the mutator covers it.
/// Every runtime-only kind must still be exercised by a dedicated test;
/// the reason names the mechanism.
std::optional<std::string_view> runtime_only_reason(
    logging::DiagnosticKind kind);

/// Applies one mutation class.  Deterministic in (input, cls, seed).
[[nodiscard]] logging::LogBundle apply_mutation(
    const logging::LogBundle& input, MutationClass cls, std::uint64_t seed);

/// Outcome of analyzing one mutated corpus.
struct FuzzCaseResult {
  MutationClass cls = MutationClass::kIdentity;
  /// An exception escaped the analyzer (always a failure).
  bool crashed = false;
  std::string error;
  /// Occurrences of the class's expected diagnostic kind (total
  /// diagnostics for kIdentity, where it must stay 0).
  std::size_t expected_kind_count = 0;
  std::size_t events_total = 0;
  std::size_t anomalies = 0;
  logging::DiagnosticCounts diag_counts;
  /// The mutant fed to an IncrementalAnalyzer in seeded random splits
  /// (mid-line cuts included) snapshots to the batch `analysis_json`,
  /// rotation-gap records aside (those come from the tailer).
  bool streaming_parity = false;
  /// Verdict: no crash, streaming parity, and the class-correct signal
  /// is present (for kIdentity: the analysis matches the baseline event
  /// for event).
  bool ok = false;
};

/// Mutates + analyzes `base` once per class; `options` configures the
/// analyzer under test.  Never throws — analyzer exceptions are captured
/// in the per-case result.
std::vector<FuzzCaseResult> fuzz_corpus(
    const logging::LogBundle& base, std::uint64_t seed,
    const std::vector<MutationClass>& classes,
    const AnalyzeOptions& options = {});

/// One fixed-width report line per case ("ok identity ...").
std::string render_fuzz_report(const std::vector<FuzzCaseResult>& results);

}  // namespace sdc::checker
