// Tests for the seeded corpus mutator and its self-check harness: the
// analyzer never crashes on any mutant, the identity mutation is
// event-for-event identical to the baseline, every destructive class
// surfaces a nonzero count of its expected diagnostic kind, and every
// mutant streams to the batch analysis.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "logging/log_bundle.hpp"
#include "sdchecker/corpus_mutator.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

std::filesystem::path corpus_dir() {
  for (std::filesystem::path dir = std::filesystem::current_path();
       !dir.empty() && dir != dir.root_path(); dir = dir.parent_path()) {
    const auto candidate = dir / "testdata" / "golden_small";
    if (std::filesystem::is_directory(candidate)) return candidate;
  }
  return std::filesystem::path("testdata") / "golden_small";
}

const logging::LogBundle& golden() {
  static const logging::LogBundle bundle =
      logging::LogBundle::read_from_directory(corpus_dir());
  return bundle;
}

bool bundles_equal(const logging::LogBundle& a, const logging::LogBundle& b) {
  if (a.stream_names() != b.stream_names()) return false;
  for (const std::string& name : a.stream_names()) {
    if (a.lines(name) != b.lines(name)) return false;
  }
  return true;
}

TEST(CorpusMutator, ClassNamesRoundTrip) {
  const auto classes = all_mutation_classes();
  ASSERT_EQ(classes.size(), kMutationClassCount);
  EXPECT_EQ(classes.front(), MutationClass::kIdentity);
  for (const MutationClass cls : classes) {
    const auto name = mutation_class_name(cls);
    EXPECT_NE(name, "?");
    const auto parsed = mutation_class_from_name(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, cls);
  }
  EXPECT_FALSE(mutation_class_from_name("no-such-class").has_value());
}

TEST(CorpusMutator, DeterministicForSameSeed) {
  for (const MutationClass cls : all_mutation_classes()) {
    const auto a = apply_mutation(golden(), cls, 7);
    const auto b = apply_mutation(golden(), cls, 7);
    EXPECT_TRUE(bundles_equal(a, b)) << mutation_class_name(cls);
  }
}

TEST(CorpusMutator, IdentityIsByteIdentical) {
  const auto mutated =
      apply_mutation(golden(), MutationClass::kIdentity, 42);
  EXPECT_TRUE(bundles_equal(golden(), mutated));
}

TEST(CorpusMutator, NeverCrashesAcrossSeedsAndClasses) {
  // The never-crash contract, over several seeds.  fuzz_corpus captures
  // any analyzer exception as a per-case failure; none may occur.
  for (const std::uint64_t seed : {1ull, 42ull, 20170703ull}) {
    const auto results = fuzz_corpus(golden(), seed, all_mutation_classes());
    ASSERT_EQ(results.size(), kMutationClassCount);
    for (const FuzzCaseResult& result : results) {
      EXPECT_FALSE(result.crashed)
          << mutation_class_name(result.cls) << " seed " << seed << ": "
          << result.error;
    }
  }
}

TEST(CorpusMutator, StreamingMatchesBatchAcrossSeeds) {
  // Follow-mode parity over every damage class: each mutant, fed to the
  // streaming analyzer in seeded random splits (mid-line cuts included),
  // snapshots to the batch analysis, at one and at three pipeline threads.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 5ull, 8ull, 42ull}) {
    for (const std::size_t threads : {1u, 3u}) {
      AnalyzeOptions options;
      options.threads = threads;
      for (const FuzzCaseResult& result :
           fuzz_corpus(golden(), seed, all_mutation_classes(), options)) {
        EXPECT_TRUE(result.streaming_parity)
            << mutation_class_name(result.cls) << " seed " << seed
            << " threads " << threads;
        EXPECT_TRUE(result.ok) << mutation_class_name(result.cls);
      }
    }
  }
}

TEST(CorpusMutator, IdentityMutationEventIdenticalToBaseline) {
  const SdChecker checker;
  const AnalysisResult baseline = checker.analyze(golden());
  const AnalysisResult identical =
      checker.analyze(apply_mutation(golden(), MutationClass::kIdentity, 42));
  EXPECT_EQ(events_csv(baseline), events_csv(identical));
  EXPECT_EQ(delays_csv(baseline), delays_csv(identical));
  EXPECT_EQ(baseline.events_total, identical.events_total);
  EXPECT_EQ(identical.diag_counts.total(), 0u);
}

TEST(CorpusMutator, DestructiveClassesYieldClassCorrectDiagnostics) {
  const auto results = fuzz_corpus(golden(), 42, all_mutation_classes());
  ASSERT_EQ(results.size(), kMutationClassCount);
  for (const FuzzCaseResult& result : results) {
    EXPECT_TRUE(result.ok) << mutation_class_name(result.cls);
    const auto kind = expected_diagnostic(result.cls);
    if (!kind) continue;  // identity
    EXPECT_GT(result.expected_kind_count, 0u)
        << mutation_class_name(result.cls) << " should surface "
        << logging::diagnostic_kind_name(*kind);
  }
}

TEST(CorpusMutator, DiagnosticsSurfaceInAnalysisJson) {
  // The per-kind counts of a mutant's analysis are visible (nonzero) in
  // the machine-readable export.
  const SdChecker checker;
  for (const MutationClass cls :
       {MutationClass::kGarbageBytes, MutationClass::kRotateSplit,
        MutationClass::kClockSkew}) {
    const auto analysis = checker.analyze(apply_mutation(golden(), cls, 42));
    const auto kind = expected_diagnostic(cls);
    ASSERT_TRUE(kind.has_value());
    EXPECT_GT(analysis.diag_counts.of(*kind), 0u) << mutation_class_name(cls);
    const std::string json = analysis_json(analysis);
    const std::string key =
        '"' + std::string(logging::diagnostic_kind_name(*kind)) + "\":";
    ASSERT_NE(json.find(key), std::string::npos) << json.substr(0, 200);
    // The count right after the key must not be zero.
    const std::string zero = key + " 0";
    EXPECT_EQ(json.find(zero), std::string::npos) << mutation_class_name(cls);
  }
}

TEST(CorpusMutator, MutantsRoundTripThroughDirectoryIo) {
  // Garbage bytes (including NULs) must survive write_to_directory /
  // read_from_directory, so a replayed mutant reproduces the in-memory
  // diagnostics exactly.
  const auto mutated =
      apply_mutation(golden(), MutationClass::kGarbageBytes, 42);
  const auto dir =
      std::filesystem::temp_directory_path() / "sdc_mutator_roundtrip";
  std::filesystem::remove_all(dir);
  mutated.write_to_directory(dir);
  const auto reread = logging::LogBundle::read_from_directory(dir);
  EXPECT_TRUE(bundles_equal(mutated, reread));
  const SdChecker checker;
  EXPECT_EQ(checker.analyze(mutated).diag_counts.of(
                logging::DiagnosticKind::kBinaryGarbage),
            checker.analyze(reread).diag_counts.of(
                logging::DiagnosticKind::kBinaryGarbage));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sdc::checker
