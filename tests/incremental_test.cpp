// Tests for the streaming analyzer: equivalence with batch analysis,
// event parking until stream binding, interleaved feeding, partial views.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "harness/scenario.hpp"
#include "logging/timestamp.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/incremental.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

harness::ScenarioResult small_run(int jobs = 4, std::uint64_t seed = 301) {
  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  for (int i = 0; i < jobs; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 7 * i);
    plan.app = workloads::make_tpch_query(1 + i, 2048, 2);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  return harness::run_scenario(scenario);
}

TEST(Incremental, MatchesBatchAnalysisExactly) {
  const auto run = small_run();
  // Batch.
  const AnalysisResult batch = SdChecker().analyze(run.logs);
  // Streaming: feed stream by stream, in file order.
  IncrementalAnalyzer analyzer;
  for (const auto& name : run.logs.stream_names()) {
    analyzer.feed_all(name, run.logs.lines(name));
  }
  const AnalysisResult streamed = analyzer.snapshot();

  ASSERT_EQ(streamed.delays.size(), batch.delays.size());
  for (const auto& [app, batch_delays] : batch.delays) {
    const Delays& live = streamed.delays.at(app);
    EXPECT_EQ(live.total, batch_delays.total) << app.str();
    EXPECT_EQ(live.am, batch_delays.am);
    EXPECT_EQ(live.driver, batch_delays.driver);
    EXPECT_EQ(live.executor, batch_delays.executor);
    EXPECT_EQ(live.alloc, batch_delays.alloc);
    EXPECT_EQ(live.containers.size(), batch_delays.containers.size());
  }
  EXPECT_EQ(streamed.lines_total, batch.lines_total);
  EXPECT_EQ(streamed.lines_unparsed, batch.lines_unparsed);
  EXPECT_EQ(streamed.events_total, batch.events_total);
  EXPECT_EQ(analyzer.events_pending(), 0u);
}

TEST(Incremental, InterleavedRoundRobinFeedMatchesToo) {
  const auto run = small_run(3, 302);
  const AnalysisResult batch = SdChecker().analyze(run.logs);

  // Round-robin across streams: one line at a time, preserving per-stream
  // order but interleaving streams maximally.
  IncrementalAnalyzer analyzer;
  const auto names = run.logs.stream_names();
  std::vector<std::size_t> cursor(names.size(), 0);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto& lines = run.logs.lines(names[i]);
      if (cursor[i] < lines.size()) {
        analyzer.feed(names[i], lines[cursor[i]++]);
        progressed = true;
      }
    }
  }
  const AnalysisResult streamed = analyzer.snapshot();
  ASSERT_EQ(streamed.delays.size(), batch.delays.size());
  for (const auto& [app, batch_delays] : batch.delays) {
    EXPECT_EQ(streamed.delays.at(app).total, batch_delays.total);
    EXPECT_EQ(streamed.delays.at(app).in_app, batch_delays.in_app);
  }
}

TEST(Incremental, EventsParkUntilStreamBinds) {
  IncrementalAnalyzer analyzer;
  const std::string first =
      "2017-07-03 16:40:00,000 INFO  org.apache.spark.deploy.yarn."
      "ApplicationMaster: Registered signal handlers for [TERM]";
  const std::string reg =
      "2017-07-03 16:40:03,000 INFO  org.apache.spark.deploy.yarn."
      "ApplicationMaster: Registering the ApplicationMaster with the "
      "ResourceManager";
  const std::string binder =
      "2017-07-03 16:40:03,100 INFO  org.apache.spark.deploy.yarn."
      "ApplicationMaster: ApplicationAttemptId: appattempt_1499100000000_"
      "0009_000001";
  analyzer.feed("driver.log", first);
  analyzer.feed("driver.log", reg);
  // FIRST_LOG + REGISTER are parked: no id seen yet.
  EXPECT_EQ(analyzer.events_pending(), 2u);
  EXPECT_TRUE(analyzer.timelines().empty());
  analyzer.feed("driver.log", binder);
  EXPECT_EQ(analyzer.events_pending(), 0u);
  ASSERT_EQ(analyzer.timelines().size(), 1u);
  const AppTimeline& timeline = analyzer.timelines().begin()->second;
  EXPECT_EQ(timeline.ts(EventKind::kDriverFirstLog), 1'499'100'000'000);
  EXPECT_EQ(timeline.ts(EventKind::kDriverRegister), 1'499'100'003'000);
  const Delays delays = analyzer.delays_for(timeline.app);
  EXPECT_EQ(delays.driver, 3000);
}

TEST(Incremental, PartialViewGrowsMonotonically) {
  const auto run = small_run(1, 303);
  // Feed the RM log only: am should resolve, total should not.
  IncrementalAnalyzer analyzer;
  analyzer.feed_all("rm.log", run.logs.lines("rm.log"));
  ASSERT_EQ(analyzer.timelines().size(), 1u);
  const ApplicationId app = analyzer.timelines().begin()->first;
  const Delays rm_only = analyzer.delays_for(app);
  EXPECT_TRUE(rm_only.am.has_value());
  EXPECT_FALSE(rm_only.total.has_value());
  EXPECT_FALSE(rm_only.driver.has_value());
  // Now the rest arrives; everything fills in.
  for (const auto& name : run.logs.stream_names()) {
    if (name != "rm.log") analyzer.feed_all(name, run.logs.lines(name));
  }
  const Delays full = analyzer.delays_for(app);
  EXPECT_EQ(full.am, rm_only.am);  // already-seen intervals are stable
  EXPECT_TRUE(full.total.has_value());
  EXPECT_TRUE(full.driver.has_value());
}

TEST(Incremental, UnknownAppQueryReturnsEmptyDelays) {
  IncrementalAnalyzer analyzer;
  const Delays delays = analyzer.delays_for(ApplicationId{1, 42});
  EXPECT_FALSE(delays.total.has_value());
  EXPECT_EQ(delays.app.id, 42);
}

// --- CRLF streaming/batch parity ---------------------------------------
//
// Regression: a live tail delivers the raw bytes of CRLF-terminated
// logs, while the batch readers strip the '\r' at read time.  feed()
// must strip it too, or every line's last token grows a carriage return
// and the two paths diverge.
TEST(Incremental, CrlfLinesMatchBatchDirectoryRead) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "sdc_incremental_crlf";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto run = small_run(2, 304);
  for (const auto& name : run.logs.stream_names()) {
    std::ofstream out(dir / name, std::ios::binary);
    for (const std::string& line : run.logs.lines(name)) {
      out << line << "\r\n";
    }
  }

  const AnalysisResult batch = SdChecker().analyze_directory(dir);
  IncrementalAnalyzer analyzer;
  for (const auto& name : run.logs.stream_names()) {
    // Read raw file bytes and split on '\n' only, keeping the '\r' —
    // exactly what a tail hands the analyzer.
    std::ifstream in(dir / name, std::ios::binary);
    std::string line;
    while (std::getline(in, line)) analyzer.feed(name, line);
  }
  const AnalysisResult streamed = analyzer.snapshot();
  EXPECT_EQ(analysis_json(streamed), analysis_json(batch));
  EXPECT_EQ(streamed.lines_unparsed, batch.lines_unparsed);
}

// --- never-binding streams ---------------------------------------------
//
// Regression: the batch miner counts every extracted event in
// `events_total` whether or not it ever attributes to an application;
// the streaming path used to count only applied events, so a stream
// that never reveals an id made the two summaries diverge.
TEST(Incremental, UnboundStreamEventCountsMatchBatch) {
  logging::LogBundle bundle;
  bundle.append("rm.log",
                "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
                "resourcemanager.rmapp.RMAppImpl: "
                "application_1499100000000_0001 State change from NEW_SAVING "
                "to SUBMITTED on event = APP_NEW_SAVED");
  // An executor stream that never mentions an application or container
  // id: FIRST_LOG + FIRST_TASK extract but can never attribute.
  bundle.append("executor.log",
                "17/07/03 16:40:09 INFO CoarseGrainedExecutorBackend: "
                "Registered signal handlers");
  bundle.append("executor.log",
                "17/07/03 16:40:12 INFO CoarseGrainedExecutorBackend: Got "
                "assigned task 0");

  const AnalysisResult batch = SdChecker().analyze(bundle);
  IncrementalAnalyzer analyzer;
  for (const auto& name : bundle.stream_names()) {
    analyzer.feed_all(name, bundle.lines(name));
  }
  const AnalysisResult streamed = analyzer.snapshot();
  EXPECT_EQ(batch.events_unattributed, 2u);
  EXPECT_EQ(streamed.events_total, batch.events_total);
  EXPECT_EQ(streamed.events_unattributed, batch.events_unattributed);
  EXPECT_EQ(analysis_json(streamed), analysis_json(batch));
}

TEST(Incremental, ParkedCapDropsCountAndDiagnose) {
  MinerOptions options;
  options.parked_events_cap = 1;
  IncrementalAnalyzer analyzer(options);
  analyzer.feed("executor.log",
                "17/07/03 16:40:09 INFO CoarseGrainedExecutorBackend: "
                "Registered signal handlers");  // FIRST_LOG parks (1/1)
  analyzer.feed("executor.log",
                "17/07/03 16:40:12 INFO CoarseGrainedExecutorBackend: Got "
                "assigned task 0");  // FIRST_TASK over cap: dropped
  // Both events count as extracted and as pending (parked + dropped).
  EXPECT_EQ(analyzer.events_total(), 2u);
  EXPECT_EQ(analyzer.events_pending(), 2u);

  const auto diagnostics = analyzer.diagnostics();
  std::size_t unbound = 0;
  for (const auto& diagnostic : diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kUnboundStream) {
      ++unbound;
      EXPECT_EQ(diagnostic.stream, "executor.log");
      EXPECT_EQ(diagnostic.count, 1u);  // one drop
      EXPECT_NE(diagnostic.detail.find("parked-event cap (1)"),
                std::string::npos);
    }
  }
  EXPECT_EQ(unbound, 1u);
  EXPECT_EQ(analyzer.snapshot().diag_counts.of(
                logging::DiagnosticKind::kUnboundStream),
            1u);
}

// --- retirement --------------------------------------------------------

TEST(Incremental, RetirementFoldsIntoSnapshotExactly) {
  const auto run = small_run(4, 305);
  const AnalysisResult batch = SdChecker().analyze(run.logs);

  IncrementalAnalyzer analyzer;
  for (const auto& name : run.logs.stream_names()) {
    analyzer.feed_all(name, run.logs.lines(name));
  }
  // Everything is fed; every app's terminal transition has been mined.
  analyzer.advance_tick();
  analyzer.advance_tick();
  const std::size_t retired = analyzer.retire_terminal(1);
  EXPECT_GT(retired, 0u);
  EXPECT_EQ(analyzer.apps_retired(), retired);
  EXPECT_EQ(analyzer.apps_resident() + retired, batch.delays.size());

  // The snapshot folds retired rows back in at their app-ID position:
  // byte-identical to batch, at one pipeline thread and at four.
  const std::string snapshot = analysis_json(analyzer.snapshot());
  EXPECT_EQ(snapshot, analysis_json(batch));
  EXPECT_EQ(snapshot,
            analysis_json(SdChecker({.threads = 4}).analyze(run.logs)));

  // delays_for answers from the retired cache.
  const ApplicationId app = analyzer.retired().begin()->first;
  EXPECT_EQ(analyzer.delays_for(app).total, batch.delays.at(app).total);

  // A late event for a retired app is dropped and counted, not applied.
  EXPECT_EQ(analyzer.events_late_dropped(), 0u);
  analyzer.feed("rm.log",
                "2017-07-03 19:00:00,000 INFO  org.apache.hadoop.yarn.server."
                "resourcemanager.rmapp.RMAppImpl: " +
                    app.str() +
                    " State change from NEW_SAVING to SUBMITTED on event = "
                    "APP_NEW_SAVED");
  EXPECT_EQ(analyzer.events_late_dropped(), 1u);
}

}  // namespace
}  // namespace sdc::checker
