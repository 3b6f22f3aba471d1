// Sharded-vs-serial equivalence for the analysis stage.
//
// The pipeline groups each stream's events into app-partitioned shards
// as the stream finishes, in any order.  That must be *invisible*: every
// export byte, every diagnostic, every aggregate percentile must match
// the serial reference (merged events, `group_events`, one-thread
// finalize).  These tests pin that down at the grouping layer for
// several shard counts (including more shards than apps), end to end
// for several thread counts, for repeated runs, and for the incremental
// analyzer's snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness/scenario.hpp"
#include "sdchecker/compare.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/incremental.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/trace_export.hpp"
#include "serial_reference.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

/// A multi-app corpus with a little corruption so the diagnostics path is
/// exercised too.
logging::LogBundle make_corpus(int jobs) {
  harness::ScenarioConfig scenario;
  scenario.seed = 77;
  for (int i = 0; i < jobs; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 5 * i);
    plan.app = workloads::make_tpch_query(1 + i % 22, 2048, 2 + i % 3);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  logging::LogBundle logs = harness::run_scenario(scenario).logs;
  logs.append("rm.log", "no timestamp here: plain unparsable line");
  logs.append("rm.log", std::string("\x00\x01\x02 binary garbage", 18));
  return logs;
}

AnalysisResult serial_reference(const logging::LogBundle& logs) {
  return serial_reference(LogMiner().mine(logs));
}

/// The pipeline's grouping layer at `shards` shards: each stitched
/// stream's batch applied to every shard (`apply_batch_to_shard`), then
/// the sharded finalize.
AnalysisResult sharded_grouping(const logging::LogBundle& logs,
                                std::size_t shards) {
  const logging::BundleView view = logging::BundleView::from_bundle(logs);
  MinePlan plan(view, MinerOptions{});
  for (std::size_t c = 0; c < plan.chunk_count(); ++c) plan.run_chunk(c);
  ShardedGroupResult grouped;
  grouped.shards.resize(shards);
  std::size_t unattributed = 0;
  // Last stream first: the order batches arrive in must not matter.
  for (std::size_t stream = plan.stream_count(); stream-- > 0;) {
    const MinedStream stitched = plan.stitch(stream);
    for (std::size_t s = 0; s < shards; ++s) {
      unattributed += apply_batch_to_shard(stitched.events, grouped.shards[s],
                                           s, shards);
    }
  }
  ThreadPool pool(3);
  AnalysisResult result = finalize_analysis(std::move(grouped), pool);
  result.events_unattributed = unattributed;
  return with_mining(std::move(result), LogMiner().mine(logs));
}

std::string diagnostics_fingerprint(const AnalysisResult& analysis) {
  std::string out;
  for (const logging::Diagnostic& d : analysis.diagnostics) {
    out += logging::render_diagnostic(d);
    out += '\n';
  }
  return out;
}

void expect_identical(const AnalysisResult& got, const AnalysisResult& want,
                      const std::string& label) {
  EXPECT_EQ(analysis_json(got), analysis_json(want)) << label;
  EXPECT_EQ(scheduling_trace_json(got), scheduling_trace_json(want)) << label;
  EXPECT_EQ(diagnostics_fingerprint(got), diagnostics_fingerprint(want))
      << label;
  EXPECT_EQ(got.events_total, want.events_total) << label;
  EXPECT_EQ(got.events_unattributed, want.events_unattributed) << label;
  EXPECT_EQ(got.anomalies.size(), want.anomalies.size()) << label;
  EXPECT_EQ(got.render_completeness(), want.render_completeness()) << label;
  // The aggregate comparison must read as an exact identity.
  const ComparisonResult delta = compare(want, got);
  EXPECT_TRUE(delta.significant(1e-9).empty()) << label;
}

TEST(AnalyzeSharded, ShardCountsProduceByteIdenticalOutput) {
  const logging::LogBundle logs = make_corpus(9);
  const AnalysisResult serial = serial_reference(logs);
  ASSERT_GE(serial.timelines.size(), 9u);
  for (const std::size_t shards : {1, 2, 7, 16, 64}) {
    expect_identical(sharded_grouping(logs, shards), serial,
                     "shards=" + std::to_string(shards));
  }
}

TEST(AnalyzeSharded, ThreadCountsProduceByteIdenticalOutput) {
  const logging::LogBundle logs = make_corpus(9);
  const AnalysisResult serial = serial_reference(logs);
  for (const std::size_t threads : {1, 2, 7}) {
    expect_identical(SdChecker({.threads = threads}).analyze(logs), serial,
                     "threads=" + std::to_string(threads));
  }
}

TEST(AnalyzeSharded, RepeatedShardedRunsAreDeterministic) {
  const logging::LogBundle logs = make_corpus(6);
  const SdChecker checker({.threads = 4});
  const std::string first = analysis_json(checker.analyze(logs));
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(analysis_json(checker.analyze(logs)), first);
  }
}

TEST(AnalyzeSharded, AutoShardCountResolvesToHardware) {
  // Shards follow the pool: min(threads, 8), and a pool asked for 0
  // threads runs one per hardware thread.
  EXPECT_EQ(analysis_shards(1), 1u);
  EXPECT_EQ(analysis_shards(5), 5u);
  EXPECT_EQ(analysis_shards(64), 8u);
  const ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
  EXPECT_EQ(analysis_shards(pool.thread_count()),
            std::min<std::size_t>(pool.thread_count(), 8));
}

TEST(AnalyzeSharded, ShardRoutingIsTotalAndStable) {
  for (std::int32_t id = 1; id <= 200; ++id) {
    const ApplicationId app{1499100000000 + id % 3, id};
    for (const std::size_t shards : {1u, 2u, 7u, 16u}) {
      const std::size_t shard = timeline_shard(app, shards);
      EXPECT_LT(shard, shards);
      EXPECT_EQ(shard, timeline_shard(app, shards));  // stable
    }
  }
}

TEST(AnalyzeSharded, GroupEventsShardedMatchesSerialGrouping) {
  const logging::LogBundle logs = make_corpus(5);
  const MineResult mined = LogMiner().mine(logs);
  const GroupResult serial = group_events(mined.events);

  constexpr std::size_t kShards = 4;
  std::vector<AppTable> shards(kShards);
  std::size_t unattributed = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    unattributed += apply_batch_to_shard(mined.events, shards[s], s, kShards);
  }
  EXPECT_EQ(unattributed, serial.unattributed);

  std::size_t total_apps = 0;
  std::set<ApplicationId> seen;
  for (std::size_t s = 0; s < kShards; ++s) {
    for (const auto& [app, timeline] : shards[s]) {
      ++total_apps;
      EXPECT_TRUE(seen.insert(app).second) << "app in two shards";
      EXPECT_EQ(timeline_shard(app, kShards), s);
      const auto it = serial.apps.find(app);
      ASSERT_NE(it, serial.apps.end());
      // Identical per-kind state: presence bits, first timestamps, and
      // the container set.
      EXPECT_EQ(timeline.first_ts.present_mask(),
                it->second.first_ts.present_mask());
      for (const auto& [kind, ts] : timeline.first_ts) {
        EXPECT_EQ(ts, *it->second.ts(kind));
      }
      EXPECT_EQ(timeline.containers.size(), it->second.containers.size());
    }
  }
  EXPECT_EQ(total_apps, serial.apps.size());
}

TEST(AnalyzeSharded, IncrementalSnapshotShardedMatchesSerial) {
  // The snapshot's one-thread finalize equals the pipeline's sharded one.
  const logging::LogBundle logs = make_corpus(6);
  IncrementalAnalyzer analyzer;
  for (const std::string& name : logs.stream_names()) {
    analyzer.feed_all(name, logs.lines(name));
  }
  EXPECT_EQ(analysis_json(analyzer.snapshot()),
            analysis_json(SdChecker({.threads = 4}).analyze(logs)));
}

TEST(AnalyzeSharded, MoreShardsThanAppsStillCoversEverything) {
  const logging::LogBundle logs = make_corpus(2);
  EXPECT_EQ(analysis_json(sharded_grouping(logs, 64)),
            analysis_json(serial_reference(logs)));
}

}  // namespace
}  // namespace sdc::checker
