// Tests for the follow-mode streaming service: live-directory tailing
// (appends split mid-line, streams appearing late, rotation handoff),
// bounded-memory eviction, and the parity contract — at quiescence the
// follow snapshot's analysis_json is byte-identical to batch analysis
// of the same directory.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "logging/timestamp.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/extractor.hpp"
#include "sdchecker/follow.hpp"
#include "workloads/tpch.hpp"

namespace sdc::checker {
namespace {

namespace fs = std::filesystem;

harness::ScenarioResult small_run(int jobs = 4, std::uint64_t seed = 701,
                                  int executors = 2) {
  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  for (int i = 0; i < jobs; ++i) {
    harness::SparkSubmissionPlan plan;
    plan.at = seconds(1 + 7 * i);
    plan.app = workloads::make_tpch_query(1 + i % workloads::kTpchQueryCount,
                                          1024, executors);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  return harness::run_scenario(scenario);
}

/// Fresh (pre-cleaned) scratch directory for one test.
fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One stream's full on-disk byte content (every line '\n'-terminated).
std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) {
    text += line;
    text += '\n';
  }
  return text;
}

void append_bytes(const fs::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(out.is_open());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The byte range of `text` belonging to round `r` of `rounds` equal
/// slices — deliberately *not* aligned to line boundaries, so polls see
/// lines split mid-write.
std::string_view slice_of(const std::string& text, std::size_t r,
                          std::size_t rounds) {
  const std::size_t begin = text.size() * r / rounds;
  const std::size_t end = text.size() * (r + 1) / rounds;
  return std::string_view(text).substr(begin, end - begin);
}

AnalysisResult batch_analyze(const fs::path& dir) {
  return SdChecker().analyze_directory(dir);
}

// --- live append + late stream + quiescence parity ---------------------

/// Writes `logs` into a fresh directory while a follow service polls it
/// — every stream's bytes in 6 slices cut mid-line, the first stream
/// appearing only from round 3 — then requires the drained snapshot to
/// match batch analysis of the directory byte for byte.
void expect_live_appends_match_batch(const logging::LogBundle& logs,
                                     const std::string& dir_name) {
  const fs::path dir = scratch_dir(dir_name);
  const auto names = logs.stream_names();
  ASSERT_GE(names.size(), 2u);
  std::vector<std::string> texts;
  for (const auto& name : names) texts.push_back(join_lines(logs.lines(name)));

  FollowOptions options;
  options.retire = false;  // parity under eviction is its own test
  FollowService service(dir, options);
  EXPECT_EQ(service.poll_once().bytes_read, 0u);  // empty directory
  EXPECT_TRUE(service.quiescent());

  constexpr std::size_t kRounds = 6;
  for (std::size_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i == 0 && r < 3) continue;
      const std::size_t from = i == 0 ? (r - 3) * 2 : r;
      const std::size_t upto = i == 0 ? from + 2 : r + 1;
      for (std::size_t s = from; s < upto; ++s) {
        append_bytes(dir / names[i], slice_of(texts[i], s, kRounds));
      }
    }
    const PollStats stats = service.poll_once();
    EXPECT_GT(stats.bytes_read, 0u);
    EXPECT_FALSE(service.quiescent());
  }
  // Writers stopped: the next poll drains nothing.
  EXPECT_EQ(service.poll_once().bytes_read, 0u);
  EXPECT_TRUE(service.quiescent());
  service.finish();

  const AnalysisResult batch = batch_analyze(dir);
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(analysis_json(live), analysis_json(batch));
  EXPECT_EQ(live.lines_total, batch.lines_total);
  EXPECT_EQ(live.events_total, batch.events_total);
  EXPECT_EQ(service.streams_seen(), names.size());
  EXPECT_EQ(service.analyzer().events_late_dropped(), 0u);
}

TEST(Follow, LiveAppendsMatchBatchByteIdentically) {
  expect_live_appends_match_batch(small_run().logs, "sdc_follow_live");
}

// The same parity check on hand-made streams, one per-stream rule each:
// separate bursts, binding, head and tail tears.
std::string log4j_line(std::int64_t offset_ms, std::string_view cls,
                       std::string_view message) {
  return logging::format_epoch_ms(1'499'100'000'000 + offset_ms) + " INFO  " +
         std::string(cls) + ": " + std::string(message);
}

constexpr std::string_view kRmApp =
    "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
constexpr std::string_view kNmContainer =
    "org.apache.hadoop.yarn.server.nodemanager.containermanager.container."
    "ContainerImpl";
constexpr std::string_view kBackend =
    "org.apache.spark.executor.CoarseGrainedExecutorBackend";

std::string nm_transition(std::int64_t offset_ms, std::string_view to) {
  return log4j_line(offset_ms, kNmContainer,
                    "Container container_1499100000000_0001_01_000001 "
                    "transitioned from NEW to " +
                        std::string(to));
}

struct DamagedStreamCase {
  const char* name;
  /// The damaged stream, written next to an rm.log submitting apps 1 and 2.
  std::vector<std::string> (*lines)();
};

const DamagedStreamCase kDamagedStreamCases[] = {
    {"TwoTwelveLineBursts",
     [] {
       // Two separate unparsable runs: one burst record each.
       std::vector<std::string> lines{nm_transition(100, "LOCALIZING")};
       for (int i = 0; i < 12; ++i) lines.push_back("\tat a.B.c(B.java:1)");
       lines.push_back(nm_transition(200, "SCHEDULED"));
       for (int i = 0; i < 12; ++i) lines.push_back("\tat a.B.d(B.java:2)");
       lines.push_back(nm_transition(300, "RUNNING"));
       return lines;
     }},
    {"ContainerIdBeforeForeignAppId",
     [] {
       // The first id-carrying line names a container of app 1, a later
       // one app 2: the container's own app wins.
       return std::vector<std::string>{
           log4j_line(100, kBackend, "Started daemon with process name: 1"),
           log4j_line(110, kBackend,
                      "Connecting to driver for container "
                      "container_1499100000000_0001_01_000002"),
           log4j_line(120, kBackend,
                      "Fetching state of application_1499100000000_0002"),
           log4j_line(200, kBackend, "Got assigned task 0")};
     }},
    {"FirstLinePlain",
     [] {
       return std::vector<std::string>{"generation one, plain",
                                       nm_transition(100, "LOCALIZING")};
     }},
    {"LastLinePlain",
     [] {
       return std::vector<std::string>{nm_transition(100, "LOCALIZING"),
                                       "generation two, plain"};
     }},
};

void PrintTo(const DamagedStreamCase& c, std::ostream* os) { *os << c.name; }

class FollowDamagedStream : public ::testing::TestWithParam<DamagedStreamCase> {
};

TEST_P(FollowDamagedStream, LiveAppendsMatchBatchByteIdentically) {
  logging::LogBundle logs;
  for (const char* app : {"0001", "0002"}) {
    logs.append("rm.log",
                log4j_line(0, kRmApp,
                           std::string("application_1499100000000_") + app +
                               " State change from NEW_SAVING to SUBMITTED "
                               "on event = APP_NEW_SAVED"));
  }
  for (std::string& line : GetParam().lines()) {
    logs.append("damaged.log", std::move(line));
  }
  expect_live_appends_match_batch(
      logs, std::string("sdc_follow_damaged_") + GetParam().name);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FollowDamagedStream, ::testing::ValuesIn(kDamagedStreamCases),
    [](const ::testing::TestParamInfo<DamagedStreamCase>& info) {
      return std::string(info.param.name);
    });

// --- rotation handoff --------------------------------------------------

TEST(Follow, RotationHandoffMatchesBatchReassembly) {
  const auto run = small_run(3, 702);
  const fs::path dir = scratch_dir("sdc_follow_rotate");
  const auto names = run.logs.stream_names();
  ASSERT_GE(names.size(), 1u);

  FollowService service(dir, FollowOptions{.retire = false});

  // All streams but the first are written whole; the first is rotated
  // mid-life: half its bytes (cut mid-line), rename to `.1`, fresh base
  // file carries the rest.
  for (std::size_t i = 1; i < names.size(); ++i) {
    append_bytes(dir / names[i], join_lines(run.logs.lines(names[i])));
  }
  const std::string rotated = names[0];
  const std::string text = join_lines(run.logs.lines(rotated));
  append_bytes(dir / rotated, slice_of(text, 0, 2));
  service.poll_once();

  fs::rename(dir / rotated, dir / (rotated + ".1"));
  append_bytes(dir / rotated, slice_of(text, 1, 2));
  service.poll_once();
  EXPECT_EQ(service.rotations(), 1u);

  while (!service.quiescent()) service.poll_once();
  service.finish();

  const AnalysisResult batch = batch_analyze(dir);
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(analysis_json(live), analysis_json(batch));

  // Both sides report the reassembly the same way.
  bool found = false;
  for (const auto& diagnostic : live.diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kRotationGap &&
        diagnostic.stream == rotated) {
      found = true;
      EXPECT_EQ(diagnostic.detail, "reassembled 2 rotated segments: " +
                                       rotated + ".1, " + rotated);
    }
  }
  EXPECT_TRUE(found);
}

// --- bounded-memory eviction over a large corpus -----------------------

TEST(Follow, EvictionKeepsMemoryBoundedAndSnapshotExact) {
  const auto run = small_run(100, 703, 1);
  const fs::path dir = scratch_dir("sdc_follow_evict");
  const auto names = run.logs.stream_names();

  FollowOptions options;
  options.retire_quiet_polls = 4;
  FollowService service(dir, options);

  // Time-aligned ingestion, the way a real cluster is tailed: every
  // line carries the simulation clock in its timestamp, and each round
  // releases the next window of that clock across ALL streams at once.
  // Daemon logs (rm/nm) grow a few lines per round; an application's
  // own logs land whole the moment the app starts.  An app's events can
  // therefore never trail its FINISHED transition, and terminal apps
  // retire while later apps are still arriving.
  constexpr std::size_t kRounds = 25;
  std::vector<std::string> texts;
  std::vector<bool> per_app_done(names.size(), false);
  std::vector<int> app_index(names.size(), -1);
  std::size_t app_streams = 0;
  for (const auto& name : names) {
    texts.push_back(join_lines(run.logs.lines(name)));
  }
  // A stream is per-app when its file name carries the application (or
  // container) id — driver-application_*.log / executor-container_*.log.
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (const auto app = find_application_id(names[i])) {
      app_index[i] = app->id;
      ++app_streams;
    } else if (const auto container = find_container_id(names[i])) {
      app_index[i] = container->app.id;
      ++app_streams;
    }
  }
  // Per-line clock, carried forward across untimestamped continuations.
  std::vector<std::vector<std::int64_t>> line_ts(names.size());
  std::int64_t t0 = std::numeric_limits<std::int64_t>::max();
  std::int64_t t1 = std::numeric_limits<std::int64_t>::min();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::int64_t carry = -1;
    for (const auto& line : run.logs.lines(names[i])) {
      if (const auto ts = logging::parse_epoch_ms(line)) carry = *ts;
      line_ts[i].push_back(carry);
    }
    for (std::size_t j = line_ts[i].size(); j-- > 1;) {
      if (line_ts[i][j - 1] < 0) line_ts[i][j - 1] = line_ts[i][j];
    }
    for (const std::int64_t ts : line_ts[i]) {
      ASSERT_GE(ts, 0) << names[i];
      t0 = std::min(t0, ts);
      t1 = std::max(t1, ts);
    }
  }
  const std::size_t total_apps = 100;
  std::size_t max_resident = 0;
  std::vector<std::size_t> next_line(names.size(), 0);
  for (std::size_t r = 0; r < kRounds; ++r) {
    const std::int64_t cutoff =
        t0 + (t1 - t0) * static_cast<std::int64_t>(r + 1) /
                 static_cast<std::int64_t>(kRounds);
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (app_index[i] >= 0) {
        if (!per_app_done[i] && line_ts[i].front() <= cutoff) {
          append_bytes(dir / names[i], texts[i]);
          per_app_done[i] = true;
        }
        continue;
      }
      const auto& lines = run.logs.lines(names[i]);
      std::string chunk;
      while (next_line[i] < lines.size() &&
             line_ts[i][next_line[i]] <= cutoff) {
        chunk += lines[next_line[i]];
        chunk += '\n';
        ++next_line[i];
      }
      if (!chunk.empty()) append_bytes(dir / names[i], chunk);
    }
    service.poll_once();
    max_resident = std::max(max_resident, service.analyzer().apps_resident());
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (app_index[i] >= 0 && !per_app_done[i]) {
      append_bytes(dir / names[i], texts[i]);
    }
  }
  // Drain, then keep ticking until the retirement grace elapses for the
  // last terminal apps.
  for (std::size_t i = 0; i < options.retire_quiet_polls + 3; ++i) {
    service.poll_once();
  }
  EXPECT_TRUE(service.quiescent());
  service.finish();

  ASSERT_GT(app_streams, 0u);
  const AnalysisResult live = service.snapshot();
  ASSERT_GE(live.delays.size(), total_apps);
  // No event arrived for an already-retired application (the grace held),
  // so the snapshot must be exact.
  EXPECT_EQ(service.analyzer().events_late_dropped(), 0u);
  EXPECT_EQ(analysis_json(live), analysis_json(batch_analyze(dir)));
  // Memory stayed bounded: retirement freed timelines during ingestion,
  // and by the end nearly every app is a retired row, not a timeline.
  EXPECT_GE(service.analyzer().apps_retired(), total_apps / 2);
  EXPECT_LT(max_resident, total_apps);
  EXPECT_LT(service.analyzer().apps_resident(),
            total_apps - service.analyzer().apps_retired() + 10);
}

// --- mid-rotation races ------------------------------------------------

/// One RM line that mines to one event (the application's SUBMITTED).
const std::string kSubmittedLine =
    "2017-07-03 16:40:00,123 INFO  org.apache.hadoop.yarn.server."
    "resourcemanager.rmapp.RMAppImpl: application_1499100000000_0001 "
    "State change from NEW_SAVING to SUBMITTED on event = APP_NEW_SAVED";

std::size_t rotation_gaps(const AnalysisResult& result) {
  return static_cast<std::size_t>(std::count_if(
      result.diagnostics.begin(), result.diagnostics.end(),
      [](const logging::Diagnostic& diagnostic) {
        return diagnostic.kind == logging::DiagnosticKind::kRotationGap;
      }));
}

TEST(Follow, RenameWithoutSuccessorIsFollowedNotDiagnosed) {
  const fs::path dir = scratch_dir("sdc_follow_rename");
  FollowService service(dir, FollowOptions{.retire = false});
  append_bytes(dir / "rm.log", kSubmittedLine + "\n");
  service.poll_once();
  // Renamed away with no fresh base yet — the inode is simply followed.
  fs::rename(dir / "rm.log", dir / "rm.log.1");
  append_bytes(dir / "rm.log.1", kSubmittedLine + "\n");
  service.poll_once();
  service.finish();
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(live.lines_total, 2u);
  EXPECT_EQ(live.diag_counts.of(logging::DiagnosticKind::kUnreadableFile), 0u);
}

TEST(Follow, TruncationRestartsSegmentWithoutUnreadableSpam) {
  const fs::path dir = scratch_dir("sdc_follow_trunc");
  FollowService service(dir, FollowOptions{.retire = false});
  // Generation one of each file is an unterminated line, so the batch
  // analysis of the final directory — which sees only generation two —
  // is the exact reference.
  append_bytes(dir / "rm.log", "junk from generation one");
  append_bytes(dir / "nm.log", "generation one, also unterminated");
  service.poll_once();
  // copytruncate-style rotation: same inode, new content.  rm.log's new
  // content outgrows the old offset before the next poll, so only its
  // first bytes tell; nm.log is seen empty first (size below offset).
  for (const char* name : {"rm.log", "nm.log"}) {
    std::ofstream out(dir / name, std::ios::binary | std::ios::trunc);
  }
  append_bytes(dir / "rm.log", kSubmittedLine + "\n");
  service.poll_once();
  append_bytes(dir / "nm.log",
               "2017-07-03 16:40:01,000 INFO  org.apache.hadoop.yarn.server."
               "nodemanager.NodeStatusUpdaterImpl: Sending out 0 NM container "
               "statuses\n");
  service.poll_once();
  service.finish();
  const AnalysisResult live = service.snapshot();
  // Each generation two was ingested once, from its first byte, with no
  // unreadable noise.
  EXPECT_EQ(analysis_json(live), analysis_json(batch_analyze(dir)));
  EXPECT_EQ(live.lines_total, 2u);
  EXPECT_EQ(live.events_total, 1u);
  EXPECT_EQ(live.diag_counts.of(logging::DiagnosticKind::kUnreadableFile), 0u);
}

// --- files opened per poll ---------------------------------------------

TEST(Follow, PollOpensOnlyFilesThatChanged) {
  const fs::path dir = scratch_dir("sdc_follow_opens");
  constexpr std::size_t kFiles = 12;
  constexpr std::size_t kGrown = 3;
  for (std::size_t i = 0; i < kFiles; ++i) {
    append_bytes(dir / ("nm" + std::to_string(i) + ".log"),
                 kSubmittedLine + "\n");
  }
  FollowService service(dir, FollowOptions{.retire = false});
  EXPECT_EQ(service.poll_once().files_read, kFiles);  // every file is new

  const PollStats unchanged = service.poll_once();
  EXPECT_EQ(unchanged.files_read, 0u);
  EXPECT_TRUE(service.quiescent());

  for (std::size_t i = 0; i < kGrown; ++i) {
    append_bytes(dir / ("nm" + std::to_string(i * 4) + ".log"),
                 kSubmittedLine + "\n");
  }
  const PollStats grown = service.poll_once();
  EXPECT_EQ(grown.files_read, kGrown);
  EXPECT_EQ(grown.lines_fed, kGrown);
  EXPECT_EQ(service.poll_once().files_read, 0u);

  service.finish();
  EXPECT_EQ(analysis_json(service.snapshot()),
            analysis_json(batch_analyze(dir)));
}

TEST(Follow, NewEmptyFileIsOpenedOnce) {
  const fs::path dir = scratch_dir("sdc_follow_empty");
  append_bytes(dir / "idle.log", "");
  FollowService service(dir, FollowOptions{.retire = false});
  const PollStats first = service.poll_once();
  EXPECT_EQ(first.new_streams, 1u);
  EXPECT_EQ(first.files_read, 1u);
  EXPECT_EQ(service.poll_once().files_read, 0u);
  append_bytes(dir / "idle.log", kSubmittedLine + "\n");
  EXPECT_EQ(service.poll_once().files_read, 1u);
}

TEST(Follow, RenameWithoutNewBytesFlushesFrozenPartial) {
  const fs::path dir = scratch_dir("sdc_follow_frozen");
  FollowService service(dir, FollowOptions{.retire = false});
  // The second line's newline never arrives: it waits as a partial.
  append_bytes(dir / "rm.log", kSubmittedLine + "\n" + kSubmittedLine);
  EXPECT_EQ(service.poll_once().lines_fed, 1u);
  EXPECT_EQ(service.poll_once().files_read, 0u);  // live base: keep waiting

  // Rotated away without a byte more: the size still equals the offset,
  // but the frozen segment's partial is a whole line and must be fed now.
  fs::rename(dir / "rm.log", dir / "rm.log.1");
  const PollStats rotated = service.poll_once();
  EXPECT_EQ(rotated.rotations, 1u);
  EXPECT_EQ(rotated.bytes_read, 0u);
  EXPECT_EQ(rotated.files_read, 1u);
  EXPECT_EQ(rotated.lines_fed, 1u);
  EXPECT_EQ(service.poll_once().files_read, 0u);

  service.finish();
  const AnalysisResult live = service.snapshot();
  EXPECT_EQ(live.lines_total, 2u);
  EXPECT_EQ(analysis_json(live), analysis_json(batch_analyze(dir)));
}

// --- snapshot sees the directory as of the last poll -------------------

TEST(Follow, SnapshotReportsRotationFamiliesAsOfLastPoll) {
  const fs::path dir = scratch_dir("sdc_follow_snapshot_families");
  FollowService service(dir, FollowOptions{.retire = false});
  append_bytes(dir / "rm.log", kSubmittedLine + "\n");
  service.poll_once();
  EXPECT_EQ(rotation_gaps(service.snapshot()), 0u);

  // Rotation after the last poll: the snapshot does not list the
  // directory, so it still describes what was ingested.
  fs::rename(dir / "rm.log", dir / "rm.log.1");
  append_bytes(dir / "rm.log", kSubmittedLine + "\n");
  EXPECT_EQ(rotation_gaps(service.snapshot()), 0u);

  service.poll_once();
  const AnalysisResult rotated = service.snapshot();
  ASSERT_EQ(rotation_gaps(rotated), 1u);
  for (const auto& diagnostic : rotated.diagnostics) {
    if (diagnostic.kind != logging::DiagnosticKind::kRotationGap) continue;
    EXPECT_EQ(diagnostic.stream, "rm.log");
    EXPECT_EQ(diagnostic.count, 2u);
    EXPECT_EQ(diagnostic.detail,
              "reassembled 2 rotated segments: rm.log.1, rm.log");
  }
  service.finish();
  EXPECT_EQ(analysis_json(service.snapshot()),
            analysis_json(batch_analyze(dir)));
}

/// Follow's unreadable-file branch: one diagnostic however many polls,
/// and the batch reader's exact wording.
void expect_unreadable_diagnosed_once(const fs::path& dir) {
  FollowService service(dir, FollowOptions{.retire = false});
  for (int i = 0; i < 3; ++i) service.poll_once();
  service.finish();

  const AnalysisResult live = service.snapshot();
  std::size_t unreadable = 0;
  for (const auto& diagnostic : live.diagnostics) {
    if (diagnostic.kind == logging::DiagnosticKind::kUnreadableFile) {
      ++unreadable;
      EXPECT_EQ(diagnostic.stream, "secret.log");
      EXPECT_EQ(diagnostic.count, 1u);
    }
  }
  EXPECT_EQ(unreadable, 1u);  // three polls, one record
  EXPECT_EQ(analysis_json(live), analysis_json(batch_analyze(dir)));
}

TEST(Follow, UnreadableFileDiagnosedOnceAndMatchesBatch) {
  const auto run = small_run(2, 704);
  const fs::path dir = scratch_dir("sdc_follow_unreadable");
  const auto names = run.logs.stream_names();
  for (const auto& name : names) {
    append_bytes(dir / name, join_lines(run.logs.lines(name)));
  }
  append_bytes(dir / "secret.log", "not for you\n");
  fs::permissions(dir / "secret.log", fs::perms::none);

  if (::geteuid() != 0) {
    expect_unreadable_diagnosed_once(dir);
  } else {
    // Root bypasses permission checks: run the body in a child that
    // drops to an unprivileged uid.  The directory and the other logs
    // stay listable and readable for it.
    constexpr ::uid_t kNobody = 65534;
    fs::permissions(dir, fs::perms::owner_all | fs::perms::group_read |
                             fs::perms::group_exec | fs::perms::others_read |
                             fs::perms::others_exec);
    std::fflush(stdout);
    const ::pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      if (::setresgid(kNobody, kNobody, kNobody) != 0 ||
          ::setresuid(kNobody, kNobody, kNobody) != 0) {
        ::_exit(77);
      }
      expect_unreadable_diagnosed_once(dir);
      std::fflush(stdout);
      ::_exit(::testing::Test::HasFailure() ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFEXITED(status));
    if (WEXITSTATUS(status) == 77) {
      fs::permissions(dir / "secret.log", fs::perms::owner_all);
      GTEST_SKIP() << "running as root without CAP_SETUID/CAP_SETGID: "
                      "cannot drop to uid 65534, and root bypasses the "
                      "permission check under test";
    }
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "the unprivileged child reported failures (see its output above)";
  }
  fs::permissions(dir / "secret.log", fs::perms::owner_all);
}

// --- watch stream ------------------------------------------------------

TEST(Follow, WatchRecordIsOneValidSchemaCheckedLine) {
  const auto run = small_run(2, 705);
  const fs::path dir = scratch_dir("sdc_follow_watch");
  for (const auto& name : run.logs.stream_names()) {
    append_bytes(dir / name, join_lines(run.logs.lines(name)));
  }
  FollowService service(dir, FollowOptions{});
  service.poll_once();
  const std::string record = service.watch_record();
  EXPECT_EQ(record.find('\n'), std::string::npos);  // ndjson-safe
  const WatchCheckResult ok = check_watch_json(record);
  EXPECT_TRUE(ok.ok) << (ok.errors.empty() ? "" : ok.errors.front());

  EXPECT_FALSE(check_watch_json("{}").ok);
  EXPECT_FALSE(check_watch_json("not json").ok);
  EXPECT_FALSE(check_watch_json("[1,2,3]").ok);
}

}  // namespace
}  // namespace sdc::checker
