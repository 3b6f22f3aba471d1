// sdchecker — command-line front end for the SDchecker library.
//
//   sdchecker analyze <log_dir> [--threads N] [--csv FILE] [--per-app]
//       Mine a directory of YARN/Spark log files and print the
//       scheduling-delay decomposition, aggregate statistics and any
//       anomalies (never-used containers, broken chains, clock skew).
//
//   sdchecker follow <log_dir> [--watch] [--exit-quiescent N]
//       Tail a live log directory: poll for appended bytes, new files
//       and rotation handoffs, analyze continuously with bounded
//       memory, and (--watch) emit ndjson snapshots.  SIGINT drains
//       and prints the final report.
//
//   sdchecker graph <log_dir> <application_id> [--out FILE.dot]
//       Export the Fig.-3-style scheduling graph of one application.
//
//   sdchecker simulate <out_dir> [--jobs N] [--seed S] [--executors E]
//             [--input-mb MB] [--scheduler capacity|opportunistic]
//       Generate a synthetic Spark-on-YARN log corpus (useful for demos
//       and for testing the analyzer without a cluster).
//
//   sdchecker fuzz <log_dir> [--seed S] [--class NAME]
//       Smoke-test the analyzer against seeded corpus damage (see
//       tools/corpus_mutator for the full harness).
//
// Exit status: 0 success on a clean corpus, 1 runtime error, 2 usage
// error, 3 analysis completed but the corpus needed diagnostics
// (garbage, truncation, rotation gaps, clock steps, ...).
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/http_server.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace_check.hpp"
#include "obs/trace_writer.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/trace_export.hpp"
#include "sdchecker/compare.hpp"
#include "sdchecker/corpus_mutator.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/fleet.hpp"
#include "sdchecker/follow.hpp"
#include "sdchecker/sdchecker.hpp"
#include "sdchecker/serve.hpp"
#include "sdchecker/timeline.hpp"
#include "trace/submission_trace.hpp"
#include "workloads/tpch.hpp"

namespace {

using namespace sdc;

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  sdchecker analyze <log_dir> [--threads N] [--csv FILE] "
               "[--per-app] [--progress]\n"
               "            [--delays-csv FILE] [--containers-csv FILE] "
               "[--events-csv FILE] [--json FILE]\n"
               "  sdchecker follow <log_dir> [--watch] [--interval S] "
               "[--poll-ms MS]\n"
               "            [--exit-quiescent N] [--max-polls N] "
               "[--json FILE] [--parked-cap N]\n"
               "            [--retire-quiet N] [--no-retire]\n"
               "            [--serve [ADDR:PORT]] [--serve-stall-ms MS] "
               "[--stall-polls-after N]\n"
               "  sdchecker followcheck <watch_ndjson>\n"
               "  sdchecker trace <log_dir> [--out FILE] [--check] "
               "[--threads N]\n"
               "  sdchecker timeline <log_dir> <application_id>\n"
               "  sdchecker diff <log_dir_a> <log_dir_b> [--threshold PCT]\n"
               "  sdchecker fleet <root_dir> [--threads N] [--json FILE]\n"
               "            [--out-dir DIR] [--baseline FILE]\n"
               "  sdchecker graph <log_dir> <application_id> [--out FILE]\n"
               "  sdchecker simulate <out_dir> [--jobs N] [--seed S] "
               "[--executors E]\n"
               "            [--input-mb MB] [--scheduler "
               "capacity|opportunistic]\n"
               "  sdchecker fuzz <log_dir> [--seed S] [--class NAME]\n"
               "\n"
               "fleet flags:\n"
               "  --out-dir DIR       write each corpus's analysis JSON to\n"
               "                      DIR/<name>.json (byte-identical to\n"
               "                      'analyze --json' of that corpus)\n"
               "  --baseline FILE     compare delay distributions against a\n"
               "                      previous fleet summary JSON; exits 4\n"
               "                      on significant drift (KS distance)\n"
               "\n"
               "follow serving flags:\n"
               "  --serve [ADDR:PORT]  embedded observability server\n"
               "                       (/metrics /analysis /healthz /varz);\n"
               "                       default 127.0.0.1:0, bound address\n"
               "                       printed to stderr\n"
               "  --serve-stall-ms MS  /healthz answers 503 when no poll\n"
               "                       finished within MS (default 10000)\n"
               "\n"
               "global flags (any command):\n"
               "  --metrics [FILE]     dump the metrics registry as JSON on\n"
               "                       exit: to FILE, or to stderr when no\n"
               "                       FILE is given (stdout stays clean for\n"
               "                       --watch pipelines)\n"
               "  --metrics-out FILE   same as --metrics FILE\n"
               "  --trace FILE     record self-profiling spans; write a\n"
               "                   Perfetto-compatible trace on exit\n"
               "\n"
               "exit status: 0 clean, 1 error, 2 usage error,\n"
               "             3 analysis completed with corpus diagnostics\n");
  return 2;
}

/// Returns the value following `flag`, if present.
std::optional<std::string> flag_value(std::vector<std::string>& args,
                                      const std::string& flag) {
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == flag) {
      std::string value = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      return value;
    }
  }
  return std::nullopt;
}

/// Like `flag_value`, but the value is optional: consumed only when the
/// token after `flag` satisfies `looks_like_value`.  Returns nullopt
/// when the flag is absent; an engaged optional holding "" when the
/// flag appears bare.
std::optional<std::string> flag_optional_value(
    std::vector<std::string>& args, const std::string& flag,
    bool (*looks_like_value)(const std::string&)) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] != flag) continue;
    std::string value;
    std::size_t span = 1;
    if (i + 1 < args.size() && looks_like_value(args[i + 1])) {
      value = args[i + 1];
      span = 2;
    }
    args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
               args.begin() + static_cast<std::ptrdiff_t>(i + span));
    return value;
  }
  return std::nullopt;
}

/// Parses a strictly-numeric non-negative flag value; nullopt on any
/// trailing garbage ("4x", "", "-1" are all rejected, not truncated).
std::optional<std::size_t> parse_count(const std::string& value) {
  if (value.empty()) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end != value.c_str() + value.size() ||
      value.front() == '-') {
    return std::nullopt;
  }
  return static_cast<std::size_t>(n);
}

/// Consumes `flag N` into `out` (left as is when absent); false, after
/// printing why, when N is not a non-negative integer.
bool take_count(std::vector<std::string>& args, const char* flag,
                std::size_t& out) {
  if (const auto v = flag_value(args, flag)) {
    const auto parsed = parse_count(*v);
    if (!parsed) {
      std::fprintf(stderr,
                   "sdchecker: %s expects a non-negative integer, got '%s'\n",
                   flag, v->c_str());
      return false;
    }
    out = *parsed;
  }
  return true;
}

bool flag_present(std::vector<std::string>& args, const std::string& flag) {
  bool found = false;
  for (std::size_t i = 0; i < args.size();) {
    if (args[i] == flag) {
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i));
      found = true;
    } else {
      ++i;
    }
  }
  return found;
}

/// Strict tail of argument parsing: once a command has consumed its
/// flags, what remains must be exactly the expected positionals.  Any
/// other token — an unknown flag, a known flag whose value is missing,
/// or a stray positional — is a usage error naming the token
/// (historically such arguments were silently ignored).  Returns the
/// positionals, or nullopt after printing the specific error.
std::optional<std::vector<std::string>> finish_args(
    std::vector<std::string> args,
    std::initializer_list<const char*> positional_names,
    std::initializer_list<const char*> value_flags) {
  std::vector<std::string> positionals;
  for (std::string& arg : args) {
    if (!arg.empty() && arg.front() == '-') {
      bool wants_value = false;
      for (const char* flag : value_flags) {
        if (arg == flag) {
          wants_value = true;
          break;
        }
      }
      std::fprintf(stderr,
                   wants_value ? "sdchecker: flag '%s' requires a value\n"
                               : "sdchecker: unknown flag '%s'\n",
                   arg.c_str());
      return std::nullopt;
    }
    positionals.push_back(std::move(arg));
  }
  if (positionals.size() < positional_names.size()) {
    std::fprintf(stderr, "sdchecker: missing <%s>\n",
                 positional_names.begin()[positionals.size()]);
    return std::nullopt;
  }
  if (positionals.size() > positional_names.size()) {
    std::fprintf(stderr, "sdchecker: unexpected argument '%s'\n",
                 positionals[positional_names.size()].c_str());
    return std::nullopt;
  }
  return positionals;
}

/// Live mining progress on stderr (`--progress`), driven by the
/// `mine.lines` / `mine.lines_expected` instruments: a poller thread
/// redraws a `\r` line at ~4 Hz.  Auto-off when stderr is not a TTY, so
/// redirected runs stay clean.  The registry counters are cumulative, so
/// the reporter measures against a baseline captured at start.
class ProgressReporter {
 public:
  ProgressReporter() {
    if (isatty(fileno(stderr)) == 0) return;
    base_lines_ = lines().value();
    base_expected_ = expected().value();
    thread_ = std::thread([this] { run(); });
  }
  ~ProgressReporter() {
    if (!thread_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
    if (drew_) std::fprintf(stderr, "\r\033[K");
  }
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

 private:
  static sdc::obs::Counter& lines() {
    return sdc::obs::MetricsRegistry::global().counter("mine.lines");
  }
  static sdc::obs::Gauge& expected() {
    return sdc::obs::MetricsRegistry::global().gauge("mine.lines_expected");
  }

  void run() {
    const auto start = std::chrono::steady_clock::now();
    sdc::obs::ProgressMeter meter;
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      const std::int64_t total = expected().value() - base_expected_;
      meter.set_expected(total > 0 ? static_cast<std::uint64_t>(total) : 0);
      meter.sample(lines().value() - base_lines_,
                   std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count());
      std::fprintf(stderr, "\r\033[K%s", meter.render().c_str());
      drew_ = true;
    }
  }

  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::uint64_t base_lines_ = 0;
  std::int64_t base_expected_ = 0;
  bool drew_ = false;
};

void print_opt(const char* name, const std::optional<std::int64_t>& v) {
  if (v) {
    std::printf("    %-13s %9.3fs\n", name, static_cast<double>(*v) / 1000.0);
  } else {
    std::printf("    %-13s         -\n", name);
  }
}

int cmd_analyze(std::vector<std::string> args) {
  std::size_t threads = 1;
  if (!take_count(args, "--threads", threads)) return usage();
  const auto csv = flag_value(args, "--csv");
  const auto delays_csv_path = flag_value(args, "--delays-csv");
  const auto containers_csv_path = flag_value(args, "--containers-csv");
  const auto events_csv_path = flag_value(args, "--events-csv");
  const auto json_path = flag_value(args, "--json");
  const bool per_app = flag_present(args, "--per-app");
  const bool progress = flag_present(args, "--progress");
  const auto positionals =
      finish_args(std::move(args), {"log_dir"},
                  {"--threads", "--csv", "--delays-csv", "--containers-csv",
                   "--events-csv", "--json"});
  if (!positionals) return usage();
  const std::string& dir = (*positionals)[0];

  checker::SdChecker sdchecker({.threads = std::max<std::size_t>(1, threads)});
  checker::AnalysisResult analysis;
  try {
    std::optional<ProgressReporter> reporter;
    if (progress) reporter.emplace();
    analysis = sdchecker.analyze_directory(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }

  std::printf("mined %zu lines (%zu unparsable), %zu events, %zu apps\n\n",
              analysis.lines_total, analysis.lines_unparsed,
              analysis.events_total, analysis.timelines.size());
  std::printf("%s\n", analysis.aggregate.render_text().c_str());

  if (per_app) {
    for (const auto& [app, delays] : analysis.delays) {
      std::printf("  %s\n", app.str().c_str());
      print_opt("total", delays.total);
      print_opt("am", delays.am);
      print_opt("driver", delays.driver);
      print_opt("executor", delays.executor);
      print_opt("in-app", delays.in_app);
      print_opt("out-app", delays.out_app);
      print_opt("alloc", delays.alloc);
    }
    std::printf("\n");
  }

  const std::string completeness = analysis.render_completeness();
  if (!completeness.empty()) {
    std::printf("log coverage / corpus health:\n%s\n", completeness.c_str());
  }
  if (!analysis.anomalies.empty()) {
    std::printf("%zu anomalies:\n", analysis.anomalies.size());
    for (const auto& anomaly : analysis.anomalies) {
      std::printf("  [%s] %s %s: %s\n",
                  std::string(checker::anomaly_type_name(anomaly.type)).c_str(),
                  anomaly.app.str().c_str(), anomaly.entity.c_str(),
                  anomaly.detail.c_str());
    }
  } else {
    std::printf("no anomalies detected\n");
  }

  const auto write_file = [](const std::string& path,
                             const std::string& content) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "sdchecker: cannot write %s\n", path.c_str());
      return false;
    }
    out << content;
    std::printf("written %s\n", path.c_str());
    return true;
  };
  if (csv && !write_file(*csv, analysis.aggregate.render_csv())) return 1;
  if (delays_csv_path &&
      !write_file(*delays_csv_path, checker::delays_csv(analysis))) {
    return 1;
  }
  if (containers_csv_path &&
      !write_file(*containers_csv_path, checker::containers_csv(analysis))) {
    return 1;
  }
  if (events_csv_path &&
      !write_file(*events_csv_path, checker::events_csv(analysis))) {
    return 1;
  }
  if (json_path && !write_file(*json_path, checker::analysis_json(analysis))) {
    return 1;
  }
  if (const std::size_t diagnostics = analysis.diag_counts.total();
      diagnostics > 0) {
    std::printf("analysis completed with %zu corpus diagnostic(s)\n",
                diagnostics);
    return 3;
  }
  return 0;
}

/// Set by the SIGINT handler: the follow loop drains, emits its final
/// report and exits cleanly instead of dying mid-poll.
volatile std::sig_atomic_t g_follow_interrupted = 0;

void follow_sigint(int) { g_follow_interrupted = 1; }

/// Does a token after `--serve` look like an address rather than the
/// next flag or the log-dir positional?  "host:port", ":port" or a bare
/// all-digit port; anything else (including paths) stays in `args`.
bool looks_like_serve_address(const std::string& token) {
  if (token.empty() || token.front() == '-') return false;
  if (token.find(':') != std::string::npos) return true;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// "host:port" / ":port" / "port" / "" onto serve options; false (with
/// a stderr message) on an unparsable port.
bool parse_serve_address(const std::string& address,
                         checker::FollowServeOptions& options) {
  if (address.empty()) return true;
  std::string port = address;
  const std::size_t colon = address.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) options.host = address.substr(0, colon);
    port = address.substr(colon + 1);
  }
  const auto parsed = port.empty() ? std::optional<std::size_t>(0)
                                   : parse_count(port);
  if (!parsed || *parsed > 65535) {
    std::fprintf(stderr, "sdchecker: --serve: bad port in '%s'\n",
                 address.c_str());
    return false;
  }
  options.port = static_cast<std::uint16_t>(*parsed);
  return true;
}

int cmd_follow(std::vector<std::string> args) {
  const bool watch = flag_present(args, "--watch");
  const bool no_retire = flag_present(args, "--no-retire");
  double interval_s = 2.0;
  if (const auto v = flag_value(args, "--interval")) {
    interval_s = std::atof(v->c_str());
  }
  std::size_t poll_ms = 500;
  std::size_t exit_quiescent = 0;
  std::size_t max_polls = 0;
  std::size_t parked_cap = checker::MinerOptions{}.parked_events_cap;
  std::size_t retire_quiet = 2;
  std::size_t serve_stall_ms = 10000;
  std::size_t stall_polls_after = 0;
  if (!take_count(args, "--poll-ms", poll_ms) ||
      !take_count(args, "--exit-quiescent", exit_quiescent) ||
      !take_count(args, "--max-polls", max_polls) ||
      !take_count(args, "--parked-cap", parked_cap) ||
      !take_count(args, "--retire-quiet", retire_quiet) ||
      !take_count(args, "--serve-stall-ms", serve_stall_ms) ||
      !take_count(args, "--stall-polls-after", stall_polls_after)) {
    return usage();
  }
  const auto serve_address =
      flag_optional_value(args, "--serve", looks_like_serve_address);
  checker::FollowServeOptions serve_options;
  serve_options.stall_threshold_ms =
      static_cast<std::int64_t>(serve_stall_ms);
  if (serve_address && !parse_serve_address(*serve_address, serve_options)) {
    return usage();
  }
  const auto json_path = flag_value(args, "--json");
  const auto positionals = finish_args(
      std::move(args), {"log_dir"},
      {"--interval", "--poll-ms", "--exit-quiescent", "--max-polls",
       "--json", "--parked-cap", "--retire-quiet", "--serve",
       "--serve-stall-ms", "--stall-polls-after"});
  if (!positionals) return usage();
  const std::string& dir = (*positionals)[0];
  if (!std::filesystem::is_directory(dir)) {
    std::fprintf(stderr, "sdchecker: not a directory: %s\n", dir.c_str());
    return 1;
  }

  checker::FollowOptions options;
  options.miner.parked_events_cap = parked_cap;
  options.retire_quiet_polls = retire_quiet;
  options.retire = !no_retire;
  checker::FollowService service(dir, options);

  // --serve: publish-on-poll snapshots for the embedded server.  The
  // publisher must outlive the server's worker threads, so both live
  // until after the drain below.
  std::unique_ptr<checker::FollowPublisher> publisher;
  std::unique_ptr<obs::HttpServer> server;
  if (serve_address) {
    publisher = std::make_unique<checker::FollowPublisher>();
    server = checker::make_follow_server(*publisher, serve_options);
    std::string error;
    if (!server->start(&error)) {
      std::fprintf(stderr, "sdchecker: --serve: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "serving http://%s:%u/\n",
                 serve_options.host.c_str(),
                 static_cast<unsigned>(server->port()));
    std::fflush(stderr);
  }

  g_follow_interrupted = 0;
  std::signal(SIGINT, follow_sigint);
  std::size_t quiescent_streak = 0;
  auto last_watch = std::chrono::steady_clock::now() -
                    std::chrono::duration_cast<std::chrono::steady_clock::
                                                   duration>(
                        std::chrono::duration<double>(interval_s));
  while (g_follow_interrupted == 0) {
    if (stall_polls_after > 0 && service.polls() >= stall_polls_after) {
      // Fault injection for the serve smoke: the poll loop wedges (no
      // polls, no publishes) while the server keeps answering, so
      // /healthz must flip to 503 once the poll age passes the
      // threshold.  Only SIGINT ends the stall.
      std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
      continue;
    }
    service.poll_once();
    quiescent_streak = service.quiescent() ? quiescent_streak + 1 : 0;
    if (publisher) {
      if (!service.quiescent()) {
        // Something changed: render once and publish.  Quiescent polls
        // only stamp the clock — retirement cannot change the analysis
        // document (the PR 7 parity contract), so the published bytes
        // stay current without re-rendering every poll.
        const checker::AnalysisResult analysis = service.snapshot();
        checker::FollowPublication publication;
        publication.analysis_json = checker::analysis_json(analysis);
        publication.polls = service.polls();
        publication.quiescent = false;
        publication.diag_counts = analysis.diag_counts;
        publisher->publish(std::move(publication));
      } else {
        publisher->touch(service.polls(), /*quiescent=*/true);
      }
    }
    if (watch) {
      const auto now = std::chrono::steady_clock::now();
      if (std::chrono::duration<double>(now - last_watch).count() >=
          interval_s) {
        std::printf("%s\n", service.watch_record().c_str());
        std::fflush(stdout);
        last_watch = now;
      }
    }
    if (exit_quiescent > 0 && quiescent_streak >= exit_quiescent) break;
    if (max_polls > 0 && service.polls() >= max_polls) break;
    if (g_follow_interrupted != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  std::signal(SIGINT, SIG_DFL);

  // Drain: buffered final partial lines become lines, exactly as the
  // batch reader would see the files now.
  service.finish();
  const checker::AnalysisResult analysis = service.snapshot();
  if (publisher) {
    // The server keeps answering until process exit; what it serves from
    // here on is the drained document — byte-identical to a batch
    // `analyze` of the directory as the last poll saw it (as it stands
    // now, once the loop ended on quiescence).
    checker::FollowPublication publication;
    publication.analysis_json = checker::analysis_json(analysis);
    publication.polls = service.polls();
    publication.quiescent = true;
    publication.diag_counts = analysis.diag_counts;
    publisher->publish(std::move(publication));
  }
  if (watch) {
    std::printf("%s\n", service.watch_record().c_str());
    std::fflush(stdout);
  }

  std::fprintf(stderr,
               "followed %llu poll(s): %llu bytes, %zu stream(s), "
               "%llu rotation(s)\n",
               static_cast<unsigned long long>(service.polls()),
               static_cast<unsigned long long>(service.bytes_read()),
               service.streams_seen(),
               static_cast<unsigned long long>(service.rotations()));
  std::fprintf(stderr,
               "mined %zu lines (%zu unparsable), %zu events, %zu apps "
               "(%zu retired, %zu resident)\n",
               analysis.lines_total, analysis.lines_unparsed,
               analysis.events_total, analysis.delays.size(),
               service.analyzer().apps_retired(),
               service.analyzer().apps_resident());
  // Under --watch, stdout is a pure ndjson stream (one record per line,
  // machine-checkable with `followcheck`); the human report goes to
  // stderr instead.
  std::FILE* report = watch ? stderr : stdout;
  std::fprintf(report, "%s\n", analysis.aggregate.render_text().c_str());
  if (json_path) {
    std::ofstream out(*json_path);
    if (out) out << checker::analysis_json(analysis);
    if (!out) {
      std::fprintf(stderr, "sdchecker: cannot write %s\n", json_path->c_str());
      return 1;
    }
    std::fprintf(report, "written %s\n", json_path->c_str());
  }
  if (const std::size_t diagnostics = analysis.diag_counts.total();
      diagnostics > 0) {
    std::fprintf(report, "analysis completed with %zu corpus diagnostic(s)\n",
                 diagnostics);
    return 3;
  }
  return 0;
}

int cmd_followcheck(std::vector<std::string> args) {
  const auto positionals =
      finish_args(std::move(args), {"watch_ndjson"}, {});
  if (!positionals) return usage();
  std::ifstream in((*positionals)[0]);
  if (!in) {
    std::fprintf(stderr, "sdchecker: cannot read %s\n",
                 (*positionals)[0].c_str());
    return 1;
  }
  std::size_t records = 0;
  std::size_t failures = 0;
  std::string line;
  for (std::size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    ++records;
    const checker::WatchCheckResult result = checker::check_watch_json(line);
    if (!result.ok) {
      ++failures;
      for (const std::string& error : result.errors) {
        std::fprintf(stderr, "sdchecker: watch check: line %zu: %s\n",
                     line_no, error.c_str());
      }
    }
  }
  if (records == 0) {
    std::fprintf(stderr, "sdchecker: watch check: no records\n");
    return 1;
  }
  if (failures > 0) return 1;
  std::printf("watch check ok: %zu record(s)\n", records);
  return 0;
}

int cmd_trace(std::vector<std::string> args) {
  std::size_t threads = 1;
  if (!take_count(args, "--threads", threads)) return usage();
  const auto out_flag = flag_value(args, "--out");
  const bool check = flag_present(args, "--check");
  const auto positionals = finish_args(
      std::move(args), {"log_dir"}, {"--threads", "--out"});
  if (!positionals) return usage();
  const std::string out_path = out_flag.value_or("app.trace.json");

  checker::SdChecker sdchecker({.threads = std::max<std::size_t>(1, threads)});
  checker::AnalysisResult analysis;
  try {
    analysis = sdchecker.analyze_directory((*positionals)[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }

  const std::string json = checker::scheduling_trace_json(analysis);
  {
    std::ofstream out(out_path);
    if (out) out << json;
    if (!out) {
      std::fprintf(stderr, "sdchecker: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  std::printf("written %s: %zu application(s) -- load it at "
              "ui.perfetto.dev\n",
              out_path.c_str(), analysis.timelines.size());

  if (check) {
    obs::TraceCheckOptions options;
    options.required_process_prefix = "application_";
    for (const std::string_view slice : checker::required_app_slices()) {
      options.required_slices.emplace_back(slice);
    }
    const obs::TraceCheckResult result = obs::check_trace_json(json, options);
    if (!result.ok) {
      for (const std::string& error : result.errors) {
        std::fprintf(stderr, "sdchecker: trace check: %s\n", error.c_str());
      }
      return 1;
    }
    std::printf("trace check ok: %zu events across %zu process(es)\n",
                result.events, result.processes);
  }
  if (analysis.diag_counts.total() > 0) {
    std::printf("analysis completed with %zu corpus diagnostic(s)\n",
                analysis.diag_counts.total());
    return 3;
  }
  return 0;
}

int cmd_timeline(std::vector<std::string> args) {
  const auto positionals =
      finish_args(std::move(args), {"log_dir", "application_id"}, {});
  if (!positionals) return usage();
  const auto app = ApplicationId::parse((*positionals)[1]);
  if (!app) {
    std::fprintf(stderr, "sdchecker: '%s' is not an application id\n",
                 (*positionals)[1].c_str());
    return 2;
  }
  try {
    const auto analysis =
        checker::SdChecker().analyze_directory((*positionals)[0]);
    const auto it = analysis.timelines.find(*app);
    if (it == analysis.timelines.end()) {
      std::fprintf(stderr, "sdchecker: no events for %s\n",
                   (*positionals)[1].c_str());
      return 1;
    }
    std::printf("%s", checker::render_timeline(it->second).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }
}

int cmd_diff(std::vector<std::string> args) {
  double threshold = 0.10;
  if (const auto t = flag_value(args, "--threshold")) {
    threshold = std::atof(t->c_str()) / 100.0;
  }
  const auto positionals =
      finish_args(std::move(args), {"log_dir_a", "log_dir_b"},
                  {"--threshold"});
  if (!positionals) return usage();
  try {
    const checker::SdChecker sdchecker({.threads = 2});
    const auto a = sdchecker.analyze_directory((*positionals)[0]);
    const auto b = sdchecker.analyze_directory((*positionals)[1]);
    const auto comparison = checker::compare(a, b);
    std::printf("A = %s (%zu apps)   B = %s (%zu apps)\n\n",
                (*positionals)[0].c_str(), comparison.apps_a,
                (*positionals)[1].c_str(), comparison.apps_b);
    std::printf("%s\n", comparison.render_text().c_str());
    const auto moved = comparison.significant(threshold);
    if (moved.empty()) {
      std::printf("no metric median moved by more than %.0f%%\n",
                  threshold * 100);
    } else {
      std::printf("moved more than %.0f%%:\n", threshold * 100);
      for (const checker::MetricDelta* delta : moved) {
        std::printf("  %-14s %.2fx\n", delta->metric.c_str(),
                    *delta->median_ratio);
      }
    }
    // Distribution-level verdicts from the same KS engine the fleet
    // regression gate uses (compare.hpp): median movement above misses
    // shape changes (tail growth at a stable median); this does not.
    const auto drift = checker::histogram_drift(checker::component_histograms(a),
                                                checker::component_histograms(b));
    std::printf("\n%s", drift.render_text("A", "B").c_str());
    const auto regressions = drift.regressions();
    if (regressions.empty()) {
      std::printf("no significant distribution drift\n");
    } else {
      std::printf("distribution drift (worst first):\n");
      for (const checker::ComponentDrift* regression : regressions) {
        std::printf("  %-14s KS %.3f (threshold %.3f)\n",
                    regression->metric.c_str(), regression->distance,
                    regression->threshold);
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }
}

int cmd_fleet(std::vector<std::string> args) {
  checker::FleetOptions options;
  if (!take_count(args, "--threads", options.threads)) return usage();
  const auto json_path = flag_value(args, "--json");
  const auto out_dir = flag_value(args, "--out-dir");
  const auto baseline_path = flag_value(args, "--baseline");
  const auto positionals = finish_args(
      std::move(args), {"root_dir"},
      {"--threads", "--json", "--out-dir", "--baseline"});
  if (!positionals) return usage();

  checker::FleetResult fleet;
  try {
    fleet = checker::analyze_fleet(
        std::filesystem::path((*positionals)[0]), options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }

  std::printf("fleet: %zu corpora on %zu threads, %zu shards/corpus\n\n",
              fleet.corpora.size(), fleet.threads, fleet.shards_per_corpus);
  std::size_t diagnostics_total = 0;
  for (const checker::CorpusResult& corpus : fleet.corpora) {
    if (!corpus.error.empty()) {
      std::printf("  %-24s ERROR: %s\n", corpus.name.c_str(),
                  corpus.error.c_str());
      continue;
    }
    diagnostics_total += corpus.diagnostics;
    std::printf("  %-24s %6zu apps %8zu events %10zu lines %4zu diagnostics\n",
                corpus.name.c_str(), corpus.apps, corpus.events, corpus.lines,
                corpus.diagnostics);
  }

  const auto write_file = [](const std::string& path,
                             const std::string& content) {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "sdchecker: cannot write %s\n", path.c_str());
      return false;
    }
    out << content;
    std::printf("written %s\n", path.c_str());
    return true;
  };
  if (out_dir) {
    std::error_code ec;
    std::filesystem::create_directories(*out_dir, ec);
    if (ec) {
      std::fprintf(stderr, "sdchecker: cannot create %s: %s\n",
                   out_dir->c_str(), ec.message().c_str());
      return 1;
    }
    for (const checker::CorpusResult& corpus : fleet.corpora) {
      if (!corpus.error.empty()) continue;
      const auto path = std::filesystem::path(*out_dir) /
                        (corpus.name + ".json");
      if (!write_file(path.string(), corpus.analysis_json)) return 1;
    }
  }
  if (json_path && !write_file(*json_path, fleet.summary_json())) return 1;

  // Exit contract: 0 clean, 1 corpus/file error, 3 corpus diagnostics,
  // 4 baseline drift — the strongest signal wins (4 > 1 > 3).
  int rc = 0;
  if (diagnostics_total > 0) {
    std::printf("fleet completed with %zu corpus diagnostic(s)\n",
                diagnostics_total);
    rc = 3;
  }
  if (fleet.failed() > 0) {
    std::fprintf(stderr, "sdchecker: %zu corpora failed\n", fleet.failed());
    rc = 1;
  }
  if (baseline_path) {
    std::string error;
    const auto baseline =
        checker::load_fleet_baseline(*baseline_path, &error);
    if (!baseline) {
      std::fprintf(stderr, "sdchecker: %s\n", error.c_str());
      return 1;
    }
    static obs::Counter& regressions_counter =
        obs::catalog_counter(obs::metric::kFleetRegressions);
    const auto drift = checker::histogram_drift(*baseline, fleet.components);
    std::printf("\n%s", drift.render_text("baseline", "fleet").c_str());
    const auto regressions = drift.regressions();
    regressions_counter.add(regressions.size());
    if (regressions.empty()) {
      std::printf("no significant drift vs %s\n", baseline_path->c_str());
    } else {
      std::printf("drift vs %s (worst first):\n", baseline_path->c_str());
      for (const checker::ComponentDrift* regression : regressions) {
        std::printf("  %-14s KS %.3f (threshold %.3f, n %llu -> %llu)\n",
                    regression->metric.c_str(), regression->distance,
                    regression->threshold,
                    static_cast<unsigned long long>(regression->n_a),
                    static_cast<unsigned long long>(regression->n_b));
      }
      rc = 4;
    }
  }
  return rc;
}

int cmd_graph(std::vector<std::string> args) {
  const auto out_flag = flag_value(args, "--out");
  const auto positionals =
      finish_args(std::move(args), {"log_dir", "application_id"}, {"--out"});
  if (!positionals) return usage();
  const std::string& dir = (*positionals)[0];
  const std::string& app_text = (*positionals)[1];
  const std::string out_path = out_flag.value_or(app_text + ".dot");

  const auto app = ApplicationId::parse(app_text);
  if (!app) {
    std::fprintf(stderr, "sdchecker: '%s' is not an application id\n",
                 app_text.c_str());
    return 2;
  }
  try {
    const auto analysis = checker::SdChecker().analyze_directory(dir);
    const auto graph = analysis.graph_for(*app);
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "sdchecker: cannot write %s\n", out_path.c_str());
      return 1;
    }
    out << graph.to_dot();
    out.flush();
    if (!out) {
      std::fprintf(stderr, "sdchecker: error writing %s\n", out_path.c_str());
      return 1;
    }
    std::printf("%zu nodes, %zu edges -> %s\n", graph.nodes().size(),
                graph.edges().size(), out_path.c_str());
    const auto violations = graph.validate();
    for (const auto& violation : violations) {
      std::printf("  warning: %s\n", violation.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }
}

int cmd_simulate(std::vector<std::string> args) {
  const auto jobs_flag = flag_value(args, "--jobs");
  const auto seed_flag = flag_value(args, "--seed");
  const auto executors_flag = flag_value(args, "--executors");
  const auto input_mb_flag = flag_value(args, "--input-mb");
  const auto scheduler_flag = flag_value(args, "--scheduler");
  const auto positionals =
      finish_args(std::move(args), {"out_dir"},
                  {"--jobs", "--seed", "--executors", "--input-mb",
                   "--scheduler"});
  if (!positionals) return usage();
  const std::string& out_dir = (*positionals)[0];
  const int jobs = std::atoi(jobs_flag.value_or("20").c_str());
  const auto seed = static_cast<std::uint64_t>(
      std::strtoull(seed_flag.value_or("42").c_str(), nullptr, 10));
  const int executors = std::atoi(executors_flag.value_or("4").c_str());
  const double input_mb = std::atof(input_mb_flag.value_or("2048").c_str());
  const std::string scheduler = scheduler_flag.value_or("capacity");

  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  scenario.yarn.scheduler = scheduler == "opportunistic"
                                ? yarn::SchedulerKind::kOpportunistic
                                : yarn::SchedulerKind::kCapacity;
  trace::TraceConfig trace_config;
  trace_config.count = jobs;
  trace_config.seed = seed + 1;
  for (const auto& submission : trace::generate_trace(trace_config)) {
    harness::SparkSubmissionPlan plan;
    plan.at = submission.at;
    plan.app = workloads::make_tpch_query(
        1 + submission.workload_index % workloads::kTpchQueryCount, input_mb,
        executors);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  const auto result = harness::run_scenario(scenario);
  result.logs.write_to_directory(out_dir);
  std::printf("simulated %zu jobs (%llu events), wrote %zu log files "
              "(%zu lines) to %s\n",
              result.jobs.size(),
              static_cast<unsigned long long>(result.events_executed),
              result.logs.stream_count(), result.logs.total_lines(),
              out_dir.c_str());
  return 0;
}

int cmd_fuzz(std::vector<std::string> args) {
  std::uint64_t seed = 42;
  if (const auto s = flag_value(args, "--seed")) {
    seed = std::strtoull(s->c_str(), nullptr, 10);
  }
  std::vector<checker::MutationClass> classes;
  while (const auto name = flag_value(args, "--class")) {
    const auto cls = checker::mutation_class_from_name(*name);
    if (!cls) {
      std::fprintf(stderr, "sdchecker: unknown mutation class '%s'\n",
                   name->c_str());
      return usage();
    }
    classes.push_back(*cls);
  }
  if (classes.empty()) classes = checker::all_mutation_classes();
  const auto positionals =
      finish_args(std::move(args), {"log_dir"}, {"--seed", "--class"});
  if (!positionals) return usage();

  logging::LogBundle base;
  try {
    base = logging::LogBundle::read_from_directory((*positionals)[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdchecker: %s\n", e.what());
    return 1;
  }
  const auto results = checker::fuzz_corpus(base, seed, classes);
  std::printf("%s", checker::render_fuzz_report(results).c_str());
  for (const auto& result : results) {
    if (!result.ok) {
      std::printf("fuzz smoke test FAILED\n");
      return 1;
    }
  }
  std::printf("fuzz smoke test passed: %zu class(es)\n", results.size());
  return 0;
}

}  // namespace

namespace {

int dispatch(const std::string& command, std::vector<std::string> args) {
  if (command == "analyze") return cmd_analyze(std::move(args));
  if (command == "follow") return cmd_follow(std::move(args));
  if (command == "followcheck") return cmd_followcheck(std::move(args));
  if (command == "trace") return cmd_trace(std::move(args));
  if (command == "timeline") return cmd_timeline(std::move(args));
  if (command == "diff") return cmd_diff(std::move(args));
  if (command == "fleet") return cmd_fleet(std::move(args));
  if (command == "graph") return cmd_graph(std::move(args));
  if (command == "simulate") return cmd_simulate(std::move(args));
  if (command == "fuzz") return cmd_fuzz(std::move(args));
  std::fprintf(stderr, "sdchecker: unknown command '%s'\n", command.c_str());
  return usage();
}

/// Writes an observability dump; never overrides a failing exit status,
/// but a dump that cannot be written turns success into failure.
int write_dump(int rc, const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (out) out << content;
  if (!out) {
    std::fprintf(stderr, "sdchecker: cannot write %s\n", path.c_str());
    return rc == 0 ? 1 : rc;
  }
  std::fprintf(stderr, "written %s\n", path.c_str());
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  // Global observability flags, accepted by every command.  `--metrics`
  // takes an optional FILE: bare, the dump goes to stderr, so a
  // `follow --watch | followcheck` pipeline keeps a pure-ndjson stdout.
  auto metrics_path = flag_optional_value(
      args, "--metrics",
      [](const std::string& token) {
        return !token.empty() && token.front() != '-';
      });
  if (const auto out = flag_value(args, "--metrics-out")) {
    metrics_path = *out;
  }
  const auto trace_path = flag_value(args, "--trace");
  if (trace_path) obs::Tracer::global().set_enabled(true);

  int rc = dispatch(command, std::move(args));

  if (metrics_path && !metrics_path->empty()) {
    rc = write_dump(rc, *metrics_path,
                    obs::MetricsRegistry::global().snapshot().to_json());
  } else if (metrics_path) {
    std::fprintf(stderr, "%s\n",
                 obs::MetricsRegistry::global().snapshot().to_json().c_str());
  }
  if (trace_path) {
    rc = write_dump(
        rc, *trace_path,
        obs::spans_trace_json(obs::Tracer::global().snapshot()));
  }
  return rc;
}
