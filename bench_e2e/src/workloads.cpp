#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "corpora.hpp"
#include "measure.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "pipeline.hpp"
#include "replay.hpp"
#include "sdchecker/sdchecker.hpp"

namespace bench {
namespace fs = std::filesystem;

namespace {

enum class Kind { kBatch, kFleet, kFollow };

/// Share of the fastest and of the slowest timed operations that
/// `wall_s` and `cpu_s` leave out of their mean.
constexpr double kTrim = 0.1;

struct Sizes {
  int e1_jobs = 2000;
  std::size_t rm_lines = 1'000'000;
  std::size_t fleet_corpora = 16;
  int fleet_largest_jobs = 400;
  /// follow_replay's slices per replay.
  std::size_t replay_slices = 40;
  /// Slices of the follow rows' replay on the other workloads.
  std::size_t trace_slices = 24;
  int setup_reps = 3;
};

Sizes sizes_for(bool smoke) {
  Sizes sizes;
  if (!smoke) return sizes;
  sizes.e1_jobs = 40;
  sizes.rm_lines = 20'000;
  sizes.fleet_corpora = 4;
  sizes.fleet_largest_jobs = 16;
  sizes.replay_slices = 30;
  sizes.trace_slices = 8;
  sizes.setup_reps = 1;
  return sizes;
}

/// Counts operations and their failed correctness checks; a failure is
/// reported on stderr and the run goes on.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "bench_e2e: check failed: %s\n", what.c_str());
  }
};

struct Context {
  RunOptions options;
  Sizes sizes;
  Kind kind = Kind::kBatch;
  std::size_t threads = 1;
  fs::path corpus;                // batch corpus, or the replay source
  std::vector<fs::path> corpora;  // fleet
  fs::path plan_file;
  /// The live directory of the latest replay; every replay gets a fresh
  /// one.
  fs::path live;
  std::size_t replays = 0;
  fs::path out;
  ReplayPlan plan;
  /// The warm-up's output identity; every later operation must match.
  OpSample warm;

  /// The corpus the follow rows replay: the workload's own, or the
  /// fleet's largest.
  [[nodiscard]] const fs::path& replay_source() const {
    return kind == Kind::kFleet ? corpora.front() : corpus;
  }
  /// Batch-analysis hash of `replay_source()`, which a drained replay of
  /// it must reproduce.
  [[nodiscard]] std::uint64_t replay_reference() const {
    return kind == Kind::kFleet ? warm.part_hashes.front() : warm.hash;
  }
  /// Replays `plan` of `source` into a new live directory.
  ReplayOutcome replay_into_fresh(const fs::path& source) {
    live = options.work / ("live." + std::to_string(replays++));
    return replay(plan, source, live);
  }
};

Context make_context(const RunOptions& options) {
  Context ctx;
  ctx.options = options;
  const std::string& name = options.workload;
  ctx.kind = name == "fleet_skewed"    ? Kind::kFleet
             : name == "follow_replay" ? Kind::kFollow
                                       : Kind::kBatch;
  ctx.sizes = sizes_for(options.smoke);
  ctx.threads = name == "e1_analyze" || ctx.kind == Kind::kFollow
                    ? 1
                    : load_threads();
  ctx.out = options.work / "out";
  fs::create_directories(ctx.out);
  return ctx;
}

/// Runs in the generator child: every corpus of the workload, plus the
/// replay plan when a replay will run.
void generate(const Context& ctx) {
  const std::uint64_t seed = ctx.options.seed;
  const std::string& name = ctx.options.workload;
  if (name == "rm_heavy") {
    write_rm_heavy_corpus(ctx.corpus, ctx.sizes.rm_lines, seed);
  } else if (ctx.kind == Kind::kFleet) {
    const std::vector<int> jobs = fleet_job_counts(
        ctx.corpora.size(), ctx.sizes.fleet_largest_jobs);
    for (std::size_t i = 0; i < ctx.corpora.size(); ++i) {
      write_tpch_corpus(ctx.corpora[i], jobs[i], seed * 1000 + i);
    }
  } else {
    write_tpch_corpus(ctx.corpus, ctx.sizes.e1_jobs, seed);
  }
  if (ctx.kind == Kind::kFollow) {
    write_replay_plan(ctx.corpus, ctx.sizes.replay_slices, ctx.plan_file);
  } else if (ctx.options.trace) {
    write_replay_plan(ctx.replay_source(), ctx.sizes.trace_slices,
                      ctx.plan_file);
  }
}

/// The reference analysis: the workload's batch entry point (for
/// follow_replay, batch analyze of the source it replays).
OpSample reference_op(const Context& ctx) {
  if (ctx.kind == Kind::kFleet) {
    return fleet_once(ctx.corpora, ctx.threads, ctx.out);
  }
  return analyze_once(ctx.corpus, ctx.threads, ctx.out / "analysis.json");
}

/// Points the context at a fresh corpus directory for set-up `rep`.
/// Earlier set-ups' corpora stay on disk until the run ends, so no
/// deletion (and its journal traffic) lands inside a set-up or a timed
/// phase.
void place_corpora(Context& ctx, int rep) {
  const fs::path root = ctx.options.work / ("corpora." + std::to_string(rep));
  ctx.corpus = root / "corpus";
  ctx.corpora.clear();
  if (ctx.kind == Kind::kFleet) {
    for (std::size_t i = 0; i < ctx.sizes.fleet_corpora; ++i) {
      char name[32];
      std::snprintf(name, sizeof(name), "corpus%02zu", i);
      ctx.corpora.push_back(root / name);
    }
  }
  ctx.plan_file = root / "replay.plan";
  fs::create_directories(root);
}

/// One set-up: corpus generation and writing (in a child process),
/// syncing, and the warm-up.
double set_up(Context& ctx, int rep) {
  const double start = now_s();
  place_corpora(ctx, rep);
  if (!run_in_child([&ctx] { generate(ctx); })) {
    throw std::runtime_error("corpus generation failed");
  }
  const double generated = now_s();
  sync_filesystem(ctx.options.work);
  const double synced = now_s();
  if (fs::exists(ctx.plan_file)) ctx.plan = read_replay_plan(ctx.plan_file);
  ctx.warm = reference_op(ctx);
  const double end = now_s();
  std::printf("setup %d: generate %.3f s, sync %.3f s, warm-up %.3f s\n", rep,
              generated - start, synced - generated, end - synced);
  return end - start;
}

/// One timed operation of the workload, checked against the warm-up.
OpSample timed_op(Context& ctx, Checks& checks,
                  std::vector<double>* freshness_ms = nullptr,
                  ReplayOutcome* replay_out = nullptr) {
  if (ctx.kind != Kind::kFollow) {
    move_to_next_cpu();
    const OpSample sample = reference_op(ctx);
    checks.expect(sample.hash == ctx.warm.hash,
                  "output differs from the warm-up's");
    return sample;
  }
  ReplayOutcome outcome = ctx.replay_into_fresh(ctx.corpus);
  checks.expect(outcome.drained_hash == ctx.warm.hash &&
                    outcome.events_late_dropped == 0,
                "drained follow snapshot differs from batch analyze (" +
                    std::to_string(outcome.events_late_dropped) +
                    " late events dropped)");
  if (freshness_ms != nullptr) {
    freshness_ms->insert(freshness_ms->end(), outcome.freshness_ms.begin(),
                         outcome.freshness_ms.end());
  }
  const OpSample sample{outcome.wall_s, outcome.cpu_s, outcome.drained_hash,
                        {}};
  if (replay_out != nullptr) *replay_out = std::move(outcome);
  return sample;
}

/// Every ground-truth job appears, with its total delay within 30 ms of
/// first_task_at - submitted_at (Integration.SdcheckerMatchesGround-
/// TruthTotals).
void check_ground_truth(const fs::path& dir, Checks& checks) {
  using namespace sdc::checker;
  const std::vector<TruthRow> truth = read_truth(dir);
  const AnalysisResult result =
      SdChecker({.threads = 1}).analyze_directory(dir);
  std::unordered_map<std::string, const Delays*> by_app;
  for (const auto& [app, delays] : result.delays) by_app[app.str()] = &delays;
  std::size_t bad = 0;
  std::string first_bad;
  for (const TruthRow& row : truth) {
    const auto it = by_app.find(row.app);
    const std::optional<std::int64_t> total =
        it == by_app.end() ? std::nullopt : it->second->total;
    const bool ok = it != by_app.end() &&
                    (row.total_ms < 0 ||
                     (total && std::fabs(static_cast<double>(*total) -
                                         row.total_ms) <= 30.0));
    if (ok) continue;
    if (bad++ == 0) {
      first_bad = "; first: " + row.app + " truth " +
                  std::to_string(row.total_ms) + " ms, analyzed " +
                  (it == by_app.end() ? std::string("missing")
                   : total            ? std::to_string(*total) + " ms"
                                      : std::string("no total"));
    }
  }
  checks.expect(!truth.empty() && bad == 0,
                dir.filename().string() + ": " + std::to_string(bad) +
                    " of " + std::to_string(truth.size()) +
                    " ground-truth jobs missing or off by > 30 ms" +
                    first_bad);
}

/// Standalone 1-thread analyses of the workload's corpora (the fleet's
/// "sequential" baseline), each checked against the workload's own
/// output.  Returns the per-corpus wall times.
std::vector<double> standalone_checks(const Context& ctx, Checks& checks) {
  std::vector<double> times;
  if (ctx.kind == Kind::kFleet) {
    for (std::size_t i = 0; i < ctx.corpora.size(); ++i) {
      const OpSample one = analyze_once(ctx.corpora[i], 1,
                                        ctx.out / "standalone.json");
      checks.expect(one.hash == ctx.warm.part_hashes.at(i),
                    ctx.corpora[i].filename().string() +
                        ": fleet output differs from standalone analyze");
      times.push_back(one.wall_s);
    }
    return times;
  }
  // rm_heavy: N threads must equal 1 thread.  follow_replay: the drained
  // live directory must analyze exactly like its source.
  const fs::path& dir = ctx.kind == Kind::kFollow ? ctx.live : ctx.corpus;
  const OpSample one = analyze_once(dir, 1, ctx.out / "standalone.json");
  checks.expect(one.hash == ctx.warm.hash,
                "1-thread batch analyze differs from the workload's output");
  times.push_back(one.wall_s);
  return times;
}

void correctness_gates(const Context& ctx, Checks& checks,
                       std::vector<double>* standalone_times) {
  if (ctx.options.workload == "e1_analyze") {
    check_ground_truth(ctx.corpus, checks);
  }
  if (ctx.kind == Kind::kFleet) {
    for (const fs::path& dir : ctx.corpora) check_ground_truth(dir, checks);
  }
  std::vector<double> times = standalone_checks(ctx, checks);
  if (standalone_times != nullptr) *standalone_times = std::move(times);
}

/// Freshness of a batch workload: the timed phase re-analyses the corpus
/// back to back, so an input landing at a uniformly random moment during
/// analysis k is first published by analysis k+1; it waits the rest of
/// analysis k plus all of analysis k+1.  Sampled evenly over the loop's
/// time, each analysis weighted by its duration.
std::vector<double> batch_loop_freshness_ms(const std::vector<double>& walls) {
  std::vector<double> out;
  double span = 0;
  for (std::size_t k = 0; k + 1 < walls.size(); ++k) span += walls[k];
  if (span <= 0) return out;
  const double step = span / 10000.0;
  for (std::size_t k = 0; k + 1 < walls.size(); ++k) {
    for (double into = step / 2; into < walls[k]; into += step) {
      out.push_back((walls[k] - into + walls[k + 1]) * 1e3);
    }
  }
  return out;
}

struct Reporter {
  std::vector<Metric>& out;
  void operator()(std::string name, double value, std::string unit) const {
    out.push_back({std::move(name), value, std::move(unit)});
  }
};

void print_header(const Context& ctx, double parallelism) {
  std::printf(
      "workload %s  seed %llu  trace %d  seconds %.0f\n"
      "host: nproc %u  load threads %zu  host.parallelism %.2f  fs %s\n",
      ctx.options.workload.c_str(),
      static_cast<unsigned long long>(ctx.options.seed),
      ctx.options.trace ? 1 : 0, ctx.options.seconds,
      std::thread::hardware_concurrency(), ctx.threads, parallelism,
      filesystem_type(ctx.options.work).c_str());
}

RunResult untraced_run(Context& ctx) {
  RunResult run;
  Checks checks;
  std::vector<double> setups;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> freshness;
  double peak = 0;
  bool rss_reset = true;
  // The timed operations are spread over the run, one part after each
  // set-up, so the run samples the host's speed, which drifts over tens of
  // seconds, at several moments instead of one.
  const double part_s =
      ctx.options.seconds / static_cast<double>(ctx.sizes.setup_reps);
  double timed_s = 0;
  for (int rep = 0; rep < ctx.sizes.setup_reps; ++rep) {
    setups.push_back(set_up(ctx, rep));
    rss_reset = reset_peak_rss() && rss_reset;
    std::vector<double> part_walls;
    const double start = now_s();
    do {
      const OpSample sample = timed_op(ctx, checks, &freshness);
      part_walls.push_back(sample.wall_s);
      cpus.push_back(sample.cpu_s);
    } while (now_s() - start < part_s);
    timed_s += now_s() - start;
    peak = std::max(peak, peak_rss_mb());
    if (ctx.kind != Kind::kFollow) {
      const std::vector<double> loop = batch_loop_freshness_ms(part_walls);
      freshness.insert(freshness.end(), loop.begin(), loop.end());
    }
    walls.insert(walls.end(), part_walls.begin(), part_walls.end());
  }
  if (!rss_reset) {
    std::fprintf(stderr, "bench_e2e: cannot reset the RSS high-water mark; "
                         "peak_rss_mb includes set-up\n");
  }
  correctness_gates(ctx, checks, nullptr);

  std::printf("timed: %zu operations in %.1f s; wall min %.4f p25 %.4f "
              "median %.4f p75 %.4f max %.4f trimmed mean %.4f s; setups:",
              walls.size(), timed_s, quantile(walls, 0),
              quantile(walls, 0.25), median(walls), quantile(walls, 0.75),
              quantile(walls, 1), trimmed_mean(walls, kTrim));
  for (const double s : setups) std::printf(" %.3f", s);
  std::printf("\nfreshness: %zu samples from %s\n", freshness.size(),
              ctx.kind == Kind::kFollow ? "published slices"
                                        : "the back-to-back analysis loops");
  const Reporter report{run.metrics};
  report("wall_s", trimmed_mean(walls, kTrim), "s");
  report("cpu_s", trimmed_mean(cpus, kTrim), "s");
  report("peak_rss_mb", peak, "MiB");
  report("setup_s", median(setups), "s");
  report("freshness_ms.p50", quantile(freshness, 0.5), "ms");
  report("freshness_ms.p90", quantile(freshness, 0.9), "ms");
  run.attempted = checks.attempted;
  run.failed = checks.failed;
  return run;
}

std::uint64_t pool_counter(const sdc::obs::MetricSpec& spec) {
  return sdc::obs::catalog_counter(spec).value();
}

RunResult traced_run(Context& ctx, double parallelism) {
  RunResult run;
  Checks checks;
  const double burn_start = burn_once();
  (void)set_up(ctx, 0);

  // Untraced operations: the reference wall time the rows are held to.
  std::vector<double> walls;
  std::vector<ReplayOutcome> replays;
  const std::uint64_t tasks0 = pool_counter(sdc::obs::metric::kPoolTasks);
  const std::uint64_t help0 =
      pool_counter(sdc::obs::metric::kPoolHelpWhileWait);
  double phase = now_s();
  while (walls.size() < 2 || now_s() - phase < 0.4 * ctx.options.seconds) {
    walls.push_back(timed_op(ctx, checks).wall_s);
  }
  const double ops = static_cast<double>(walls.size());
  const double tasks_per_op =
      static_cast<double>(pool_counter(sdc::obs::metric::kPoolTasks) - tasks0) /
      ops;
  const double help_per_op =
      static_cast<double>(
          pool_counter(sdc::obs::metric::kPoolHelpWhileWait) - help0) /
      ops;
  const double wall = trimmed_mean(walls, kTrim);

  // Traced operations.  Batch rows: the decomposed pipeline over the
  // workload's corpora (follow_replay: over the drained live directory).
  // Follow rows: replays of the workload's (largest) corpus.
  std::vector<LayerSample> layers;
  double traced_total = 0;
  const auto batch_pass = [&ctx, &checks] {
    LayerSample sum;
    std::vector<fs::path> dirs;
    if (ctx.kind == Kind::kFleet) {
      dirs = ctx.corpora;
    } else {
      dirs.push_back(ctx.kind == Kind::kFollow ? ctx.live : ctx.corpus);
    }
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      const LayerSample one =
          analyze_traced(dirs[i], ctx.threads, ctx.out / "traced.json");
      const std::uint64_t expected =
          ctx.kind == Kind::kFleet ? ctx.warm.part_hashes.at(i) : ctx.warm.hash;
      checks.expect(one.hash == expected,
                    "decomposed pipeline output differs from the entry "
                    "point's");
      sum += one;
    }
    return sum;
  };
  phase = now_s();
  if (ctx.kind == Kind::kFollow) {
    std::vector<double> totals;
    while (replays.size() < 2 || now_s() - phase < 0.4 * ctx.options.seconds) {
      ReplayOutcome outcome;
      (void)timed_op(ctx, checks, nullptr, &outcome);
      totals.push_back(outcome.wall_s);
      replays.push_back(std::move(outcome));
    }
    traced_total = median(totals);
    for (int i = 0; i < 3; ++i) layers.push_back(batch_pass());
  } else {
    std::vector<double> totals;
    while (layers.size() < 3 || now_s() - phase < 0.4 * ctx.options.seconds) {
      layers.push_back(batch_pass());
      totals.push_back(layers.back().total_s);
    }
    traced_total = median(totals);
    ReplayOutcome outcome = ctx.replay_into_fresh(ctx.replay_source());
    checks.expect(outcome.drained_hash == ctx.replay_reference() &&
                      outcome.events_late_dropped == 0,
                  "drained follow snapshot differs from batch analyze");
    replays.push_back(std::move(outcome));
  }

  std::vector<double> standalone;
  correctness_gates(ctx, checks, &standalone);
  const double burn_end = burn_once();

  const auto layer_median = [&layers](double LayerSample::*field) {
    std::vector<double> values;
    for (const LayerSample& layer : layers) values.push_back(layer.*field);
    return median(values);
  };
  const LayerSample& counts = layers.back();
  const auto slice_quantile = [&replays](double SliceStages::*field,
                                         double q) {
    std::vector<double> values;
    for (const ReplayOutcome& r : replays) {
      for (const SliceStages& s : r.stages) values.push_back(s.*field);
    }
    return quantile(values, q);
  };
  const auto replay_median = [&replays](double ReplayOutcome::*field) {
    std::vector<double> values;
    for (const ReplayOutcome& r : replays) values.push_back(r.*field);
    return median(values);
  };
  const ReplayOutcome& last_replay = replays.back();

  const double open = layer_median(&LayerSample::open_s);
  const double mine = layer_median(&LayerSample::mine_s);
  const double group = layer_median(&LayerSample::group_s);
  const double finalize = layer_median(&LayerSample::finalize_s);
  const double render = layer_median(&LayerSample::render_s);
  const double write = layer_median(&LayerSample::write_s);
  const double teardown = layer_median(&LayerSample::teardown_s);
  const double plan = layer_median(&LayerSample::plan_s);
  const double busy = layer_median(&LayerSample::chunk_busy_s);
  const double chunk_wall = layer_median(&LayerSample::chunk_wall_s);
  const double stitch = layer_median(&LayerSample::stitch_s);
  const double append_s = replay_median(&ReplayOutcome::append_s);
  const double poll_s = replay_median(&ReplayOutcome::poll_s);
  const double snapshot_s = replay_median(&ReplayOutcome::snapshot_s);
  const double render_follow_s = replay_median(&ReplayOutcome::render_s);
  const double publish_s = replay_median(&ReplayOutcome::publish_s);
  const double drain_s = replay_median(&ReplayOutcome::drain_s);

  // The rows that make up the workload's operation.
  const double rows =
      ctx.kind == Kind::kFollow
          ? poll_s + snapshot_s + render_follow_s + publish_s + drain_s
          : open + mine + group + finalize + render + write + teardown;
  double sequential = 0;
  for (const double t : standalone) sequential += t;
  const double largest =
      standalone.empty() ? 0 : *std::max_element(standalone.begin(),
                                                 standalone.end());
  const double speedup = sequential / wall;

  const Reporter report{run.metrics};
  report("logging.open_s", open, "s");
  report("logging.files", static_cast<double>(counts.files), "count");
  report("logging.bytes", static_cast<double>(counts.bytes), "bytes");
  report("miner.plan_s", plan, "s");
  report("miner.chunk_busy_s", busy, "s");
  report("miner.chunk_wall_s", chunk_wall, "s");
  report("miner.stitch_s", stitch, "s");
  report("miner.mine_s", mine, "s");
  report("miner.merge_s", mine - plan - chunk_wall - stitch, "s");
  report("miner.lines_per_busy_s", static_cast<double>(counts.lines) / busy,
         "lines/s");
  report("miner.streams", static_cast<double>(counts.streams), "count");
  report("miner.chunks", static_cast<double>(counts.chunks), "count");
  report("miner.events", static_cast<double>(counts.events), "count");
  report("grouping.group_s", group, "s");
  report("grouping.unattributed_ratio",
         static_cast<double>(counts.events_unattributed) /
             static_cast<double>(std::max<std::size_t>(1, counts.events)),
         "ratio");
  report("finalize.finalize_s", finalize, "s");
  report("export.render_s", render, "s");
  report("export.json_bytes", static_cast<double>(counts.json_bytes), "bytes");
  report("export.write_s", write, "s");
  report("teardown_s", teardown, "s");
  report("follow.append_s", append_s, "s");
  report("follow.poll_s", poll_s, "s");
  report("follow.snapshot_s", snapshot_s, "s");
  report("follow.render_s", render_follow_s, "s");
  report("follow.publish_s", publish_s, "s");
  report("follow.drain_s", drain_s, "s");
  report("unattributed_s", wall - rows, "s");
  report("trace_overhead_s", traced_total - wall, "s");
  report("traced_total_s", traced_total, "s");
  report("fleet.sequential_s", sequential, "s");
  report("fleet.speedup", speedup, "x");
  report("host.parallelism", parallelism, "x");
  report("fleet.speedup_per_core", speedup / parallelism, "x");
  report("fleet.straggler_share", largest / sequential, "ratio");
  report("pool.tasks", tasks_per_op, "count");
  report("pool.help_while_wait", help_per_op, "count");
  report("follow.poll_ms.p50", slice_quantile(&SliceStages::poll_ms, 0.5),
         "ms");
  report("follow.poll_ms.p90", slice_quantile(&SliceStages::poll_ms, 0.9),
         "ms");
  report("follow.snapshot_ms.p50",
         slice_quantile(&SliceStages::snapshot_ms, 0.5), "ms");
  report("follow.snapshot_ms.p90",
         slice_quantile(&SliceStages::snapshot_ms, 0.9), "ms");
  report("follow.render_ms.p50", slice_quantile(&SliceStages::render_ms, 0.5),
         "ms");
  report("follow.publish_ms.p50",
         slice_quantile(&SliceStages::publish_ms, 0.5), "ms");
  report("follow.lines_fed", static_cast<double>(last_replay.lines_fed),
         "count");
  report("follow.apps_resident.max",
         static_cast<double>(last_replay.apps_resident_max), "count");
  report("follow.apps_retired", static_cast<double>(last_replay.apps_retired),
         "count");
  report("follow.events_late_dropped",
         static_cast<double>(last_replay.events_late_dropped), "count");
  report("host.burn_s", (burn_start + burn_end) / 2, "s");

  std::printf("traced: untraced wall %.4f s over %zu ops, traced total %.4f s "
              "over %zu passes, %zu replays\n",
              wall, walls.size(), traced_total, layers.size(), replays.size());
  run.attempted = checks.attempted;
  run.failed = checks.failed;
  return run;
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "e1_analyze" || name == "rm_heavy" ||
         name == "fleet_skewed" || name == "follow_replay";
}

RunResult run_workload(const RunOptions& options) {
  // Pool activity lands in the obs registry, as under `follow --serve`.
  sdc::obs::attach_thread_pool_metrics();
  Context ctx = make_context(options);
  const double parallelism = measure_parallelism(load_threads());
  print_header(ctx, parallelism);
  return options.trace ? traced_run(ctx, parallelism) : untraced_run(ctx);
}

}  // namespace bench
