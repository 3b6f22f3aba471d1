#include "pipeline.hpp"

#include <memory>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"
#include "logging/log_view.hpp"
#include "measure.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/fleet.hpp"
#include "sdchecker/sdchecker.hpp"

namespace bench {
namespace fs = std::filesystem;
using namespace sdc;
using namespace sdc::checker;

OpSample analyze_once(const fs::path& dir, std::size_t threads,
                      const fs::path& out) {
  OpSample sample;
  std::string json;
  const double cpu_start = cpu_s();
  const double start = now_s();
  {
    const AnalysisResult result =
        SdChecker({.threads = threads}).analyze_directory(dir);
    json = analysis_json(result);
    write_file(out, json);
  }
  sample.wall_s = now_s() - start;
  sample.cpu_s = cpu_s() - cpu_start;
  sample.hash = fnv1a(json);
  return sample;
}

OpSample fleet_once(const std::vector<fs::path>& corpora, std::size_t threads,
                    const fs::path& out_dir) {
  OpSample sample;
  std::vector<std::string> documents;
  const double cpu_start = cpu_s();
  const double start = now_s();
  {
    FleetOptions options;
    options.threads = threads;
    FleetResult fleet = analyze_fleet(corpora, options);
    for (CorpusResult& corpus : fleet.corpora) {
      write_file(out_dir / (corpus.name + ".json"), corpus.analysis_json);
      documents.push_back(std::move(corpus.analysis_json));
    }
    write_file(out_dir / "fleet.json", fleet.summary_json());
  }
  sample.wall_s = now_s() - start;
  sample.cpu_s = cpu_s() - cpu_start;
  std::string hashes;
  for (const std::string& document : documents) {
    sample.part_hashes.push_back(fnv1a(document));
    hashes += std::to_string(sample.part_hashes.back()) + ',';
  }
  sample.hash = fnv1a(hashes);
  return sample;
}

LayerSample& LayerSample::operator+=(const LayerSample& other) {
  open_s += other.open_s;
  mine_s += other.mine_s;
  group_s += other.group_s;
  finalize_s += other.finalize_s;
  render_s += other.render_s;
  write_s += other.write_s;
  teardown_s += other.teardown_s;
  total_s += other.total_s;
  plan_s += other.plan_s;
  chunk_busy_s += other.chunk_busy_s;
  chunk_wall_s += other.chunk_wall_s;
  stitch_s += other.stitch_s;
  files += other.files;
  bytes += other.bytes;
  lines += other.lines;
  streams += other.streams;
  chunks += other.chunks;
  events += other.events;
  events_unattributed += other.events_unattributed;
  json_bytes += other.json_bytes;
  return *this;
}

namespace {

/// Drives the public MinePlan protocol over `view` the way LogMiner::mine
/// does, timing plan construction, every chunk and the stitch pass.
void mine_plan_breakdown(const logging::BundleView& view,
                         const MinerOptions& options, LayerSample& sample) {
  double t = now_s();
  MinePlan plan(view, options);
  sample.plan_s = now_s() - t;
  sample.streams = plan.stream_count();
  sample.chunks = plan.chunk_count();

  std::vector<double> busy(plan.chunk_count(), 0.0);
  const auto run = [&](std::size_t c) {
    const double begin = now_s();
    plan.run_chunk(c);
    busy[c] = now_s() - begin;
  };
  t = now_s();
  if (options.threads > 1 && plan.chunk_count() > 1) {
    ThreadPool pool(options.threads);
    parallel_for(pool, plan.chunk_count(), run);
  } else {
    for (std::size_t c = 0; c < plan.chunk_count(); ++c) run(c);
  }
  sample.chunk_wall_s = now_s() - t;
  for (const double b : busy) sample.chunk_busy_s += b;

  t = now_s();
  for (std::size_t s = 0; s < plan.stream_count(); ++s) {
    (void)plan.stitch(s);
  }
  sample.stitch_s = now_s() - t;
}

}  // namespace

LayerSample analyze_traced(const fs::path& dir, std::size_t threads,
                           const fs::path& out) {
  LayerSample sample;
  const AnalyzeOptions analyze{.threads = threads};
  const MinerOptions miner = analyze.miner_options();
  std::string json;
  double breakdown_s = 0;

  const double start = now_s();
  double t = start;
  const auto lap = [&t] {
    const double now = now_s();
    const double elapsed = now - t;
    t = now;
    return elapsed;
  };
  {
    std::vector<logging::Diagnostic> io;
    auto view = std::make_unique<logging::BundleView>(
        logging::BundleView::read_from_directory(dir, &io));
    sample.open_s = lap();
    sample.files = view->stream_count();
    sample.bytes = view->total_bytes();
    sample.lines = view->total_lines();

    mine_plan_breakdown(*view, miner, sample);
    breakdown_s = lap();

    // LogMiner::mine_directory: mine the view, then put the read errors
    // first.
    MineResult mined = LogMiner(miner).mine(*view);
    for (const logging::Diagnostic& diagnostic : io) {
      mined.diag_counts.add(diagnostic);
    }
    mined.diagnostics.insert(mined.diagnostics.begin(),
                             std::make_move_iterator(io.begin()),
                             std::make_move_iterator(io.end()));
    sample.mine_s = lap();
    sample.events = mined.events.size();

    view.reset();
    sample.teardown_s = lap();

    // SdChecker::analyze_mined with one analysis shard.
    GroupResult grouped = group_events(mined.events);
    sample.group_s = lap();
    sample.events_unattributed = grouped.unattributed;

    auto result = std::make_unique<AnalysisResult>(
        finalize_analysis(std::move(grouped.apps)));
    result->events_unattributed = grouped.unattributed;
    result->lines_total = mined.lines_total;
    result->lines_unparsed = mined.lines_unparsed;
    result->events_total = mined.events.size();
    result->diagnostics = std::move(mined.diagnostics);
    result->diag_counts = mined.diag_counts;
    logging::sort_diagnostics(result->diagnostics);
    sample.finalize_s = lap();

    json = analysis_json(*result);
    sample.render_s = lap();
    write_file(out, json);
    sample.write_s = lap();

    result.reset();
    mined = MineResult();
    grouped = GroupResult();
  }
  sample.teardown_s += lap();
  sample.total_s = t - start - breakdown_s;
  sample.json_bytes = json.size();
  sample.hash = fnv1a(json);
  return sample;
}

}  // namespace bench
