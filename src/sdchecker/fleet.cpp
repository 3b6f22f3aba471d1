#include "sdchecker/fleet.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "obs/json_parse.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {
namespace {

struct FleetCounters {
  obs::Counter& corpora;
  obs::Counter& failed;
  static const FleetCounters& get() {
    static const FleetCounters counters{
        obs::catalog_counter(obs::metric::kFleetCorpora),
        obs::catalog_counter(obs::metric::kFleetCorporaFailed)};
    return counters;
  }
};

/// Renders one finished corpus into its slot, on the thread that
/// finished it, so only the rendered document outlives the run.
void render_corpus(CorpusResult& out, std::exception_ptr error,
                   const AnalysisResult& analysis) {
  const FleetCounters& counters = FleetCounters::get();
  try {
    if (error) std::rethrow_exception(error);
    out.apps = analysis.timelines.size();
    out.events = analysis.events_total;
    out.lines = analysis.lines_total;
    out.diagnostics = analysis.diagnostics.size();
    out.analysis_json = analysis_json(analysis);
    out.components = component_histograms(analysis);
    counters.corpora.add(1);
  } catch (const std::exception& e) {
    CorpusResult failed;
    failed.name = std::move(out.name);
    failed.dir = std::move(out.dir);
    failed.error = e.what();
    out = std::move(failed);
    counters.failed.add(1);
  }
}

void write_components_json(json::Writer& w,
                           const std::vector<ComponentHistogram>& components) {
  w.begin_array();
  for (const ComponentHistogram& component : components) {
    w.begin_object();
    w.field("metric", component.metric);
    w.field("count", static_cast<std::int64_t>(component.count));
    w.field("sum_ms", component.sum_ms);
    w.key("buckets").begin_array();
    for (const std::uint64_t bucket : component.buckets) {
      w.value(static_cast<std::int64_t>(bucket));
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
}

}  // namespace

std::vector<std::filesystem::path> discover_corpora(
    const std::filesystem::path& root) {
  if (!std::filesystem::is_directory(root)) {
    throw std::runtime_error("fleet: not a directory: " + root.string());
  }
  std::vector<std::filesystem::path> out;
  for (const auto& entry : std::filesystem::directory_iterator(root)) {
    if (entry.is_directory()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

FleetResult analyze_fleet(const std::vector<std::filesystem::path>& corpora,
                          const FleetOptions& options) {
  const auto total_span = obs::Tracer::global().span("fleet.total");
  FleetResult result;
  result.corpora.resize(corpora.size());
  {
    ThreadPool pool(options.threads);
    result.threads = pool.thread_count();
    result.shards_per_corpus = analysis_shards(result.threads);
    const MinerOptions mine_options{.shard_grain = options.shard_grain,
                                    .skew_budget_ms = options.skew_budget_ms};
    for (std::size_t i = 0; i < corpora.size(); ++i) {
      CorpusResult& out = result.corpora[i];
      out.name = corpora[i].filename().string();
      out.dir = corpora[i];
      start_corpus(pool, corpora[i], nullptr, mine_options,
                   [&out](std::exception_ptr error, AnalysisResult analysis) {
                     render_corpus(out, std::move(error), analysis);
                   });
    }
    pool.wait_idle();
  }
  // Fleet-wide distributions: per-component sums over every successful
  // corpus (components share one spec order, but match by name so a
  // partially-failed fleet still sums correctly).
  for (const CorpusResult& corpus : result.corpora) {
    if (!corpus.error.empty()) continue;
    if (result.components.empty()) {
      result.components = corpus.components;
      continue;
    }
    for (ComponentHistogram& total : result.components) {
      const auto match = std::find_if(
          corpus.components.begin(), corpus.components.end(),
          [&](const ComponentHistogram& h) { return h.metric == total.metric; });
      if (match == corpus.components.end()) continue;
      total.count += match->count;
      total.sum_ms += match->sum_ms;
      const std::size_t n = std::min(total.buckets.size(),
                                     match->buckets.size());
      for (std::size_t i = 0; i < n; ++i) {
        total.buckets[i] += match->buckets[i];
      }
    }
  }
  return result;
}

FleetResult analyze_fleet(const std::filesystem::path& root,
                          const FleetOptions& options) {
  return analyze_fleet(discover_corpora(root), options);
}

std::size_t FleetResult::failed() const {
  std::size_t count = 0;
  for (const CorpusResult& corpus : corpora) {
    if (!corpus.error.empty()) ++count;
  }
  return count;
}

std::string FleetResult::summary_json() const {
  std::size_t apps = 0;
  std::size_t events = 0;
  std::size_t lines = 0;
  std::size_t diagnostics = 0;
  for (const CorpusResult& corpus : corpora) {
    apps += corpus.apps;
    events += corpus.events;
    lines += corpus.lines;
    diagnostics += corpus.diagnostics;
  }

  json::Writer w;
  w.begin_object();
  w.key("fleet").begin_object();
  w.field("corpora", static_cast<std::int64_t>(corpora.size()));
  w.field("failed", static_cast<std::int64_t>(failed()));
  w.field("threads", static_cast<std::int64_t>(threads));
  w.field("shards_per_corpus", static_cast<std::int64_t>(shards_per_corpus));
  w.field("apps", static_cast<std::int64_t>(apps));
  w.field("events", static_cast<std::int64_t>(events));
  w.field("lines", static_cast<std::int64_t>(lines));
  w.field("diagnostics", static_cast<std::int64_t>(diagnostics));
  w.end_object();
  w.key("bucket_edges_ms").begin_array();
  for (const double edge : component_bucket_edges_ms()) w.value(edge);
  w.end_array();
  w.key("components");
  write_components_json(w, components);
  w.key("corpora").begin_array();
  for (const CorpusResult& corpus : corpora) {
    w.begin_object();
    w.field("name", corpus.name);
    w.field("dir", corpus.dir.string());
    if (!corpus.error.empty()) w.field("error", corpus.error);
    w.field("apps", static_cast<std::int64_t>(corpus.apps));
    w.field("events", static_cast<std::int64_t>(corpus.events));
    w.field("lines", static_cast<std::int64_t>(corpus.lines));
    w.field("diagnostics", static_cast<std::int64_t>(corpus.diagnostics));
    w.key("components");
    write_components_json(w, corpus.components);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::optional<std::vector<ComponentHistogram>> load_fleet_baseline(
    const std::filesystem::path& file, std::string* error) {
  const auto set_error = [error](std::string what) {
    if (error != nullptr) *error = std::move(what);
  };
  std::ifstream in(file);
  if (!in) {
    set_error("cannot read " + file.string());
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  obs::JsonValue doc;
  std::string parse_error;
  if (!obs::parse_json(buffer.str(), doc, parse_error)) {
    set_error(file.string() + ": " + parse_error);
    return std::nullopt;
  }
  const obs::JsonObject* root = doc.object();
  const obs::JsonValue* components =
      root != nullptr ? obs::json_find(*root, "components") : nullptr;
  const obs::JsonArray* array =
      components != nullptr ? components->array() : nullptr;
  if (array == nullptr) {
    set_error(file.string() + ": no \"components\" array");
    return std::nullopt;
  }

  std::vector<ComponentHistogram> out;
  for (const obs::JsonValue& entry : *array) {
    const obs::JsonObject* object = entry.object();
    if (object == nullptr) {
      set_error(file.string() + ": component entry is not an object");
      return std::nullopt;
    }
    ComponentHistogram hist;
    const obs::JsonValue* metric = obs::json_find(*object, "metric");
    const obs::JsonValue* count = obs::json_find(*object, "count");
    const obs::JsonValue* sum_ms = obs::json_find(*object, "sum_ms");
    const obs::JsonValue* buckets = obs::json_find(*object, "buckets");
    if (metric == nullptr || metric->string() == nullptr ||
        count == nullptr || count->number() == nullptr ||
        sum_ms == nullptr || sum_ms->number() == nullptr ||
        buckets == nullptr || buckets->array() == nullptr) {
      set_error(file.string() + ": malformed component entry");
      return std::nullopt;
    }
    hist.metric = *metric->string();
    hist.count = static_cast<std::uint64_t>(*count->number());
    hist.sum_ms = *sum_ms->number();
    for (const obs::JsonValue& bucket : *buckets->array()) {
      if (bucket.number() == nullptr) {
        set_error(file.string() + ": non-numeric bucket count");
        return std::nullopt;
      }
      hist.buckets.push_back(static_cast<std::uint64_t>(*bucket.number()));
    }
    out.push_back(std::move(hist));
  }
  return out;
}

}  // namespace sdc::checker
