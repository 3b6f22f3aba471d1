#include "corpora.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/sim_time.hpp"
#include "harness/scenario.hpp"
#include "logging/log_bundle.hpp"
#include "logging/timestamp.hpp"
#include "trace/submission_trace.hpp"
#include "workloads/tpch.hpp"

namespace bench {
namespace fs = std::filesystem;

void write_tpch_corpus(const fs::path& dir, int jobs, std::uint64_t seed) {
  using namespace sdc;
  harness::ScenarioConfig scenario;
  scenario.seed = seed;
  trace::TraceConfig trace_config;
  trace_config.count = jobs;
  trace_config.seed = seed + 1;
  for (const auto& submission : trace::generate_trace(trace_config)) {
    harness::SparkSubmissionPlan plan;
    plan.at = submission.at;
    plan.app = workloads::make_tpch_query(
        1 + submission.workload_index % workloads::kTpchQueryCount, 2048, 4);
    scenario.spark_jobs.push_back(std::move(plan));
  }
  const harness::ScenarioResult result = harness::run_scenario(scenario);
  if (result.hit_time_cap) throw std::runtime_error("simulation hit its cap");
  result.logs.write_to_directory(dir);

  std::ofstream truth(truth_path(dir));
  char buf[64];
  for (const spark::JobRecord& job : result.jobs) {
    double total_ms = -1;
    if (job.first_task_at != kNoTime && job.submitted_at != kNoTime) {
      total_ms = static_cast<double>(job.first_task_at - job.submitted_at) /
                 1000.0;
    }
    std::snprintf(buf, sizeof(buf), "%.3f", total_ms);
    truth << job.app.str() << '\t' << buf << '\n';
  }
  if (!truth) throw std::runtime_error("cannot write ground truth");
}

namespace {

struct SplitMix {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  int between(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
  }
};

std::string app_id(int app) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "application_1499100000000_%04d", app);
  return buf;
}

std::string container_id(int app, int container) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "container_1499100000000_%04d_01_%06d", app,
                container);
  return buf;
}

}  // namespace

void write_rm_heavy_corpus(const fs::path& dir, std::size_t total_lines,
                           std::uint64_t seed) {
  using sdc::logging::format_epoch_ms;
  SplitMix rng{seed};
  const std::int64_t epoch =
      1'499'100'000'000 + static_cast<std::int64_t>(seed % 1000) * 60'000;
  sdc::logging::LogBundle bundle;
  const auto stamp = [epoch](std::int64_t offset_ms) {
    return format_epoch_ms(epoch + offset_ms);
  };
  const std::size_t rm_quota = total_lines * 7 / 10;
  const std::size_t nm_quota = total_lines * 2 / 10;
  const std::size_t instance_quota = total_lines - rm_quota - nm_quota;

  // RM: per-app state machine transitions plus scheduler noise.
  std::size_t emitted = 0;
  std::int64_t t = 0;
  const std::string rm_app =
      "org.apache.hadoop.yarn.server.resourcemanager.rmapp.RMAppImpl";
  const std::string rm_container =
      "org.apache.hadoop.yarn.server.resourcemanager.rmcontainer."
      "RMContainerImpl";
  const std::string rm_client =
      "org.apache.hadoop.yarn.server.resourcemanager.ClientRMService";
  for (int app = 1; emitted < rm_quota; ++app) {
    bundle.append("rm.log", stamp(t) + " INFO  " + rm_app + ": " + app_id(app) +
                                " State change from NEW_SAVING to SUBMITTED "
                                "on event = APP_NEW_SAVED");
    bundle.append("rm.log", stamp(t + 40) + " INFO  " + rm_app + ": " +
                                app_id(app) +
                                " State change from SUBMITTED to ACCEPTED on "
                                "event = APP_ACCEPTED");
    emitted += 2;
    for (int c = 1; c <= 3 && emitted < rm_quota; ++c) {
      const std::string cid = container_id(app, c);
      bundle.append("rm.log", stamp(t + 100 + c) + " INFO  " + rm_container +
                                  ": " + cid +
                                  " Container Transitioned from NEW to "
                                  "ALLOCATED");
      bundle.append("rm.log", stamp(t + 200 + c) + " INFO  " + rm_container +
                                  ": " + cid +
                                  " Container Transitioned from ALLOCATED to "
                                  "ACQUIRED");
      emitted += 2;
    }
    // Scheduler noise dominates real RM logs: parseable, non-Table-I.
    const int noise = rng.between(20, 28);
    for (int k = 0; k < noise && emitted < rm_quota; ++k, ++emitted) {
      bundle.append("rm.log", stamp(t + 300 + k) + " INFO  " + rm_client +
                                  ": Allocated new applicationId: " +
                                  std::to_string(app));
    }
    t += 400;
  }

  // NMs: container lifecycle transitions plus localization noise.
  const std::string nm_container =
      "org.apache.hadoop.yarn.server.nodemanager.containermanager.container."
      "ContainerImpl";
  const std::string nm_local =
      "org.apache.hadoop.yarn.server.nodemanager.containermanager."
      "localizer.ResourceLocalizationService";
  emitted = 0;
  t = 0;
  for (int app = 1; emitted < nm_quota; ++app) {
    for (int c = 1; c <= 3 && emitted < nm_quota; ++c) {
      const std::string node = "nm-node0" + std::to_string((app + c) % 8 + 1) +
                               ".cluster.log";
      const std::string cid = container_id(app, c);
      bundle.append(node, stamp(t) + " INFO  " + nm_container + ": Container " +
                              cid + " transitioned from NEW to LOCALIZING");
      bundle.append(node, stamp(t + 150) + " INFO  " + nm_container +
                              ": Container " + cid +
                              " transitioned from LOCALIZING to RUNNING");
      emitted += 2;
      const int noise = rng.between(4, 8);
      for (int k = 0; k < noise && emitted < nm_quota; ++k, ++emitted) {
        bundle.append(node, stamp(t + 50 + k) + " INFO  " + nm_local +
                                ": Downloading public resource " +
                                std::to_string(k));
      }
    }
    t += 500;
  }

  // Driver + executor instance logs: a few dozen instance families whose
  // per-file chatter grows with the corpus, so per-file cost stays small.
  const std::string am = "org.apache.spark.deploy.yarn.ApplicationMaster";
  const std::string ctx = "org.apache.spark.SparkContext";
  const std::string backend =
      "org.apache.spark.executor.CoarseGrainedExecutorBackend";
  constexpr int kInstanceApps = 24;
  emitted = 0;
  for (int app = 1; app <= kInstanceApps && emitted < instance_quota; ++app) {
    const std::size_t app_quota =
        std::min(instance_quota - emitted,
                 (instance_quota + kInstanceApps - 1) / kInstanceApps);
    const std::size_t app_end = emitted + app_quota;
    t = 1000 * app;
    const std::string driver = "driver-" + app_id(app) + ".log";
    bundle.append(driver, stamp(t) + " INFO  " + am +
                              ": ApplicationAttemptId: appattempt_"
                              "1499100000000_" +
                              std::to_string(app) + "_000001");
    bundle.append(driver, stamp(t + 100) + " INFO  " + am +
                              ": Registering the ApplicationMaster");
    emitted += 2;
    for (std::size_t k = 0; k < app_quota * 6 / 10 && emitted < app_end;
         ++k, ++emitted) {
      bundle.append(driver, stamp(t + 200 + static_cast<std::int64_t>(k)) +
                                " INFO  " + ctx + ": Submitted stage " +
                                std::to_string(k));
    }
    for (int c = 2; c <= 3 && emitted < app_end; ++c) {
      const std::string exec = "executor-" + container_id(app, c) + ".log";
      bundle.append(exec, stamp(t + 300) + " INFO  " + backend +
                              ": Connecting to driver for container " +
                              container_id(app, c));
      bundle.append(exec, stamp(t + 900) + " INFO  " + backend +
                              ": Got assigned task 0");
      emitted += 2;
      for (std::size_t k = 0; emitted < app_end && k < app_quota / 5;
           ++k, ++emitted) {
        bundle.append(exec, stamp(t + 1000 + static_cast<std::int64_t>(k)) +
                                " INFO  " + backend + ": Finished task " +
                                std::to_string(k));
      }
    }
  }
  bundle.write_to_directory(dir);
}

std::vector<int> fleet_job_counts(std::size_t corpora, int largest_jobs) {
  std::vector<int> counts;
  for (std::size_t i = 0; i < corpora; ++i) {
    const double share = std::pow(static_cast<double>(i + 1), -0.9);
    counts.push_back(std::max(
        2, static_cast<int>(std::lround(largest_jobs * share))));
  }
  return counts;
}

fs::path truth_path(const fs::path& dir) {
  return dir.parent_path() / (dir.filename().string() + ".truth");
}

std::vector<TruthRow> read_truth(const fs::path& dir) {
  std::ifstream in(truth_path(dir));
  if (!in) throw std::runtime_error("missing ground truth for " + dir.string());
  std::vector<TruthRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    rows.push_back({line.substr(0, tab), std::stod(line.substr(tab + 1))});
  }
  return rows;
}

}  // namespace bench
