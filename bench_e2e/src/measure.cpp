#include "measure.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace bench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

bool run_in_child(const std::function<void()>& body) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    int code = 0;
    try {
      body();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: generator failed: %s\n", e.what());
      code = 1;
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

void sync_filesystem(const std::filesystem::path& dir) {
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw std::runtime_error("cannot open " + dir.string());
  const int rc = syncfs(fd);
  close(fd);
  if (rc != 0) throw std::runtime_error("syncfs failed on " + dir.string());
}

std::string filesystem_type(const std::filesystem::path& dir) {
  struct statfs info{};
  if (statfs(dir.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext2/3/4";
    case 0x01021994UL: return "tmpfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x794C7630UL: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(info.f_type));
      return buf;
    }
  }
}

namespace {
volatile std::uint64_t g_burn_sink = 0;

void burn_work() {
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_burn_sink = g_burn_sink + x;
}
}  // namespace

double burn_once() {
  const double start = now_s();
  burn_work();
  return now_s() - start;
}

double measure_parallelism(std::size_t threads) {
  // Alternate one burn alone with `threads` concurrent burns; the host's
  // share of CPUs comes and goes in bursts, so take the median round.
  std::vector<double> ratios;
  for (int round = 0; round < 5; ++round) {
    const double alone = burn_once();
    const double start = now_s();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(burn_work);
    for (std::thread& worker : workers) worker.join();
    ratios.push_back(static_cast<double>(threads) * alone / (now_s() - start));
  }
  return median(ratios);
}

std::size_t load_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

void move_to_next_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int count = CPU_COUNT(&allowed);
  if (count < 2) return;
  static int turn = 0;
  int skip = turn++ % count;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
    return;
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double trimmed_mean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto cut = std::min(
      static_cast<std::size_t>(trim * static_cast<double>(values.size())),
      (values.size() - 1) / 2);
  const auto first = values.begin() + static_cast<std::ptrdiff_t>(cut);
  const auto last = values.end() - static_cast<std::ptrdiff_t>(cut);
  return std::accumulate(first, last, 0.0) /
         static_cast<double>(last - first);
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

void write_file(const std::filesystem::path& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path.string());
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

}  // namespace bench
