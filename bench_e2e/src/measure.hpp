// Clocks, resource probes and small statistics shared by every workload.
//
// Everything here is measured from outside the library: wall time from
// std::chrono::steady_clock, CPU time from getrusage (all threads of the
// process), memory from the kernel's resident high-water mark, which
// `reset_peak_rss` rewinds so a timed phase reports only its own peak.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace bench {

/// Seconds on the monotonic clock (comparable across processes).
[[nodiscard]] double now_s();
/// User + system CPU seconds consumed so far by every thread.
[[nodiscard]] double cpu_s();

/// Rewinds the resident-set high-water mark to the current RSS
/// (/proc/self/clear_refs "5").  Returns false when the kernel refuses.
bool reset_peak_rss();
/// Resident-set high-water mark in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Runs `body` in a forked child and waits for it.  The child's memory
/// never shows in this process's RSS, which keeps corpus generators out
/// of the measured footprint.  Returns false if the child failed.
bool run_in_child(const std::function<void()>& body);

/// Flushes every dirty page of the filesystem holding `dir` (syncfs), so
/// writeback of a freshly generated corpus cannot land inside a timed
/// phase.
void sync_filesystem(const std::filesystem::path& dir);
/// Human name of the filesystem type holding `dir` ("ext4", "tmpfs"...).
[[nodiscard]] std::string filesystem_type(const std::filesystem::path& dir);

/// One fixed CPU-bound task (integer mixing, no memory traffic); its
/// duration tracks how fast the host is right now.
[[nodiscard]] double burn_once();
/// Effective parallelism: `threads` concurrent burns against one alone,
/// as the ratio of work rates (median of five rounds).  On a quiet
/// 4-core host ~4.
[[nodiscard]] double measure_parallelism(std::size_t threads);
/// min(nproc, 4): the load the benchmark may place on the host.
[[nodiscard]] std::size_t load_threads();
/// Moves the calling thread onto the next CPU of its affinity mask, round
/// robin, then gives the whole mask back: the thread stays where it was
/// put, and threads it starts later are placed by the kernel as usual.
/// A vCPU of a shared host can run 20-30% slower than its siblings for
/// tens of seconds while a neighbour loads its physical core, and the
/// kernel leaves a lone busy thread where it is, so without this a run
/// reports the speed of whichever vCPU its thread happened to land on.
void move_to_next_cpu();

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
/// Mean after dropping the `trim` share (rounded down) of the lowest and
/// of the highest values; 0 for an empty sample.  The host's speed flips
/// between a fast and a slow state for seconds at a time, which leaves
/// the time of one operation bimodal; the median of a run then jumps
/// between the modes with the share of time spent in each, while the
/// trimmed mean moves smoothly with it and still ignores rare stalls.
[[nodiscard]] double trimmed_mean(std::vector<double> values, double trim);

/// FNV-1a, 64 bit: cheap identity for multi-megabyte JSON documents.
[[nodiscard]] std::uint64_t fnv1a(std::string_view text);

/// Writes `text` to `path`, replacing it.  Throws on failure.
void write_file(const std::filesystem::path& path, std::string_view text);
/// Reads a whole file.  Throws on failure.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

}  // namespace bench
