#include "sdchecker/follow.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <utility>

#include "common/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metric_catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/miner.hpp"

namespace sdc::checker {
namespace {

using logging::Diagnostic;
using logging::DiagnosticKind;

struct FollowCounters {
  obs::Counter& polls;
  obs::Counter& bytes;
  obs::Counter& streams;
  obs::Counter& rotations;
  obs::Counter& apps_retired;
  static const FollowCounters& get() {
    static const FollowCounters counters{
        obs::catalog_counter(obs::metric::kFollowPolls),
        obs::catalog_counter(obs::metric::kFollowBytes),
        obs::catalog_counter(obs::metric::kFollowStreams),
        obs::catalog_counter(obs::metric::kFollowRotations),
        obs::catalog_counter(obs::metric::kFollowAppsRetired)};
    return counters;
  }
};

/// Bytes of each segment's head kept for copytruncate detection.
constexpr std::size_t kHeadBytes = 64;

/// (dev, inode) folded into one map key; collisions would need two
/// filesystems mounted inside one log directory.
std::uint64_t inode_key(const struct ::stat& st) {
  return (static_cast<std::uint64_t>(st.st_dev) << 32) ^
         static_cast<std::uint64_t>(st.st_ino);
}

/// `pread` until `size` bytes or end of file; returns the bytes read.
std::size_t pread_full(int fd, char* out, std::size_t size,
                       std::uintmax_t offset) {
  std::size_t got = 0;
  while (got < size) {
    const ::ssize_t n = ::pread(fd, out + got, size - got,
                                static_cast<::off_t>(offset + got));
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return got;
}

struct ScopedFd {
  int fd;
  ~ScopedFd() { ::close(fd); }
};
struct DirCloser {
  void operator()(DIR* dir) const { ::closedir(dir); }
};

}  // namespace

FollowService::FollowService(std::filesystem::path dir, FollowOptions options)
    : dir_(std::move(dir)), options_(options), analyzer_(options.miner) {}

void FollowService::flush_partial(Tail& tail) {
  if (tail.partial.empty()) return;
  analyzer_.feed(tail.logical, tail.partial);
  tail.partial.clear();
}

bool FollowService::drain_tail(int dir_fd, Tail& tail, PollStats& stats) {
  const int fd = ::openat(dir_fd, tail.physical.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      // Renamed away between scan and open (mid-rotation race): the
      // inode resurfaces under its rotated name next poll and is read
      // from the same offset there — one handoff, no diagnostic.
      return false;
    }
    // Genuinely unreadable.  One diagnostic per stream, worded exactly
    // as the batch reader's LogView::from_file failure, never repeated.
    tail.opened = true;
    unreadable_.emplace(
        tail.physical,
        Diagnostic{DiagnosticKind::kUnreadableFile, tail.physical, 0, 1,
                   "LogView: cannot read " + (dir_ / tail.physical).string()});
    return true;
  }
  const ScopedFd close_fd{fd};
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) return true;
  // Another file took the name since the scan: same race as above.
  if (inode_key(st) != tail.key) return false;
  tail.opened = true;
  ++stats.files_read;
  const auto size = static_cast<std::uintmax_t>(st.st_size);
  bool restart = size < tail.offset;
  if (!restart && size > tail.offset && !tail.head.empty()) {
    // The file grew: make sure it is still the segment we were reading.
    // A copytruncate rewrite that outgrew the old offset between two
    // polls never shrinks in our sight; its first bytes give it away.
    // (A rewrite with identical first bytes stays undetectable.)
    char first[kHeadBytes];
    const std::size_t got = pread_full(fd, first, tail.head.size(), 0);
    restart = std::string_view(first, got) != tail.head;
  }
  if (restart) {
    // Truncated in place under us (copytruncate-style rotation): the
    // bytes we already fed are gone; restart this segment from zero.
    tail.offset = 0;
    tail.partial.clear();
    tail.head.clear();
  }
  if (size > tail.offset) {
    const std::size_t old = tail.partial.size();
    tail.partial.resize(old + static_cast<std::size_t>(size - tail.offset));
    const std::size_t got =
        pread_full(fd, tail.partial.data() + old, tail.partial.size() - old,
                   tail.offset);
    tail.partial.resize(old + got);
    if (tail.head.size() < kHeadBytes) {
      tail.head.append(tail.partial, old,
                       std::min(kHeadBytes - tail.head.size(), got));
    }
    tail.offset += got;
    stats.bytes_read += got;

    // Feed every complete line as one chunk; the remainder waits for its
    // newline.
    lines_.clear();
    std::size_t start = 0;
    while (true) {
      const std::size_t nl = tail.partial.find('\n', start);
      if (nl == std::string::npos) break;
      lines_.push_back(
          std::string_view(tail.partial).substr(start, nl - start));
      start = nl + 1;
    }
    if (!lines_.empty()) analyzer_.feed_all(tail.logical, lines_);
    stats.lines_fed += lines_.size();
    tail.partial.erase(0, start);
  }
  if (!tail.is_base) {
    // A rotated segment is frozen; its unterminated final line is a
    // whole line to the batch reader, so feed it now — before any line
    // of the newer segment that logically follows it.
    if (!tail.partial.empty()) ++stats.lines_fed;
    flush_partial(tail);
  }
  return true;
}

void FollowService::sort_order() {
  order_.clear();
  order_.reserve(tails_.size());
  for (auto& [key, tail] : tails_) order_.push_back(&tail);
  // Within a family the older (suffixed) segments drain before the live
  // base, so a handoff poll feeds the rotated remainder ahead of the
  // fresh segment's bytes — exactly the batch reassembly order.
  std::sort(order_.begin(), order_.end(), [](const Tail* a, const Tail* b) {
    if (a->logical != b->logical) return a->logical < b->logical;
    return rotation_order_less(a->physical, b->physical);
  });
}

PollStats FollowService::poll_once() {
  const auto span = obs::Tracer::global().span("follow.poll");
  const FollowCounters& counters = FollowCounters::get();
  PollStats stats;
  ++polls_;
  analyzer_.advance_tick();

  // The directory stays open through the drain: every re-check and open
  // below is relative to it.
  const std::unique_ptr<DIR, DirCloser> dir(::opendir(dir_.c_str()));
  const int dir_fd = dir ? ::dirfd(dir.get()) : -1;
  bool order_changed = false;
  {
    const auto scan_span = obs::Tracer::global().span("follow.poll.scan");
    // Pass 1: list the directory once and reconcile names against
    // inodes.  `fstatat` follows symlinks, as the batch reader does.
    while (const ::dirent* entry = dir ? ::readdir(dir.get()) : nullptr) {
      if (entry->d_type != DT_REG && entry->d_type != DT_LNK &&
          entry->d_type != DT_UNKNOWN) {
        continue;
      }
      struct ::stat st{};
      if (::fstatat(dir_fd, entry->d_name, &st, 0) != 0 ||
          !S_ISREG(st.st_mode)) {
        continue;  // vanished, or not a regular file
      }
      const std::uint64_t key = inode_key(st);
      const std::string_view name(entry->d_name);
      auto [it, inserted] = tails_.try_emplace(key);
      Tail& tail = it->second;
      tail.seen_poll = polls_;
      tail.size = static_cast<std::uintmax_t>(st.st_size);
      if (inserted) {
        tail.key = key;
        tail.physical = name;
        const auto rotation = split_rotation_suffix(name);
        tail.logical = rotation ? rotation->base : tail.physical;
        tail.is_base = !rotation;
        ++stats.new_streams;
        ++streams_seen_;
        order_changed = true;
      } else if (tail.physical != name) {
        // The inode moved to a new name: rename-based rotation handoff.
        // The logical stream identity is unchanged; remaining bytes are
        // read from the rotated name, from the same offset.
        tail.physical = name;
        tail.is_base = !split_rotation_suffix(name).has_value();
        ++stats.rotations;
        ++rotations_;
        order_changed = true;
      }
    }

    // Drop tails whose inode left the directory (rotation pruned the
    // oldest segment).  Every byte it held was already fed.  A tail the
    // scan missed (renamed mid-iteration) is re-checked by name so a
    // transient miss does not flush-and-recreate it with a reset offset.
    for (auto it = tails_.begin(); it != tails_.end();) {
      Tail& tail = it->second;
      struct ::stat st{};
      if (tail.seen_poll == polls_ ||
          (::fstatat(dir_fd, tail.physical.c_str(), &st, 0) == 0 &&
           inode_key(st) == tail.key)) {
        ++it;
        continue;
      }
      flush_partial(tail);
      it = tails_.erase(it);
      order_changed = true;
    }
    if (order_changed) sort_order();
  }

  // Pass 2: drain in rotation order.  A tail whose size has not moved
  // since its last read costs nothing — unless it was never opened (a
  // new file: readability is checked once) or it is a frozen segment
  // still holding a partial line that must be flushed now.
  {
    const auto drain_span = obs::Tracer::global().span("follow.poll.drain");
    for (Tail* tail : order_) {
      if (tail->opened && tail->size == tail->offset &&
          (tail->is_base || tail->partial.empty())) {
        continue;
      }
      drain_tail(dir_fd, *tail, stats);
    }
  }

  if (options_.retire) {
    stats.apps_retired = analyzer_.retire_terminal(options_.retire_quiet_polls);
  }
  quiescent_ = stats.bytes_read == 0 && stats.new_streams == 0 &&
               stats.rotations == 0;
  bytes_read_ += stats.bytes_read;

  counters.polls.add(1);
  counters.bytes.add(stats.bytes_read);
  counters.streams.add(stats.new_streams);
  counters.rotations.add(stats.rotations);
  counters.apps_retired.add(stats.apps_retired);
  return stats;
}

void FollowService::finish() {
  // The live segments' unterminated last lines: the batch reader counts
  // them as lines (no trailing newline), so the drained stream must too.
  for (Tail* tail : order_) flush_partial(*tail);
  finished_ = true;
}

AnalysisResult FollowService::snapshot() const {
  AnalysisResult result = analyzer_.snapshot();

  // Synthesize the diagnostics the batch directory reader would emit on
  // the files the last poll reconciled.  Rotated families reassembled by
  // the tailer correspond 1:1 to batch `group_rotations` reassemblies.
  // `order_` groups each family with its suffixed members first, so a
  // family starts at a suffixed tail and runs while the logical name
  // holds; a lone base is no family.
  for (std::size_t i = 0; i < order_.size();) {
    if (order_[i]->is_base) {
      ++i;
      continue;
    }
    const std::string& base = order_[i]->logical;
    std::size_t members = 0;
    bool suffixed = false;
    std::string segment_list;
    for (; i < order_.size() && order_[i]->logical == base; ++i) {
      const std::string& name = order_[i]->physical;
      if (unreadable_.contains(name)) continue;  // excluded from the view
      if (!segment_list.empty()) segment_list += ", ";
      segment_list += name;
      ++members;
      suffixed = suffixed || !order_[i]->is_base;
    }
    if (!suffixed) continue;
    result.diagnostics.push_back(
        Diagnostic{DiagnosticKind::kRotationGap, base, 0, members,
                   "reassembled " + std::to_string(members) +
                       " rotated segments: " + segment_list});
  }
  for (const auto& [name, diagnostic] : unreadable_) {
    result.diagnostics.push_back(diagnostic);
  }
  result.diag_counts = logging::count_diagnostics(result.diagnostics);
  logging::sort_diagnostics(result.diagnostics);
  return result;
}

std::string FollowService::watch_record() const {
  json::Writer w;
  w.begin_object();
  w.field("poll", static_cast<std::int64_t>(polls_));
  w.field("quiescent", quiescent_);
  w.field("bytes_read", static_cast<std::int64_t>(bytes_read_));
  w.field("streams", static_cast<std::int64_t>(streams_seen_));
  w.field("rotations", static_cast<std::int64_t>(rotations_));
  w.field("apps_resident",
          static_cast<std::int64_t>(analyzer_.apps_resident()));
  w.field("apps_retired", static_cast<std::int64_t>(analyzer_.apps_retired()));
  w.key("analysis").raw(analysis_json(snapshot()));
  w.key("metrics").raw(obs::MetricsRegistry::global().snapshot().to_json());
  w.end_object();
  return w.take();
}

void WatchCheckResult::fail(std::string message) {
  ok = false;
  errors.push_back(std::move(message));
}

WatchCheckResult check_watch_json(std::string_view line) {
  WatchCheckResult result;
  obs::JsonValue root;
  std::string error;
  if (!obs::parse_json(line, root, error)) {
    result.fail("parse error: " + error);
    return result;
  }
  const obs::JsonObject* top = root.object();
  if (top == nullptr) {
    result.fail("top level is not an object");
    return result;
  }
  const auto require_number = [&](const char* key) {
    const obs::JsonValue* value = obs::json_find(*top, key);
    if (value == nullptr || value->number() == nullptr) {
      result.fail(std::string("missing numeric \"") + key + "\"");
    }
  };
  require_number("poll");
  require_number("bytes_read");
  require_number("streams");
  require_number("rotations");
  require_number("apps_resident");
  require_number("apps_retired");
  const obs::JsonValue* quiescent = obs::json_find(*top, "quiescent");
  if (quiescent == nullptr || quiescent->boolean() == nullptr) {
    result.fail("missing boolean \"quiescent\"");
  }
  const obs::JsonValue* analysis = obs::json_find(*top, "analysis");
  const obs::JsonObject* analysis_object =
      analysis != nullptr ? analysis->object() : nullptr;
  if (analysis_object == nullptr) {
    result.fail("missing \"analysis\" object");
  } else {
    const obs::JsonValue* summary = obs::json_find(*analysis_object, "summary");
    if (summary == nullptr || summary->object() == nullptr) {
      result.fail("\"analysis\" without \"summary\" object");
    }
  }
  const obs::JsonValue* metrics = obs::json_find(*top, "metrics");
  const obs::JsonObject* metrics_object =
      metrics != nullptr ? metrics->object() : nullptr;
  if (metrics_object == nullptr) {
    result.fail("missing \"metrics\" object");
  } else {
    const obs::JsonValue* metric_counters =
        obs::json_find(*metrics_object, "counters");
    if (metric_counters == nullptr || metric_counters->object() == nullptr) {
      result.fail("\"metrics\" without \"counters\" object");
    }
  }
  return result;
}

}  // namespace sdc::checker
