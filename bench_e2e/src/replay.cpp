#include "replay.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "logging/timestamp.hpp"
#include "measure.hpp"
#include "sdchecker/export.hpp"
#include "sdchecker/follow.hpp"
#include "sdchecker/serve.hpp"

namespace bench {
namespace fs = std::filesystem;

namespace {

struct SourceStream {
  std::vector<std::uint64_t> starts;  // line start offsets + end of file
  std::vector<std::int64_t> ts;       // per line, inherited when absent
  std::size_t next = 0;
};

SourceStream index_stream(const std::string& text) {
  SourceStream stream;
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
    const std::string_view line(text.data() + pos, end - pos);
    if (line.size() >= sdc::logging::kTimestampWidth) {
      if (const auto ts = sdc::logging::parse_epoch_ms(
              line.substr(0, sdc::logging::kTimestampWidth))) {
        last = *ts;
      }
    }
    stream.starts.push_back(pos);
    stream.ts.push_back(last);
    pos = end;
  }
  stream.starts.push_back(text.size());
  return stream;
}

void append_range(const fs::path& from, const fs::path& to,
                  std::uint64_t begin, std::uint64_t end, std::string& buf) {
  buf.resize(end - begin);
  const int in = open(from.c_str(), O_RDONLY);
  if (in < 0) throw std::runtime_error("cannot open " + from.string());
  const ssize_t got = pread(in, buf.data(), buf.size(),
                            static_cast<off_t>(begin));
  close(in);
  if (got != static_cast<ssize_t>(buf.size())) {
    throw std::runtime_error("short read from " + from.string());
  }
  const int out = open(to.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (out < 0) throw std::runtime_error("cannot open " + to.string());
  const ssize_t put = write(out, buf.data(), buf.size());
  close(out);
  if (put != static_cast<ssize_t>(buf.size())) {
    throw std::runtime_error("short write to " + to.string());
  }
}

}  // namespace

void write_replay_plan(const fs::path& source, std::size_t slices,
                       const fs::path& plan_file) {
  std::vector<std::string> files;
  for (const auto& entry : fs::directory_iterator(source)) {
    if (entry.is_regular_file()) files.push_back(entry.path().filename());
  }
  std::sort(files.begin(), files.end());
  std::vector<SourceStream> streams;
  std::size_t total = 0;
  for (const std::string& name : files) {
    streams.push_back(index_stream(read_file(source / name)));
    total += streams.back().ts.size();
  }
  const std::size_t per_slice =
      std::max<std::size_t>(1, (total + slices - 1) / slices);

  // Merge streams by the timestamp of their next line; file order within
  // a stream is never changed.
  using Head = std::pair<std::int64_t, std::uint32_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  for (std::uint32_t f = 0; f < streams.size(); ++f) {
    if (!streams[f].ts.empty()) heads.emplace(streams[f].ts[0], f);
  }
  std::ofstream out(plan_file);
  out << files.size() << '\n';
  for (const std::string& name : files) out << name << '\n';
  std::vector<ReplayPiece> slice;
  std::unordered_map<std::uint32_t, std::size_t> piece_of;
  const auto flush = [&] {
    out << slice.size() << '\n';
    for (const ReplayPiece& piece : slice) {
      out << piece.file << ' ' << piece.begin << ' ' << piece.end << '\n';
    }
    slice.clear();
    piece_of.clear();
  };
  std::size_t emitted = 0;
  while (!heads.empty()) {
    const std::uint32_t f = heads.top().second;
    heads.pop();
    SourceStream& stream = streams[f];
    const std::size_t line = stream.next++;
    const auto [it, fresh] = piece_of.try_emplace(f, slice.size());
    if (fresh) slice.push_back({f, stream.starts[line], 0});
    slice[it->second].end = stream.starts[line + 1];
    if (stream.next < stream.ts.size()) {
      heads.emplace(stream.ts[stream.next], f);
    }
    if (++emitted % per_slice == 0) flush();
  }
  if (!slice.empty()) flush();
  if (!out) throw std::runtime_error("cannot write " + plan_file.string());
}

ReplayPlan read_replay_plan(const fs::path& plan_file) {
  std::ifstream in(plan_file);
  if (!in) throw std::runtime_error("cannot read " + plan_file.string());
  ReplayPlan plan;
  std::size_t count = 0;
  in >> count;
  plan.files.resize(count);
  for (std::string& name : plan.files) in >> name;
  std::size_t pieces = 0;
  while (in >> pieces) {
    std::vector<ReplayPiece>& slice = plan.slices.emplace_back(pieces);
    for (ReplayPiece& piece : slice) {
      in >> piece.file >> piece.begin >> piece.end;
      if (piece.file >= plan.files.size() || piece.end < piece.begin) {
        throw std::runtime_error("corrupt replay plan");
      }
    }
  }
  return plan;
}

ReplayOutcome replay(const ReplayPlan& plan, const fs::path& source,
                     const fs::path& live) {
  using namespace sdc::checker;
  if (!fs::create_directory(live)) {
    throw std::runtime_error(live.string() + " already exists");
  }
  ReplayOutcome outcome;
  outcome.stages.reserve(plan.slices.size());
  outcome.freshness_ms.reserve(plan.slices.size());
  std::string buf;
  {
    FollowService service(live);
    FollowPublisher publisher;
    for (const std::vector<ReplayPiece>& slice : plan.slices) {
      move_to_next_cpu();
      const double t0 = now_s();
      for (const ReplayPiece& piece : slice) {
        append_range(source / plan.files[piece.file],
                     live / plan.files[piece.file], piece.begin, piece.end,
                     buf);
      }
      const double appended = now_s();
      const double cpu_appended = cpu_s();
      double polled = 0;
      double snapped = 0;
      double rendered = 0;
      double published = 0;
      {
        outcome.lines_fed += service.poll_once().lines_fed;
        polled = now_s();
        const AnalysisResult snapshot = service.snapshot();
        snapped = now_s();
        std::string json = analysis_json(snapshot);
        rendered = now_s();
        publisher.publish({std::move(json), service.polls(), false,
                           snapshot.diag_counts});
        published = now_s();
      }
      // The service's time per slice runs until the snapshot is released.
      outcome.wall_s += now_s() - appended;
      outcome.cpu_s += cpu_s() - cpu_appended;
      outcome.freshness_ms.push_back((published - appended) * 1e3);
      outcome.stages.push_back({(polled - appended) * 1e3,
                                (snapped - polled) * 1e3,
                                (rendered - snapped) * 1e3,
                                (published - rendered) * 1e3});
      outcome.append_s += appended - t0;
      outcome.poll_s += polled - appended;
      outcome.snapshot_s += snapped - polled;
      outcome.render_s += rendered - snapped;
      outcome.publish_s += published - rendered;
      outcome.apps_resident_max = std::max(
          outcome.apps_resident_max, service.analyzer().apps_resident());
    }
    const double drain_start = now_s();
    const double cpu_drain_start = cpu_s();
    outcome.lines_fed += service.poll_once().lines_fed;
    service.finish();
    const AnalysisResult drained = service.snapshot();
    std::string json = analysis_json(drained);
    outcome.drained_hash = fnv1a(json);
    publisher.publish({std::move(json), service.polls(), true,
                       drained.diag_counts});
    outcome.apps_retired = service.analyzer().apps_retired();
    outcome.events_late_dropped = service.analyzer().events_late_dropped();
    outcome.drain_s = -drain_start;
    outcome.cpu_s -= cpu_drain_start;
  }
  // The service and its last snapshot are destroyed: the drain ends here.
  outcome.drain_s += now_s();
  outcome.cpu_s += cpu_s();
  outcome.wall_s += outcome.drain_s;
  return outcome;
}

}  // namespace bench
