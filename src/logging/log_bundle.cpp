#include "logging/log_bundle.hpp"

#include <fstream>
#include <stdexcept>

#include "logging/log_view.hpp"

namespace sdc::logging {

void LogBundle::append(const std::string& stream, std::string line) {
  streams_[stream].push_back(std::move(line));
}

const std::vector<std::string>& LogBundle::lines(
    const std::string& stream) const {
  static const std::vector<std::string> kEmpty;
  const auto it = streams_.find(stream);
  return it == streams_.end() ? kEmpty : it->second;
}

std::vector<std::string> LogBundle::stream_names() const {
  std::vector<std::string> out;
  out.reserve(streams_.size());
  for (const auto& [name, _] : streams_) out.push_back(name);
  return out;
}

bool LogBundle::has_stream(const std::string& stream) const {
  return streams_.contains(stream);
}

std::size_t LogBundle::total_lines() const {
  std::size_t n = 0;
  for (const auto& [_, lines] : streams_) n += lines.size();
  return n;
}

void LogBundle::write_to_directory(const std::filesystem::path& dir) const {
  std::filesystem::create_directories(dir);
  for (const auto& [name, lines] : streams_) {
    std::ofstream out(dir / name);
    if (!out) {
      throw std::runtime_error("LogBundle: cannot open " + (dir / name).string());
    }
    for (const auto& line : lines) out << line << '\n';
  }
}

LogBundle LogBundle::read_from_directory(const std::filesystem::path& dir,
                                         std::vector<Diagnostic>* diagnostics) {
  const BundleView view = BundleView::read_from_directory(dir, diagnostics);
  LogBundle bundle;
  for (const std::string& name : view.stream_names()) {
    const auto& lines = view.stream(name).lines();
    bundle.streams_[name].assign(lines.begin(), lines.end());
  }
  return bundle;
}

void LogBundle::merge(const LogBundle& other) {
  for (const auto& [name, lines] : other.streams_) {
    auto& dst = streams_[name];
    dst.insert(dst.end(), lines.begin(), lines.end());
  }
}

}  // namespace sdc::logging
