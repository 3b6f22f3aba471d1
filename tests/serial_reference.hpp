// The serial references the pipeline is tested against.  The analysis
// pipeline (`start_corpus`) is held to the corpus mined and merged as a
// whole (`LogMiner`), grouped into one ordered map (`group_events`),
// finalized in one thread.  The directory read path
// (`BundleView::read_from_directory`) is held to a plain `std::getline`
// reader.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>
#include <utility>

#include "logging/log_bundle.hpp"
#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

/// Every regular file in `dir` as one stream, split by `std::getline`
/// with one trailing '\r' stripped.  A file without lines has no stream.
inline logging::LogBundle read_directory_getline(
    const std::filesystem::path& dir) {
  logging::LogBundle bundle;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    for (std::string line; std::getline(in, line);) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      bundle.append(entry.path().filename().string(), std::move(line));
    }
  }
  return bundle;
}

/// Fills in the mining side of `result` as one merged mine reports it.
inline AnalysisResult with_mining(AnalysisResult result, MineResult mined) {
  result.lines_total = mined.lines_total;
  result.lines_unparsed = mined.lines_unparsed;
  result.events_total = mined.events.size();
  result.diagnostics = std::move(mined.diagnostics);
  result.diag_counts = mined.diag_counts;
  logging::sort_diagnostics(result.diagnostics);
  return result;
}

inline AnalysisResult serial_reference(MineResult mined) {
  GroupResult grouped = group_events(mined.events);
  AnalysisResult result = finalize_analysis(std::move(grouped.apps));
  result.events_unattributed = grouped.unattributed;
  return with_mining(std::move(result), std::move(mined));
}

}  // namespace sdc::checker
