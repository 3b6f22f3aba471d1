// The serial reference the analysis pipeline (`start_corpus`) is tested
// against: the corpus mined and merged as a whole (`LogMiner`), grouped
// into one ordered map (`group_events`), finalized in one thread.
#pragma once

#include <utility>

#include "sdchecker/sdchecker.hpp"

namespace sdc::checker {

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
