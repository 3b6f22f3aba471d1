// Check (g): the metric catalog maps cleanly onto the Prometheus
// exposition the observability server renders (ISSUE 9).
//
// The `/metrics` writer mangles registry names mechanically (`.`/`-`
// -> `_`) and never resolves collisions at scrape time — so the *lint*
// proves, over the catalog plus every known dynamic-suffix vocabulary,
// that the mangling is total and injective:
//
//   prom.invalid-name      a name (or family member) does not mangle to
//                          a grammar-valid Prometheus name
//   prom.duplicate-name    two distinct registry names mangle to the
//                          same Prometheus name
//   prom.series-collision  a histogram's implied `_bucket`/`_sum`/
//                          `_count` series collides with another metric
//   prom.suffix-unsafe     a dynamic-suffix family has a member whose
//                          suffix breaks the mangling guarantee
//   prom.family-unlisted   a catalog family whose member vocabulary the
//                          lint does not know (add it to the real
//                          inputs, or the family is unchecked)
//
// Inputs are injectable so fixtures can seed each violation; the real
// variant walks `obs::metric_catalog()` with every production suffix
// vocabulary (diagnostic kinds, delay components, HTTP endpoint labels
// and error classes).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metric_catalog.hpp"
#include "sdlint/findings.hpp"

namespace sdc::lint {

/// The known member suffixes of one dynamic-suffix catalog family.
struct FamilySuffixes {
  /// The catalog row's name ("obs.http.errors.<class>").
  std::string_view family;
  std::vector<std::string> suffixes;
};

struct PromCheckInputs {
  std::span<const obs::MetricSpec> catalog;
  std::span<const FamilySuffixes> suffixes;
};

std::vector<Finding> check_prom(const PromCheckInputs& inputs);

/// check_prom over the real catalog and every production suffix
/// vocabulary.
std::vector<Finding> check_real_prom();

}  // namespace sdc::lint
