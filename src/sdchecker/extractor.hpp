// Second parsing stage: classify a parsed line as one of the identified
// scheduling messages (Table I) and pull out its global IDs.
//
// Patterns are anchored on the daemon class plus the state-transition
// phrasing YARN's state machines emit ("State change from A to B",
// "Container Transitioned from A to B", "transitioned from A to B") and
// on the Spark/MR milestone messages; IDs are recognized as
// `application_...` / `container_...` / `appattempt_...` tokens anywhere
// in the message (paper §III-A/Fig. 2).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "sdchecker/events.hpp"
#include "sdchecker/parsed_line.hpp"

namespace sdc::checker {

/// What kind of daemon produced a log stream — decided from content, not
/// file names, so SDchecker works on arbitrarily-named log files.
enum class StreamKind {
  kUnknown,
  kResourceManager,
  kNodeManager,
  kDriver,    // Spark driver or MR AppMaster
  kExecutor,  // Spark executor or MR task (YarnChild)
};

std::string_view stream_kind_name(StreamKind kind);

/// How an ExtractorRule matches a message.
enum class RuleMatch {
  kTransitionTo,  // "from A to B" phrasing with B == token
  kPhrase,        // token appears as a substring
};

/// Which global id a rule requires in the message (and attaches to the
/// event).  Rules with kNone produce events the miner binds stream-wide.
enum class RuleId {
  kNone,
  kApp,        // application_... (or embedded in appattempt_...)
  kContainer,  // container_... (its app id is attached too)
};

/// One declarative extraction pattern: on lines from logger class `klass`
/// whose message matches (`match`, `token`, and `also` if non-empty),
/// emit `emits` carrying the `id` found in the message.  The whole
/// extractor is this table — sdlint checks it against the emitters'
/// declared formats.
struct ExtractorRule {
  std::string_view klass;  // short logger-class name
  RuleMatch match;
  std::string_view token;
  std::string_view also;  // extra required substring ("" = none)
  EventKind emits;
  RuleId id;
};

/// The full pattern table, in match-priority order (first match wins
/// within a class).
std::span<const ExtractorRule> extractor_rules();

/// Shortest message any rule in the table could match.
/// `extract_event_into` skips the dispatch table entirely for messages
/// below this length; tests pin it against the rule table.
std::size_t min_rule_message_len();

/// One diagnostic logger class: the daemon kind its presence implies.
struct ClassKind {
  std::string_view klass;
  StreamKind kind;
};

/// Every logger class the classifier recognizes.
std::span<const ClassKind> class_kinds();

/// All rules that would fire on `message` if it appeared on a line from
/// `klass` — sdlint's ambiguity/orphan probe.  Respects each rule's
/// match predicate but not id extraction.
std::vector<const ExtractorRule*> matching_rules(std::string_view klass,
                                                 std::string_view message);

/// True when `rule`'s match predicate (ignoring id extraction) fires on
/// the message.
bool rule_matches(const ExtractorRule& rule, std::string_view message);

/// Runs one rule against a parsed line: match predicate plus required-id
/// extraction.  Exposed so sdlint can probe rules outside the global
/// dispatch table.
std::optional<SchedEvent> apply_rule(const ExtractorRule& rule,
                                     const ParsedLine& line,
                                     std::string_view stream,
                                     std::size_t line_no);

/// Extracts the scheduling event from one parsed line, if it is one of
/// the identified messages: appends it straight into `batch` carrying the
/// interned `stream_id` and `line_no` — no SchedEvent, no string copy.
/// Returns true when an event was appended.  FIRST_LOG events (messages
/// 9/13) are *not* produced here — they are a per-stream property
/// synthesized by the miner.
bool extract_event_into(const ParsedLine& line, std::uint32_t stream_id,
                        std::size_t line_no, EventBatch& batch);

/// Classifies one line's daemon kind from its logger class (kUnknown when
/// the class is not diagnostic).
StreamKind classify_line(const ParsedLine& line);

/// Finds an application id in the message: a direct `application_...`
/// token, or one embedded in an `appattempt_...` token.
std::optional<ApplicationId> find_application_id(std::string_view message);

/// Finds a `container_...` token in the message.
std::optional<ContainerId> find_container_id(std::string_view message);

/// Parses "... from <A> to <B> ..." transition phrasing; returns the two
/// state names.
struct Transition {
  std::string_view from;
  std::string_view to;
};
std::optional<Transition> parse_transition(std::string_view message);

}  // namespace sdc::checker
