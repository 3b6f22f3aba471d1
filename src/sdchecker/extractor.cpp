#include "sdchecker/extractor.hpp"

#include <array>

#include "common/strings.hpp"

namespace sdc::checker {
namespace {

bool contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::optional<SchedEvent> make_event(EventKind kind, const ParsedLine& line,
                                     std::string_view stream,
                                     std::size_t line_no,
                                     std::optional<ApplicationId> app,
                                     std::optional<ContainerId> container) {
  SchedEvent event;
  event.kind = kind;
  event.ts_ms = line.epoch_ms;
  event.app = app;
  event.container = container;
  event.stream = std::string(stream);
  event.line_no = line_no;
  return event;
}

}  // namespace

std::string_view stream_kind_name(StreamKind kind) {
  switch (kind) {
    case StreamKind::kUnknown:
      return "unknown";
    case StreamKind::kResourceManager:
      return "resourcemanager";
    case StreamKind::kNodeManager:
      return "nodemanager";
    case StreamKind::kDriver:
      return "driver";
    case StreamKind::kExecutor:
      return "executor";
  }
  return "?";
}

std::optional<ApplicationId> find_application_id(std::string_view message) {
  const std::string_view token = find_token_with_prefix(message, "application_");
  if (!token.empty()) return ApplicationId::parse(token);
  // appattempt_<clusterTs>_<appId>_<attempt> embeds the application id.
  const std::string_view attempt = find_token_with_prefix(message, "appattempt_");
  if (attempt.empty()) return std::nullopt;
  const auto parts = split(attempt, '_');
  if (parts.size() != 4) return std::nullopt;
  const std::string rebuilt =
      "application_" + std::string(parts[1]) + "_" + std::string(parts[2]);
  return ApplicationId::parse(rebuilt);
}

std::optional<ContainerId> find_container_id(std::string_view message) {
  const std::string_view token = find_token_with_prefix(message, "container_");
  if (token.empty()) return std::nullopt;
  return ContainerId::parse(token);
}

std::optional<Transition> parse_transition(std::string_view message) {
  // Both YARN phrasings: "State change from A to B on event = E",
  // "Container Transitioned from A to B", "... transitioned from A to B".
  const std::size_t from_pos = message.find("from ");
  if (from_pos == std::string_view::npos) return std::nullopt;
  std::size_t from_start = from_pos + 5;
  const std::size_t to_pos = message.find(" to ", from_start);
  if (to_pos == std::string_view::npos) return std::nullopt;
  Transition out;
  out.from = message.substr(from_start, to_pos - from_start);
  std::size_t to_start = to_pos + 4;
  std::size_t to_end = to_start;
  while (to_end < message.size() && message[to_end] != ' ') ++to_end;
  out.to = message.substr(to_start, to_end - to_start);
  if (out.from.empty() || out.to.empty()) return std::nullopt;
  return out;
}

namespace {

// --- the declarative pattern tables -----------------------------------------

/// Every logger class the classifier recognizes, and the daemon kind it
/// implies.  Classes with no rules below only classify.
constexpr ClassKind kClassKinds[] = {
    // ResourceManager classes.
    {"RMAppImpl", StreamKind::kResourceManager},
    {"RMContainerImpl", StreamKind::kResourceManager},
    {"CapacityScheduler", StreamKind::kResourceManager},
    {"ClientRMService", StreamKind::kResourceManager},
    {"RMAppAttemptImpl", StreamKind::kResourceManager},
    {"OpportunisticContainerAllocatorAMService", StreamKind::kResourceManager},
    // NodeManager classes.
    {"ContainerImpl", StreamKind::kNodeManager},
    {"ResourceLocalizationService", StreamKind::kNodeManager},
    {"ContainerScheduler", StreamKind::kNodeManager},
    // Driver-side classes (Spark driver or MR AppMaster).
    {"ApplicationMaster", StreamKind::kDriver},
    {"MRAppMaster", StreamKind::kDriver},
    {"YarnAllocator", StreamKind::kDriver},
    {"RMContainerAllocator", StreamKind::kDriver},
    {"SparkContext", StreamKind::kDriver},
    {"TaskSetManager", StreamKind::kDriver},
    {"YarnSchedulerBackend", StreamKind::kDriver},
    // Executor-side classes (Spark executor or MR task).
    {"CoarseGrainedExecutorBackend", StreamKind::kExecutor},
    {"Executor", StreamKind::kExecutor},
    {"YarnChild", StreamKind::kExecutor},
};

/// The Table-I extraction patterns.  Grouped by class, first match wins
/// within a class.
constexpr ExtractorRule kExtractorRules[] = {
    // RMAppImpl "State change from A to B on event = E" lines.
    {"RMAppImpl", RuleMatch::kTransitionTo, "SUBMITTED", "",
     EventKind::kAppSubmitted, RuleId::kApp},
    {"RMAppImpl", RuleMatch::kTransitionTo, "ACCEPTED", "",
     EventKind::kAppAccepted, RuleId::kApp},
    {"RMAppImpl", RuleMatch::kTransitionTo, "RUNNING", "ATTEMPT_REGISTERED",
     EventKind::kAttemptRegistered, RuleId::kApp},
    {"RMAppImpl", RuleMatch::kTransitionTo, "FINISHED", "",
     EventKind::kAppFinished, RuleId::kApp},
    // RMContainerImpl "Container Transitioned from A to B" lines.
    {"RMContainerImpl", RuleMatch::kTransitionTo, "ALLOCATED", "",
     EventKind::kContainerAllocated, RuleId::kContainer},
    {"RMContainerImpl", RuleMatch::kTransitionTo, "ACQUIRED", "",
     EventKind::kContainerAcquired, RuleId::kContainer},
    {"RMContainerImpl", RuleMatch::kTransitionTo, "RUNNING", "",
     EventKind::kRmContainerRunning, RuleId::kContainer},
    {"RMContainerImpl", RuleMatch::kTransitionTo, "COMPLETED", "",
     EventKind::kRmContainerCompleted, RuleId::kContainer},
    {"RMContainerImpl", RuleMatch::kTransitionTo, "RELEASED", "",
     EventKind::kRmContainerReleased, RuleId::kContainer},
    // NM ContainerImpl "transitioned from A to B" lines.
    {"ContainerImpl", RuleMatch::kTransitionTo, "LOCALIZING", "",
     EventKind::kNmLocalizing, RuleId::kContainer},
    {"ContainerImpl", RuleMatch::kTransitionTo, "SCHEDULED", "",
     EventKind::kNmScheduled, RuleId::kContainer},
    {"ContainerImpl", RuleMatch::kTransitionTo, "RUNNING", "",
     EventKind::kNmRunning, RuleId::kContainer},
    {"ContainerImpl", RuleMatch::kTransitionTo, "EXITED_WITH_SUCCESS", "",
     EventKind::kNmExited, RuleId::kContainer},
    {"ContainerImpl", RuleMatch::kTransitionTo, "EXITED_WITH_FAILURE", "",
     EventKind::kNmFailed, RuleId::kContainer},
    // REGISTER (Table I message 10): each framework has its own phrasing;
    // the app id is not in the message — the miner binds it stream-wide.
    {"ApplicationMaster", RuleMatch::kPhrase,
     "Registering the ApplicationMaster", "", EventKind::kDriverRegister,
     RuleId::kNone},
    {"MRAppMaster", RuleMatch::kPhrase, "Registering with the ResourceManager",
     "", EventKind::kDriverRegister, RuleId::kNone},
    // START_ALLO / END_ALLO (Table I messages 11/12).
    {"YarnAllocator", RuleMatch::kPhrase, "START_ALLO", "",
     EventKind::kStartAllo, RuleId::kNone},
    {"YarnAllocator", RuleMatch::kPhrase, "END_ALLO", "", EventKind::kEndAllo,
     RuleId::kNone},
    // FIRST_TASK (Table I message 14).
    {"CoarseGrainedExecutorBackend", RuleMatch::kPhrase, "Got assigned task",
     "", EventKind::kExecutorFirstTask, RuleId::kNone},
};

/// Shortest message that could possibly satisfy `rule`'s match
/// predicate: a transition needs at least "from " + one state char +
/// " to " ahead of the exact `token` state, a phrase needs the token
/// itself, and either way the `also` substring must fit too.
constexpr std::size_t rule_min_message_len(const ExtractorRule& rule) {
  std::size_t need = rule.match == RuleMatch::kTransitionTo
                         ? rule.token.size() + 10
                         : rule.token.size();
  if (rule.also.size() > need) need = rule.also.size();
  return need;
}

constexpr std::size_t shortest_rule_message_len() {
  std::size_t shortest = static_cast<std::size_t>(-1);
  for (const ExtractorRule& rule : kExtractorRules) {
    const std::size_t need = rule_min_message_len(rule);
    if (need < shortest) shortest = need;
  }
  return shortest;
}

/// Messages shorter than this cannot match any rule; the extractor
/// skips the dispatch table for them entirely.
constexpr std::size_t kShortestRuleMessageLen = shortest_rule_message_len();

}  // namespace

std::size_t min_rule_message_len() { return kShortestRuleMessageLen; }

bool rule_matches(const ExtractorRule& rule, std::string_view message) {
  switch (rule.match) {
    case RuleMatch::kTransitionTo: {
      const auto transition = parse_transition(message);
      if (!transition || transition->to != rule.token) return false;
      break;
    }
    case RuleMatch::kPhrase:
      if (!contains(message, rule.token)) return false;
      break;
  }
  return rule.also.empty() || contains(message, rule.also);
}

std::optional<SchedEvent> apply_rule(const ExtractorRule& rule,
                                     const ParsedLine& line,
                                     std::string_view stream,
                                     std::size_t line_no) {
  if (!rule_matches(rule, line.message)) return std::nullopt;
  switch (rule.id) {
    case RuleId::kNone:
      return make_event(rule.emits, line, stream, line_no, std::nullopt,
                        std::nullopt);
    case RuleId::kApp: {
      const auto app = find_application_id(line.message);
      if (!app) return std::nullopt;
      return make_event(rule.emits, line, stream, line_no, app, std::nullopt);
    }
    case RuleId::kContainer: {
      const auto container = find_container_id(line.message);
      if (!container) return std::nullopt;
      return make_event(rule.emits, line, stream, line_no, container->app,
                        container);
    }
  }
  return std::nullopt;
}

namespace {

/// Dispatch entry for one diagnostic logger class: the daemon kind it
/// implies, and its slice of the rule table (empty for classes that only
/// classify).
struct ClassDispatch {
  std::string_view name;
  StreamKind kind = StreamKind::kUnknown;
  std::span<const ExtractorRule> rules{};
  /// Shortest message any of `rules` could match (SIZE_MAX when the
  /// class only classifies) — the per-class arm of the length
  /// pre-filter.
  std::size_t min_rule_len = static_cast<std::size_t>(-1);
};

constexpr std::size_t kClassCount = std::size(kClassKinds);

/// Per-class dispatch entries, built at compile time from the constexpr
/// tables above so sdlint and the hot path can never disagree.  Rules
/// are grouped by class; each entry records its slice of the rule table.
constexpr std::array<ClassDispatch, kClassCount> make_dispatch_entries() {
  std::array<ClassDispatch, kClassCount> out{};
  for (std::size_t c = 0; c < kClassCount; ++c) {
    out[c].name = kClassKinds[c].klass;
    out[c].kind = kClassKinds[c].kind;
  }
  const std::span<const ExtractorRule> rules{kExtractorRules};
  for (std::size_t i = 0; i < rules.size();) {
    std::size_t j = i;
    std::size_t min_len = static_cast<std::size_t>(-1);
    while (j < rules.size() && rules[j].klass == rules[i].klass) {
      const std::size_t need = rule_min_message_len(rules[j]);
      if (need < min_len) min_len = need;
      ++j;
    }
    for (ClassDispatch& entry : out) {
      if (entry.name == rules[i].klass) {
        entry.rules = rules.subspan(i, j - i);
        entry.min_rule_len = min_len;
      }
    }
    i = j;
  }
  return out;
}

constexpr auto kDispatchEntries = make_dispatch_entries();

constexpr std::size_t kMaxClassNameLen = [] {
  std::size_t longest = 0;
  for (const ClassKind& entry : kClassKinds) {
    if (entry.klass.size() > longest) longest = entry.klass.size();
  }
  return longest;
}();

/// (name length, first byte) happens to be a unique key across every
/// recognized logger class, so class dispatch is two array reads plus
/// one confirming string compare — no hashing.  The constexpr builder
/// fails the build if a future class breaks the uniqueness (add a
/// second-byte tier then).
inline constexpr std::uint8_t kNoClass = 0xff;

constexpr auto kClassIndex = [] {
  std::array<std::array<std::uint8_t, 26>, kMaxClassNameLen + 1> index{};
  for (auto& row : index) row.fill(kNoClass);
  for (std::size_t c = 0; c < kClassCount; ++c) {
    const std::string_view name = kDispatchEntries[c].name;
    const unsigned first =
        static_cast<unsigned>(static_cast<unsigned char>(name.front())) - 'A';
    if (first >= 26) throw "logger class must start with an uppercase letter";
    if (index[name.size()][first] != kNoClass) {
      throw "(length, first byte) collision between logger classes";
    }
    index[name.size()][first] = static_cast<std::uint8_t>(c);
  }
  return index;
}();

const ClassDispatch* find_class(std::string_view name) {
  if (name.empty() || name.size() > kMaxClassNameLen) return nullptr;
  const unsigned first =
      static_cast<unsigned>(static_cast<unsigned char>(name.front())) - 'A';
  if (first >= 26) return nullptr;
  const std::uint8_t slot = kClassIndex[name.size()][first];
  if (slot == kNoClass) return nullptr;
  const ClassDispatch& entry = kDispatchEntries[slot];
  return name == entry.name ? &entry : nullptr;
}

/// A matched rule with its extracted ids.
struct RuleHit {
  const ExtractorRule* rule = nullptr;
  std::optional<ApplicationId> app;
  std::optional<ContainerId> container;
};

/// The shared first-match-wins walk over one class's rules.  Decision
/// for decision this is `for rule: apply_rule(...)`, with one hot-path
/// refinement: `parse_transition` runs at most once per message (the
/// transition classes carry up to five transition rules, which used to
/// re-parse the same "from A to B" phrase per rule).  A rule whose match
/// fires but whose required id is absent does not stop the walk, same
/// as apply_rule returning nullopt.
std::optional<RuleHit> match_class_rules(const ClassDispatch& entry,
                                         std::string_view message) {
  bool transition_cached = false;
  std::optional<Transition> transition;
  for (const ExtractorRule& rule : entry.rules) {
    if (rule.match == RuleMatch::kTransitionTo) {
      if (!transition_cached) {
        transition = parse_transition(message);
        transition_cached = true;
      }
      if (!transition || transition->to != rule.token) continue;
    } else {
      if (!contains(message, rule.token)) continue;
    }
    if (!rule.also.empty() && !contains(message, rule.also)) continue;
    switch (rule.id) {
      case RuleId::kNone:
        return RuleHit{&rule, std::nullopt, std::nullopt};
      case RuleId::kApp: {
        const auto app = find_application_id(message);
        if (!app) continue;
        return RuleHit{&rule, app, std::nullopt};
      }
      case RuleId::kContainer: {
        const auto container = find_container_id(message);
        if (!container) continue;
        return RuleHit{&rule, container->app, container};
      }
    }
  }
  return std::nullopt;
}

/// Class lookup plus both length pre-filter arms; nullptr when no rule
/// of `line`'s class can match.
const ClassDispatch* dispatchable_class(const ParsedLine& line) {
  // No rule can match a message this short — skip the class lookup.
  if (line.message.size() < kShortestRuleMessageLen) return nullptr;
  const ClassDispatch* entry = find_class(short_class_name(line.logger));
  if (entry == nullptr || line.message.size() < entry->min_rule_len) {
    return nullptr;
  }
  return entry;
}

}  // namespace

std::span<const ExtractorRule> extractor_rules() { return kExtractorRules; }

std::span<const ClassKind> class_kinds() { return kClassKinds; }

std::vector<const ExtractorRule*> matching_rules(std::string_view klass,
                                                 std::string_view message) {
  std::vector<const ExtractorRule*> out;
  for (const ExtractorRule& rule : kExtractorRules) {
    if (rule.klass == klass && rule_matches(rule, message)) {
      out.push_back(&rule);
    }
  }
  return out;
}

StreamKind classify_line(const ParsedLine& line) {
  const ClassDispatch* entry = find_class(short_class_name(line.logger));
  return entry == nullptr ? StreamKind::kUnknown : entry->kind;
}

bool extract_event_into(const ParsedLine& line, std::uint32_t stream_id,
                        std::size_t line_no, EventBatch& batch) {
  const ClassDispatch* entry = dispatchable_class(line);
  if (entry == nullptr) return false;
  const auto hit = match_class_rules(*entry, line.message);
  if (!hit) return false;
  batch.push(hit->rule->emits, line.epoch_ms, stream_id, line_no, hit->app,
             hit->container);
  return true;
}

}  // namespace sdc::checker
