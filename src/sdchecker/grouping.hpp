// Fourth stage: aggregate events by global ID into per-application
// timelines (paper §III-C: "SDchecker binds each log event with its
// corresponding global ID ... aggregates and groups state transformations
// based on the IDs").  For each entity and event kind the *first*
// occurrence wins (an executor logs "Got assigned task" for every task;
// only the first marks the end of the scheduling delay).
//
// Data layout: per-kind state lives in dense arrays indexed by the
// enumerator value with a presence bitset (`KindFirstTs`/`KindCounts`),
// containers in a sorted flat map, and the application tables of the
// pipeline's grouping shards in open-addressing hash maps — the hot
// event-application work is bit tests and contiguous probes, never tree
// walks.  Because `record` keeps the minimum timestamp and increments a
// count, applying events is *commutative*: any partition of the event
// stream that routes each application's events to exactly one shard
// (`timeline_shard`) reproduces the serial timelines bit for bit.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/flat_hash_map.hpp"
#include "common/flat_map.hpp"
#include "sdchecker/events.hpp"

namespace sdc::checker {

static_assert(kEventKindSlots <= 32,
              "per-kind presence bitsets are 32 bits wide");

/// First timestamp per event kind: dense slots plus a presence bitset.
/// Keeps the `std::map<EventKind, int64>` interface the timeline
/// consumers use (`operator[]`, ordered iteration yielding (kind, ts)
/// pairs, `erase`), but `has`/`ts` are a bit test and an array read.
class KindFirstTs {
 public:
  /// Keeps the earliest timestamp for `kind` (first occurrence wins;
  /// min, not first-applied, so event application commutes).
  void record(EventKind kind, std::int64_t ts) {
    const std::uint32_t bit = 1u << static_cast<std::uint32_t>(kind);
    const auto slot = static_cast<std::size_t>(kind);
    if ((present_ & bit) == 0 || ts < ts_[slot]) ts_[slot] = ts;
    present_ |= bit;
  }

  /// Map-style get-or-default-insert (also used to overwrite in tests).
  std::int64_t& operator[](EventKind kind) {
    const std::uint32_t bit = 1u << static_cast<std::uint32_t>(kind);
    const auto slot = static_cast<std::size_t>(kind);
    if ((present_ & bit) == 0) ts_[slot] = 0;
    present_ |= bit;
    return ts_[slot];
  }

  [[nodiscard]] bool contains(EventKind kind) const {
    return (present_ & (1u << static_cast<std::uint32_t>(kind))) != 0;
  }

  [[nodiscard]] std::optional<std::int64_t> get(EventKind kind) const {
    if (!contains(kind)) return std::nullopt;
    return ts_[static_cast<std::size_t>(kind)];
  }

  void erase(EventKind kind) {
    present_ &= ~(1u << static_cast<std::uint32_t>(kind));
  }

  [[nodiscard]] bool empty() const { return present_ == 0; }

  /// One presence bit per EventKind (bit index = enumerator value) —
  /// completeness checks OR these instead of walking containers.
  [[nodiscard]] std::uint32_t present_mask() const { return present_; }

  /// Forward iteration over present kinds in enumerator order —
  /// identical visit order to the `std::map` it replaces.
  class const_iterator {
   public:
    const_iterator(const KindFirstTs* table, std::size_t slot)
        : table_(table), slot_(slot) {
      skip_absent();
    }
    std::pair<EventKind, std::int64_t> operator*() const {
      return {static_cast<EventKind>(slot_), table_->ts_[slot_]};
    }
    const_iterator& operator++() {
      ++slot_;
      skip_absent();
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.slot_ == b.slot_;
    }

   private:
    void skip_absent() {
      while (slot_ < kEventKindSlots &&
             (table_->present_ & (1u << slot_)) == 0) {
        ++slot_;
      }
    }

    const KindFirstTs* table_;
    std::size_t slot_;
  };

  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, kEventKindSlots);
  }

 private:
  std::uint32_t present_ = 0;
  std::int64_t ts_[kEventKindSlots] = {};
};

/// Occurrence counts per kind; zero means "never seen" (a recorded kind
/// is always >= 1, so no separate presence state is needed).
class KindCounts {
 public:
  std::int32_t& operator[](EventKind kind) {
    return counts_[static_cast<std::size_t>(kind)];
  }

  [[nodiscard]] std::int32_t at(EventKind kind) const {
    const std::int32_t count = counts_[static_cast<std::size_t>(kind)];
    if (count == 0) throw std::out_of_range("KindCounts::at: kind never seen");
    return count;
  }

 private:
  std::int32_t counts_[kEventKindSlots] = {};
};

/// Event history of a single container.
struct ContainerTimeline {
  ContainerId id;

  /// First timestamp per event kind (ms).
  KindFirstTs first_ts;
  /// Occurrence counts per kind.
  KindCounts counts;

  [[nodiscard]] std::optional<std::int64_t> ts(EventKind kind) const;
  [[nodiscard]] bool has(EventKind kind) const;
};

/// Event history of one application and all its containers.
struct AppTimeline {
  ApplicationId app;

  KindFirstTs first_ts;
  KindCounts counts;
  /// Sorted by container id — iteration order matches the `std::map` the
  /// exports and the decomposition were written against.
  FlatOrderedMap<ContainerId, ContainerTimeline> containers;

  [[nodiscard]] std::optional<std::int64_t> ts(EventKind kind) const;
  [[nodiscard]] bool has(EventKind kind) const;

  /// Union of every container's presence bits (see
  /// `KindFirstTs::present_mask`) — one pass over containers, reused by
  /// the completeness report.
  [[nodiscard]] std::uint32_t container_present_mask() const;

  /// The AppMaster container (sequence number 1), if seen.
  [[nodiscard]] const ContainerTimeline* am_container() const;

  /// All non-AM containers, ordered by container id.
  [[nodiscard]] std::vector<const ContainerTimeline*> worker_containers() const;

  /// Earliest timestamp of `kind` across worker containers.
  [[nodiscard]] std::optional<std::int64_t> min_worker_ts(EventKind kind) const;
  /// Latest timestamp of `kind` across worker containers.
  [[nodiscard]] std::optional<std::int64_t> max_worker_ts(EventKind kind) const;
};

/// Application hash for shard routing and the flat grouping tables.
/// Self-contained (not `std::hash`) so routing is identical across
/// platforms and runs — shard equivalence tests pin it down.
struct ApplicationIdHash {
  std::size_t operator()(const ApplicationId& app) const noexcept {
    return static_cast<std::size_t>(
        mix_u64(static_cast<std::uint64_t>(app.cluster_ts) * 31 +
                static_cast<std::uint64_t>(app.id)));
  }
};

/// Unordered application table used while grouping; the finalize stage
/// merges tables into the deterministic app-ID order.
using AppTable = FlatHashMap<ApplicationId, AppTimeline, ApplicationIdHash>;

struct GroupResult {
  std::map<ApplicationId, AppTimeline> apps;
  /// Events that could not be attributed to any application.
  std::size_t unattributed = 0;
};

/// Serial grouping into one ordered map: the reference the pipeline's
/// sharded grouping (`apply_batch_to_shard`) is tested against.
[[nodiscard]] GroupResult group_events(const EventBatch& events);

/// Applies row `row` of `events` to the timelines (the incremental
/// counterpart of group_events).  Returns false when the row carries no
/// application id and cannot be attributed.
bool apply_event(AppTable& apps, const EventBatch& events, std::size_t row);

/// Which analysis shard owns `app` when grouping into `shards` tables.
/// Container events follow their owning application, so one shard sees
/// every event of a given application.
[[nodiscard]] std::size_t timeline_shard(const ApplicationId& app,
                                         std::size_t shards);

/// App-partitioned grouping result: one unordered table per shard, apps
/// disjoint across shards (routed by `timeline_shard`).
struct ShardedGroupResult {
  std::vector<AppTable> shards;
};

/// One shard's pass over one batch: applies every event whose
/// application routes to `shard` (of `shard_count`) into `apps`.
/// Returns how many events carried no application id — counted by shard
/// 0 only, so summing the return values over all shards and batches
/// matches the serial pass.  The pipeline (`start_corpus`) feeds each
/// stream's batch through this as the stream finishes stitching, in any
/// order: `KindFirstTs::record` keeps the minimum timestamp, so applying
/// batches in any order reproduces grouping the merged events.
std::size_t apply_batch_to_shard(const EventBatch& events, AppTable& apps,
                                 std::size_t shard, std::size_t shard_count);

}  // namespace sdc::checker
