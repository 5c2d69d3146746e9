// EventHeap: the fleet engine's event queue. An indexed min-heap over two
// kinds of entities keyed by absolute event time:
//
//   * sessions — keyed on min(next_local_event_time, planned leave time);
//     refreshed whenever the session is processed;
//   * shared links — one entity per topology *channel*, each with a
//     completion registry (spec paths plus the derived cache-hit prefix
//     channels of cache-aware fleets, Topology::channel_count). Keyed on
//     the carrier's earliest registered flow completion. The engine re-keys
//     exactly the channels the topology marks dirty (Topology::
//     dirty_channels). A completion target is a virtual-service integral
//     value, invariant under population and capacity changes, so one
//     O(log F) registry lookup per dirty channel replaces re-keying every
//     riding session when a flow joins or leaves — the difference between
//     O(log N) and O(N) per event.
//
// Lazy join re-keys. A channel the topology marks *deferred* (a sibling
// path's join: its key can only move later, Topology::deferred_channels)
// keeps its stored key as a lower bound, flagged stale (defer_link), and
// is re-keyed only when it reaches the top (settle). Pop order is then the
// eager order: a fresh top entry is below every stored key, hence below
// every fresh one. The re-key computes the key the eager sync would have —
// time_when_service_reaches is a pure function of the path state, which
// the join advanced eagerly — so results stay byte-identical.
//
// The bound needs a guard in floating point. Advancing V at the join
// re-partitions the service integral, so a key whose rate did not change
// can come out a few ulps *below* the stored one. On perfbench's
// sharded-core workload (seed 1, one run), 3,431 of 46,544 top-of-heap
// re-keys came out below the key of the last eager sync, by at most
// 2.3e-13 s (9.0e-16 relative); 34,493 came out equal. defer_link
// therefore lowers the stored key by kDeferGuard relative (floor 1e-9 s),
// about 10^6 times that drift, on every deferral — a sift_up that almost
// never moves. settle counts any fresh key still below its stored bound in
// Stats::lower_bound_misses (asserted 0 in debug builds).
//
// Ties pop by entity id; link ids sit above all session ids, so a session's
// own events at time t fire before completions surface at t — mirroring the
// barrier engine's phase order.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "net/channel.h"
#include "util/arena.h"
#include "util/indexed_min_heap.h"

namespace demuxabr::fleet {

class EventHeap {
 public:
  /// Entity id layout: sessions occupy [0, session_count), link `i` maps to
  /// session_count + i. `arena` (optional, must outlive the heap) backs the
  /// heap's storage — the scheduler passes its per-shard arena so engine
  /// bookkeeping never touches the global heap after construction.
  EventHeap(std::uint32_t session_count, std::uint32_t link_count,
            MonotonicArena* arena = nullptr);

  struct Event {
    bool is_link = false;
    std::uint32_t index = 0;  ///< session id, or link index
    double t = 0.0;
  };

  /// Insert or re-key a session's next event time.
  void schedule_session(std::uint32_t id, double t) { heap_.update(id, t); }
  /// Drop a retired session.
  void erase_session(std::uint32_t id) { heap_.erase(id); }

  /// Re-key link `link_index` on its earliest registered completion (and
  /// clear its deferred flag). A link with no registered completions leaves
  /// the heap.
  void sync_link(std::uint32_t link_index, const Channel& link);

  /// Keep link `link_index`'s stored key as a lower bound of its fresh one,
  /// lowered by the guard margin and flagged stale. No-op when the link is
  /// not in the heap (no completions, so no key to keep).
  void defer_link(std::uint32_t link_index);

  /// Re-key deferred link entries while one is at the top, so that top()
  /// is exact. `links[i]` is link i's channel. Call before reading top().
  void settle(std::span<Channel* const> links) {
    if (top_deferred()) settle_deferred(links);
  }

  /// Relative guard margin defer_link subtracts from a stored key.
  static constexpr double kDeferGuard = 1e-9;

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] Event top() const {
    const IndexedMinHeap::Entry entry = heap_.top();
    Event event;
    event.is_link = entry.id >= link_base_;
    event.index = event.is_link ? entry.id - link_base_ : entry.id;
    event.t = entry.key;
    return event;
  }
  void pop() {
    heap_.pop();
    ++stats_.pops;
  }

  /// Structural work counters (plain integer increments, always collected).
  struct Stats {
    std::uint64_t pops = 0;
    /// Link re-keys: sync_link calls, eager or from settle.
    std::uint64_t link_syncs = 0;
    /// Deferred re-keys whose fresh key came out below the stored bound:
    /// the guard margin was too small. 0 on every workload measured.
    std::uint64_t lower_bound_misses = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Whether link `link_index`'s entry is a stale lower bound (test hook).
  [[nodiscard]] bool link_deferred(std::uint32_t link_index) const {
    return deferred_[link_index] != 0;
  }
  /// Stored key of link `link_index` (test hook; must be in the heap).
  [[nodiscard]] double link_key(std::uint32_t link_index) const {
    return heap_.key_of(link_base_ + link_index);
  }
  [[nodiscard]] bool has_link(std::uint32_t link_index) const {
    return heap_.contains(link_base_ + link_index);
  }

 private:
  /// Key link `link_index` at `t` (erase when infinite), clearing its flag.
  void rekey(std::uint32_t link_index, double t);
  void settle_deferred(std::span<Channel* const> links);
  [[nodiscard]] bool top_deferred() const {
    if (heap_.empty()) return false;
    const std::uint32_t id = heap_.top().id;
    return id >= link_base_ && deferred_[id - link_base_] != 0;
  }

  BasicIndexedMinHeap<ArenaAllocator<HeapEntry>> heap_;
  /// Per link: 1 while its stored key is a deferred lower bound.
  std::vector<std::uint8_t, ArenaAllocator<std::uint8_t>> deferred_;
  Stats stats_;
  std::uint32_t link_base_;
};

}  // namespace demuxabr::fleet
