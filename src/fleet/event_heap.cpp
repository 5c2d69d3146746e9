#include "fleet/event_heap.h"

#include <algorithm>
#include <cassert>

namespace demuxabr::fleet {

EventHeap::EventHeap(std::uint32_t session_count, std::uint32_t link_count,
                     MonotonicArena* arena)
    : heap_(ArenaAllocator<HeapEntry>(arena)),
      deferred_(link_count, 0, ArenaAllocator<std::uint8_t>(arena)),
      link_base_(session_count) {
  heap_.reserve(session_count + link_count);
}

void EventHeap::sync_link(std::uint32_t link_index, const Channel& link) {
  rekey(link_index, link.earliest_completion_time());
}

void EventHeap::rekey(std::uint32_t link_index, double t) {
  ++stats_.link_syncs;
  deferred_[link_index] = 0;
  const std::uint32_t id = link_base_ + link_index;
  if (std::isfinite(t)) {
    heap_.update(id, t);
  } else {
    heap_.erase(id);
  }
}

void EventHeap::defer_link(std::uint32_t link_index) {
  const std::uint32_t id = link_base_ + link_index;
  if (!heap_.contains(id)) return;
  deferred_[link_index] = 1;
  // Lowered on every deferral, not only the first: each join's re-
  // partitioning drift is then covered by its own margin.
  const double key = heap_.key_of(id);
  heap_.update(id, key - kDeferGuard * std::max(1.0, std::abs(key)));
}

void EventHeap::settle_deferred(std::span<Channel* const> links) {
  while (top_deferred()) {
    const HeapEntry top = heap_.top();
    const std::uint32_t link_index = top.id - link_base_;
    const double fresh = links[link_index]->earliest_completion_time();
    if (fresh < top.key) {
      ++stats_.lower_bound_misses;
      assert(false && "deferred link key came out below its stored lower bound");
    }
    rekey(link_index, fresh);
  }
}

}  // namespace demuxabr::fleet
