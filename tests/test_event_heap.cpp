// Property tests for the indexed min-heap under the fleet event engine and
// each Link's completion registry: a long random stream of update (insert +
// decrease/increase-key), erase and pop operations must track a
// std::multimap oracle exactly — same top, same pop order, same membership.
// A second stream runs a deep heap (> 1024 ids) through the engine's tick
// pattern — pop, reinsert later — with keys so coarse that ties occur at
// every level, covering the bottom-up pop and the id tie-break throughout.
#include "util/indexed_min_heap.h"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "fleet/event_heap.h"
#include "net/link.h"
#include "util/rng.h"

namespace demuxabr {
namespace {

/// Oracle: (key, id) pairs ordered exactly like IndexedMinHeap::less.
class OracleHeap {
 public:
  void update(std::uint32_t id, double key) {
    erase(id);
    by_id_[id] = ordered_.insert({{key, id}, id});
  }
  void erase(std::uint32_t id) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) return;
    ordered_.erase(it->second);
    by_id_.erase(it);
  }
  [[nodiscard]] bool empty() const { return ordered_.empty(); }
  [[nodiscard]] std::size_t size() const { return ordered_.size(); }
  [[nodiscard]] std::pair<double, std::uint32_t> top() const {
    return ordered_.begin()->first;
  }
  std::pair<double, std::uint32_t> pop() {
    const auto result = top();
    erase(result.second);
    return result;
  }
  [[nodiscard]] bool contains(std::uint32_t id) const {
    return by_id_.count(id) > 0;
  }
  [[nodiscard]] double key_of(std::uint32_t id) const {
    return by_id_.at(id)->first.first;
  }

 private:
  std::multimap<std::pair<double, std::uint32_t>, std::uint32_t> ordered_;
  std::map<std::uint32_t, decltype(ordered_)::iterator> by_id_;
};

TEST(IndexedMinHeap, RandomOpsMatchMultimapOracle) {
  IndexedMinHeap heap;
  OracleHeap oracle;
  Rng rng(20240807);
  constexpr std::uint32_t kIdSpace = 64;  // dense ids, frequent re-keys

  for (int op = 0; op < 20000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.5) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      // Coarse keys on purpose: ties must resolve identically (by id).
      const double key = static_cast<double>(rng.uniform_int(0, 40));
      heap.update(id, key);
      oracle.update(id, key);
    } else if (dice < 0.75) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      heap.erase(id);
      oracle.erase(id);
    } else if (!oracle.empty()) {
      const auto expected = oracle.pop();
      const IndexedMinHeap::Entry actual = heap.pop();
      ASSERT_EQ(actual.id, expected.second) << "op " << op;
      ASSERT_EQ(actual.key, expected.first) << "op " << op;
    }

    ASSERT_EQ(heap.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(heap.top().id, oracle.top().second) << "op " << op;
      ASSERT_EQ(heap.top().key, oracle.top().first) << "op " << op;
    }
    const auto probe = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
    ASSERT_EQ(heap.contains(probe), oracle.contains(probe));
    if (oracle.contains(probe)) {
      ASSERT_EQ(heap.key_of(probe), oracle.key_of(probe));
    }
  }

  // Drain: full pop order must match the oracle's sorted order.
  while (!oracle.empty()) {
    const auto expected = oracle.pop();
    const IndexedMinHeap::Entry actual = heap.pop();
    ASSERT_EQ(actual.id, expected.second);
    ASSERT_EQ(actual.key, expected.first);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedMinHeap, DeepHeapPopReinsertWithTiesMatchesOracle) {
  IndexedMinHeap heap;
  OracleHeap oracle;
  Rng rng(20261020);
  constexpr std::uint32_t kIdSpace = 2048;
  // Keys on a 1/8 s grid over 4 s: 32 distinct values for 2048 ids, so
  // every level of the 11-level heap holds ties.
  const auto grid_key = [&] { return 0.125 * static_cast<double>(rng.uniform_int(0, 31)); };
  for (std::uint32_t id = 0; id < kIdSpace; ++id) {
    const double key = grid_key();
    heap.update(id, key);
    oracle.update(id, key);
  }
  ASSERT_EQ(heap.size(), kIdSpace);

  for (int op = 0; op < 60000; ++op) {
    const double dice = rng.uniform();
    if (dice < 0.7 && !oracle.empty()) {
      // The tick pattern: pop the earliest, reinsert it one tick (or zero
      // ticks: an equal key) later.
      const auto expected = oracle.pop();
      const IndexedMinHeap::Entry actual = heap.pop();
      ASSERT_EQ(actual.id, expected.second) << "op " << op;
      ASSERT_EQ(actual.key, expected.first) << "op " << op;
      const double later = actual.key + 0.125 * static_cast<double>(rng.uniform_int(0, 1));
      heap.update(actual.id, later);
      oracle.update(actual.id, later);
    } else if (dice < 0.8) {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      if (oracle.contains(id)) {
        const double lower = oracle.key_of(id) - 0.125 * static_cast<double>(rng.uniform_int(0, 8));
        heap.update(id, lower);
        oracle.update(id, lower);
      }
    } else if (dice < 0.84) {
      // Erases and inserts (of a random id, present or not) balance near
      // 80% occupancy, so the heap stays deep.
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      heap.erase(id);
      oracle.erase(id);
    } else {
      const auto id = static_cast<std::uint32_t>(rng.uniform_int(0, kIdSpace - 1));
      const double key = oracle.empty() ? 0.0 : oracle.top().first + grid_key();
      heap.update(id, key);
      oracle.update(id, key);
    }
    ASSERT_EQ(heap.size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(heap.top().id, oracle.top().second) << "op " << op;
      ASSERT_EQ(heap.top().key, oracle.top().first) << "op " << op;
    }
  }
  EXPECT_GT(heap.size(), 1024u);
  while (!oracle.empty()) {
    const auto expected = oracle.pop();
    const IndexedMinHeap::Entry actual = heap.pop();
    ASSERT_EQ(actual.id, expected.second);
    ASSERT_EQ(actual.key, expected.first);
  }
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, SessionsPopBeforeLinksOnTies) {
  // Link entity ids sit above all session ids, so at equal times a
  // session's own events fire before link completions surface.
  fleet::EventHeap heap(4, 1);
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.register_completion(0, 5000.0);  // completes at t = 5
  heap.sync_link(0, link);
  heap.schedule_session(2, 5.0);

  ASSERT_FALSE(heap.empty());
  EXPECT_FALSE(heap.top().is_link);
  EXPECT_EQ(heap.top().index, 2u);
  heap.pop();
  ASSERT_FALSE(heap.empty());
  EXPECT_TRUE(heap.top().is_link);
  EXPECT_EQ(heap.top().index, 0u);
  EXPECT_DOUBLE_EQ(heap.top().t, 5.0);
}

TEST(EventHeap, LinkSyncRekeysOnEarliestCompletion) {
  fleet::EventHeap heap(2, 1);
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.register_completion(1, 1000.0);  // t = 1 with one flow
  heap.sync_link(0, link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.0);

  // Nothing moved: re-syncing re-derives the same key.
  heap.sync_link(0, link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.0);

  // A second flow halves the rate: the key is re-derived later.
  link.add_flow(0.5);
  heap.sync_link(0, link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.5);  // 500 kbit left at 500 kbps

  // Unregister + remove: the link leaves the heap.
  link.unregister_completion(1);
  link.remove_flow(0.75);
  heap.sync_link(0, link);
  EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, DeferredLinkKeepsLowerBoundUntilSettled) {
  fleet::EventHeap heap(2, 1);
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.register_completion(1, 1000.0);  // t = 1 with one flow
  heap.sync_link(0, link);
  heap.schedule_session(0, 1.25);

  // A second flow halves the rate; deferring keeps the stale key (lowered
  // by the guard) instead of re-deriving it.
  link.add_flow(0.5);
  heap.defer_link(0);
  EXPECT_TRUE(heap.link_deferred(0));
  EXPECT_LE(heap.link_key(0), 1.0);
  EXPECT_GE(heap.link_key(0), 1.0 - 2.0 * fleet::EventHeap::kDeferGuard);
  EXPECT_EQ(heap.stats().link_syncs, 1u);

  // Settling re-keys the stale top (1 -> 1.5), which lets the session at
  // 1.25 surface first; a non-deferred top is left alone.
  const std::vector<Channel*> links = {&link};
  heap.settle(links);
  EXPECT_FALSE(heap.link_deferred(0));
  EXPECT_DOUBLE_EQ(heap.link_key(0), 1.5);
  EXPECT_FALSE(heap.top().is_link);
  EXPECT_DOUBLE_EQ(heap.top().t, 1.25);
  heap.settle(links);
  EXPECT_EQ(heap.stats().link_syncs, 2u);
  EXPECT_EQ(heap.stats().lower_bound_misses, 0u);

  // A link with no heap entry has no key to defer.
  link.unregister_completion(1);
  heap.sync_link(0, link);
  heap.defer_link(0);
  EXPECT_FALSE(heap.link_deferred(0));
  EXPECT_FALSE(heap.has_link(0));
}

TEST(EventHeapStats, PopsCountEveryPop) {
  fleet::EventHeap heap(4, 0);
  heap.schedule_session(0, 1.0);
  heap.schedule_session(1, 2.0);
  heap.schedule_session(2, 3.0);
  EXPECT_EQ(heap.stats().pops, 0u);
  heap.pop();
  heap.pop();
  EXPECT_EQ(heap.stats().pops, 2u);
  // Re-keys and erases are not pops.
  heap.schedule_session(2, 4.0);
  heap.erase_session(2);
  EXPECT_EQ(heap.stats().pops, 2u);
}

TEST(EventHeapStats, LinkSyncsCountEveryCall) {
  fleet::EventHeap heap(2, 1);
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.register_completion(0, 1000.0);

  heap.sync_link(0, link);
  EXPECT_EQ(heap.stats().link_syncs, 1u);

  // Every call re-keys, whether or not the population moved in between.
  heap.sync_link(0, link);
  link.add_flow(0.25);
  heap.sync_link(0, link);
  EXPECT_EQ(heap.stats().link_syncs, 3u);

  // A sync that drops the link from the heap counts too; pops do not.
  link.unregister_completion(0);
  heap.sync_link(0, link);
  EXPECT_TRUE(heap.empty());
  EXPECT_EQ(heap.stats().link_syncs, 4u);
  EXPECT_EQ(heap.stats().pops, 0u);
}

}  // namespace
}  // namespace demuxabr
