// Multi-link topology battery (fleet/topology.h), in three tiers:
//
//  1. Differential: kBarrier and kEventHeap produce byte-identical fleet
//     fingerprints on >=3-link client→edge→core topologies, heterogeneous
//     edges, a shared-core-only variant and a split audio path.
//  2. Property: a seeded random-topology generator (depth <= 3, fan-in
//     <= 8, 200+ cases) drives random flow schedules straight against the
//     Topology oracle and checks conservation (flow bytes partition each
//     link's delivered integral), residual_flows == 0, the min-share
//     bound (a path's rate/integral never exceeds any hop's fair share),
//     and bit-exact agreement of a 1-hop path with a plain net/link.h Link.
//     A second seeded suite checks the dirty and deferred sets, the
//     engine's only record of which completion keys moved: a leave on path
//     p dirties exactly the paths sharing a link with p; a join dirties p
//     and defers the other sharers. A third drives the engine's sync rules
//     against an EventHeap on time-varying traces and checks that every
//     deferred channel's stored key stays a lower bound of its fresh key.
//  3. Regression: finalize on never-used links (idle tail, 0/0 utilization
//     guard) and completion re-keying when the binding constraint moves
//     mid-flow (the join defers the moved path, and its stale key is
//     re-derived once it reaches the heap top).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "fleet/event_heap.h"
#include "fleet/metrics.h"
#include "fleet/scheduler.h"
#include "fleet/topology.h"
#include "net/link.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/strings.h"

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

std::unique_ptr<PlayerAdapter> make_dashjs() {
  return std::make_unique<DashJsPlayerModel>();
}

FleetConfig base_config(int clients, std::uint64_t seed = 7) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = seed;
  config.players.push_back({"exoplayer", &make_exo, 1.0});
  config.session.max_sim_time_s = 1800.0;
  return config;
}

/// Runs `config` under both engines and asserts byte-identical per-client
/// logs and fleet fingerprints. Returns the event-heap result for further
/// assertions.
FleetResult expect_engines_identical(const ex::ExperimentSetup& setup,
                                     FleetConfig config) {
  const BandwidthTrace unused = BandwidthTrace::constant(1000.0);
  config.engine = Engine::kBarrier;
  const FleetResult barrier = run_fleet(setup.content, setup.view, unused, config);
  config.engine = Engine::kEventHeap;
  FleetResult heap = run_fleet(setup.content, setup.view, unused, config);

  EXPECT_EQ(barrier.clients.size(), heap.clients.size());
  for (std::size_t i = 0;
       i < std::min(barrier.clients.size(), heap.clients.size()); ++i) {
    EXPECT_EQ(ex::log_fingerprint(barrier.clients[i].log),
              ex::log_fingerprint(heap.clients[i].log))
        << "client " << barrier.clients[i].id;
  }
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
  // Every deferred link key stayed a lower bound of its fresh key.
  EXPECT_EQ(heap.profile.lower_bound_misses, 0u);
  return heap;
}

// --- 1. Differential: cross-engine identity on multi-link topologies. ---

TEST(TopologyCrossEngine, ThreeLinkShardsAcrossFleetSizes) {
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "shards");
  for (const int clients : {1, 2, 10}) {
    FleetConfig config = base_config(clients, 11);
    config.arrivals = ArrivalProcess::kDeterministic;
    config.arrival_interval_s = 4.0;
    // Two client→edge→core shards; the core tightens as the fleet grows so
    // the binding constraint actually lives there under contention.
    config.topology = TopologySpec::sharded(
        2, BandwidthTrace::constant(4000.0), BandwidthTrace::constant(1800.0),
        BandwidthTrace::constant(400.0 * clients + 1200.0));
    const FleetResult result = expect_engines_identical(setup, config);
    EXPECT_EQ(result.links.size(), 5u);
    for (const LinkStats& link : result.links) {
      EXPECT_EQ(link.residual_flows, 0) << link.name;
    }
    for (const PathSummary& path : result.paths) {
      EXPECT_EQ(path.residual_flows, 0) << path.name;
    }
  }
}

TEST(TopologyCrossEngine, HeterogeneousEdgeCapacitiesWithChurn) {
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "hetero");
  FleetConfig config = base_config(10, 23);
  config.players.push_back({"dashjs", &make_dashjs, 0.5});
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.3;
  config.churn.leave_probability = 0.4;
  config.churn.min_watch_s = 15.0;
  config.churn.max_watch_s = 80.0;

  // Three shards with very different edge pipes — one generous, one
  // mid-tier on a square wave (binding flips with the wave), one starved.
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(5200.0));
  const std::size_t fast = spec.add_link("edge-fast", BandwidthTrace::constant(4000.0));
  const std::size_t wavy = spec.add_link(
      "edge-wavy", BandwidthTrace::square_wave(700.0, 2600.0, 12.0, 9.0));
  const std::size_t slow = spec.add_link("edge-slow", BandwidthTrace::constant(750.0));
  spec.add_path("fast", {fast, core});
  spec.add_path("wavy", {wavy, core});
  spec.add_path("slow", {slow, core});
  config.topology = std::move(spec);

  const FleetResult result = expect_engines_identical(setup, config);
  EXPECT_EQ(result.links.size(), 4u);
  // Every client must be attributed to a path in the result.
  for (const ClientResult& client : result.clients) {
    EXPECT_GE(client.video_path, 0);
    EXPECT_EQ(client.audio_path, client.video_path);
  }
  const FleetMetrics metrics = compute_fleet_metrics(result);
  ASSERT_EQ(metrics.path_groups.size(), 3u);
  int grouped = 0;
  for (const auto& group : metrics.path_groups) grouped += group.clients;
  EXPECT_EQ(grouped, static_cast<int>(result.clients.size()));
}

TEST(TopologyCrossEngine, SharedCoreOnlyVariant) {
  // Every path is the bare shared core — several 1-hop paths over one link
  // (the single-bottleneck fleet with per-path accounting).
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "core-only");
  FleetConfig config = base_config(6, 5);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 6.0;

  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(4800.0));
  spec.add_path("tenant-a", {core});
  spec.add_path("tenant-b", {core});
  config.topology = std::move(spec);

  const FleetResult result = expect_engines_identical(setup, config);
  ASSERT_EQ(result.links.size(), 1u);
  // All traversing paths are 1-hop, so the core saturates while busy:
  // delivered == offered over every busy interval.
  EXPECT_GT(result.links[0].busy_s, 0.0);
  EXPECT_EQ(result.links[0].residual_flows, 0);
}

TEST(TopologyCrossEngine, SplitAudioPath) {
  // Audio rides its own access+core chain while video crosses the shared
  // edge — the §4.1 different-servers scenario over a real topology.
  const ex::ExperimentSetup setup = ex::plain_dash(ex::varying_600_trace(), "split");
  FleetConfig config = base_config(4, 3);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 7.0;

  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(4000.0));
  const std::size_t edge = spec.add_link("edge", BandwidthTrace::constant(2200.0));
  const std::size_t audio_pipe =
      spec.add_link("audio-pipe", BandwidthTrace::constant(320.0));
  const std::size_t video_path = spec.add_path("video", {edge, core});
  const std::size_t audio_path = spec.add_path("audio", {audio_pipe, core});
  spec.video_assignment = {video_path};
  spec.audio_assignment = {audio_path};
  config.topology = std::move(spec);

  const FleetResult result = expect_engines_identical(setup, config);
  EXPECT_TRUE(result.split_audio);
  for (const ClientResult& client : result.clients) {
    EXPECT_NE(client.video_path, client.audio_path);
  }
  // The audio pipe saw traffic on every client.
  ASSERT_EQ(result.links.size(), 3u);
  EXPECT_GT(result.links[2].busy_s, 0.0);
}

// --- 2. Property suite over a seeded random-topology generator. ---

BandwidthTrace random_trace(Rng& rng) {
  const double base = rng.uniform(600.0, 5000.0);
  if (rng.bernoulli(0.35)) {
    return BandwidthTrace::square_wave(base * rng.uniform(0.2, 0.7), base,
                                       rng.uniform(2.0, 15.0),
                                       rng.uniform(2.0, 15.0));
  }
  return BandwidthTrace::constant(base);
}

/// Square wave with random levels and phases: every hop's capacity moves.
BandwidthTrace random_varying_trace(Rng& rng) {
  const double base = rng.uniform(600.0, 5000.0);
  return BandwidthTrace::square_wave(base * rng.uniform(0.2, 0.7), base,
                                     rng.uniform(2.0, 15.0), rng.uniform(2.0, 15.0));
}

/// Random tiered topology: depth <= 3 (access → edge → core), fan-in <= 8
/// shards into one core.
TopologySpec random_spec(Rng& rng) {
  TopologySpec spec;
  const auto depth = static_cast<int>(rng.uniform_int(1, 3));
  const auto fan_in = static_cast<int>(rng.uniform_int(1, 8));
  const std::size_t core = spec.add_link("core", random_trace(rng));
  for (int e = 0; e < fan_in; ++e) {
    std::vector<std::size_t> hops;
    if (depth >= 3) hops.push_back(spec.add_link(format("access-%d", e), random_trace(rng)));
    if (depth >= 2) hops.push_back(spec.add_link(format("edge-%d", e), random_trace(rng)));
    hops.push_back(core);
    spec.add_path(format("path-%d", e), std::move(hops));
  }
  return spec;
}

struct OracleFlow {
  std::size_t path = 0;
  double v_start_kbit = 0.0;
};

/// Drives one random flow schedule against a Topology and checks the
/// invariants. Returns the number of flow-add events (for sanity).
int run_oracle_case(std::uint64_t seed) {
  Rng rng(seed);
  TopologySpec spec = random_spec(rng);
  EXPECT_EQ(spec.validate(), "");
  const std::size_t path_count = spec.paths.size();
  Topology topo(std::move(spec));

  std::vector<std::shared_ptr<Channel>> channels;
  for (std::size_t p = 0; p < topo.path_count(); ++p) {
    channels.push_back(topo.path_channel(p));
  }
  // Per-link sum of flow service deltas (conservation ledger).
  std::vector<double> ledger_kbit(topo.link_count(), 0.0);
  std::vector<std::vector<std::size_t>> path_hops(topo.path_count());
  // Recover hop sets from the summaries (names are unique by construction).
  {
    const std::vector<PathSummary> summaries = topo.path_stats();
    for (std::size_t p = 0; p < summaries.size(); ++p) {
      for (const std::string& hop_name : summaries[p].hop_names) {
        for (std::size_t l = 0; l < topo.link_count(); ++l) {
          if (topo.link_name(l) == hop_name) path_hops[p].push_back(l);
        }
      }
    }
  }

  std::vector<OracleFlow> flows;
  double now = 0.0;
  int adds = 0;
  const int events = 30 + static_cast<int>(rng.uniform_int(0, 40));
  for (int e = 0; e < events; ++e) {
    now += rng.exponential(0.5);  // mean 2 s between population changes
    const bool add = flows.empty() || rng.bernoulli(0.55);
    if (add) {
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(path_count) - 1));
      OracleFlow flow;
      flow.path = p;
      flow.v_start_kbit = channels[p]->add_flow(now);
      flows.push_back(flow);
      ++adds;
    } else {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(flows.size()) - 1));
      const OracleFlow flow = flows[i];
      channels[flow.path]->remove_flow(now);
      const double delta = topo.path_service_kbit(flow.path) - flow.v_start_kbit;
      EXPECT_GE(delta, 0.0);
      for (const std::size_t l : path_hops[flow.path]) ledger_kbit[l] += delta;
      flows[i] = flows.back();
      flows.pop_back();
    }
    // Min-share invariant at the event time: no path rate above any of its
    // hops' fair shares.
    for (std::size_t p = 0; p < topo.path_count(); ++p) {
      const double rate = topo.path_rate_at(p, now);
      for (const std::size_t l : path_hops[p]) {
        EXPECT_LE(rate, topo.link_fair_share_at(l, now) * (1.0 + 1e-12));
      }
    }
  }
  // Drain every remaining flow, then close the books with an idle tail.
  now += rng.exponential(0.5);
  for (const OracleFlow& flow : flows) {
    channels[flow.path]->remove_flow(now);
  }
  // Deltas must be read against the post-drain integrals (all removals
  // happened at `now`, so every path's V is already advanced there).
  for (const OracleFlow& flow : flows) {
    const double delta = topo.path_service_kbit(flow.path) - flow.v_start_kbit;
    EXPECT_GE(delta, 0.0);
    for (const std::size_t l : path_hops[flow.path]) ledger_kbit[l] += delta;
  }
  topo.finalize(now + 5.0);

  const std::vector<LinkStats> links = topo.link_stats();
  for (std::size_t l = 0; l < links.size(); ++l) {
    // residual_flows == 0 on every link after a clean drain.
    EXPECT_EQ(links[l].residual_flows, 0) << links[l].name;
    // Conservation: the link's delivered integral is partitioned exactly by
    // the flow service deltas of the paths through it.
    const double tolerance = 1e-6 * std::max(1.0, links[l].delivered_kbit);
    EXPECT_NEAR(ledger_kbit[l], links[l].delivered_kbit, tolerance) << links[l].name;
    // A busy link never delivers more than it offers.
    EXPECT_LE(links[l].delivered_kbit, links[l].offered_kbit * (1.0 + 1e-12));
  }
  // Integral form of the min-share bound: V_P(end) <= V_l(end) per hop.
  for (std::size_t p = 0; p < topo.path_count(); ++p) {
    EXPECT_EQ(topo.path_stats()[p].residual_flows, 0);
    for (const std::size_t l : path_hops[p]) {
      EXPECT_LE(topo.path_service_kbit(p),
                topo.link_service_kbit(l) * (1.0 + 1e-12) + 1e-9);
    }
  }
  return adds;
}

TEST(TopologyProperty, RandomTopologiesHoldInvariantsOver200Cases) {
  int total_adds = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    total_adds += run_oracle_case(seed);
    if (testing::Test::HasFatalFailure()) return;
  }
  // The generator actually exercised flows (not a vacuous pass).
  EXPECT_GT(total_adds, 220 * 10);
}

/// Random cache-less topology whose paths share links only in part: 2..8
/// links and 1..8 paths of 1..3 distinct random hops, so a path's sharers
/// range from itself alone to every path. `time_varying` makes every link a
/// square wave (otherwise about a third are).
TopologySpec random_partial_spec(Rng& rng, bool time_varying = false) {
  TopologySpec spec;
  const std::int64_t link_count = rng.uniform_int(2, 8);
  for (std::int64_t l = 0; l < link_count; ++l) {
    spec.add_link(format("link-%d", static_cast<int>(l)),
                  time_varying ? random_varying_trace(rng) : random_trace(rng));
  }
  const std::int64_t path_count = rng.uniform_int(1, 8);
  for (std::int64_t p = 0; p < path_count; ++p) {
    const auto hop_count =
        static_cast<std::size_t>(rng.uniform_int(1, std::min<std::int64_t>(3, link_count)));
    std::vector<std::size_t> hops;
    while (hops.size() < hop_count) {
      const auto l = static_cast<std::size_t>(rng.uniform_int(0, link_count - 1));
      if (std::find(hops.begin(), hops.end(), l) == hops.end()) hops.push_back(l);
    }
    spec.add_path(format("path-%d", static_cast<int>(p)), std::move(hops));
  }
  return spec;
}

/// Sorted copy of the topology's dirty set.
std::vector<std::uint32_t> sorted_dirty(const Topology& topo) {
  std::vector<std::uint32_t> dirty = topo.dirty_channels();
  std::sort(dirty.begin(), dirty.end());
  return dirty;
}

/// Sorted copy of the topology's deferred set, minus channels dirtied since.
std::vector<std::uint32_t> sorted_deferred(const Topology& topo) {
  std::vector<std::uint32_t> deferred;
  for (const std::uint32_t p : topo.deferred_channels()) {
    if (!topo.is_dirty(p)) deferred.push_back(p);
  }
  std::sort(deferred.begin(), deferred.end());
  return deferred;
}

/// `all` without `p`.
std::vector<std::uint32_t> without(std::vector<std::uint32_t> all, std::size_t p) {
  all.erase(std::remove(all.begin(), all.end(), static_cast<std::uint32_t>(p)),
            all.end());
  return all;
}

/// For each path p of `spec`, the paths sharing a link with p (p included),
/// ascending.
std::vector<std::vector<std::uint32_t>> sharers_of(const TopologySpec& spec) {
  std::vector<std::vector<std::uint32_t>> sharers(spec.paths.size());
  for (std::size_t p = 0; p < spec.paths.size(); ++p) {
    for (std::size_t q = 0; q < spec.paths.size(); ++q) {
      const std::vector<std::size_t>& a = spec.paths[p].hops;
      const std::vector<std::size_t>& b = spec.paths[q].hops;
      const bool shares = std::any_of(a.begin(), a.end(), [&](std::size_t l) {
        return std::find(b.begin(), b.end(), l) != b.end();
      });
      if (shares) sharers[p].push_back(static_cast<std::uint32_t>(q));
    }
  }
  return sharers;
}

TEST(TopologyProperty, DirtySetIsExactlyTheLinkSharingPaths) {
  std::size_t partial_cases = 0;  // sharer sets strictly between {p} and all
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    Rng rng(seed);
    const TopologySpec spec = random_partial_spec(rng);
    ASSERT_EQ(spec.validate(), "");
    // Expected marks of a change on p, from the spec alone: a leave dirties
    // every sharer; a join dirties p and defers the other sharers.
    const std::vector<std::vector<std::uint32_t>> sharers = sharers_of(spec);
    Topology topo(spec);
    ASSERT_EQ(topo.channel_count(), spec.paths.size());
    std::vector<int> flows(spec.paths.size(), 0);
    double now = 0.0;
    for (int e = 0; e < 30; ++e) {
      now += rng.exponential(0.5);
      const auto p = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(spec.paths.size()) - 1));
      topo.clear_dirty();
      const std::shared_ptr<Channel> channel = topo.path_channel(p);
      if (flows[p] > 0 && rng.bernoulli(0.45)) {
        channel->remove_flow(now);
        --flows[p];
        EXPECT_EQ(sorted_dirty(topo), sharers[p]) << "leave on path " << p;
        EXPECT_TRUE(topo.deferred_channels().empty()) << "leave on path " << p;
      } else {
        channel->add_flow(now);
        ++flows[p];
        EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{
                                          static_cast<std::uint32_t>(p)}))
            << "join on path " << p;
        EXPECT_EQ(sorted_deferred(topo), without(sharers[p], p)) << "join on path " << p;
      }
      if (sharers[p].size() > 1 && sharers[p].size() < spec.paths.size()) {
        ++partial_cases;
      }
      topo.clear_dirty();
      EXPECT_TRUE(topo.dirty_channels().empty());
      EXPECT_TRUE(topo.deferred_channels().empty());
    }
    for (std::size_t p = 0; p < flows.size(); ++p) {
      for (; flows[p] > 0; --flows[p]) topo.path_channel(p)->remove_flow(now);
    }
  }
  // The generator produced paths that share some links but not all.
  EXPECT_GT(partial_cases, 100u);
}

TEST(TopologyProperty, DeferredKeysStayLowerBoundsOnTimeVaryingTraces) {
  // The engine's sync rules (fleet/scheduler.cpp) against a bare EventHeap:
  // completions fire at the settled top, joins and aborts arrive at random
  // times in between, and every link in every topology is a square wave,
  // so keys move with capacity segments as well as populations. After each
  // sync, every deferred channel's stored key must stay at or below its
  // freshly computed key, and every settled top must be exact.
  std::uint64_t deferred_checks = 0;
  std::uint64_t completions = 0;
  for (std::uint64_t seed = 1; seed <= 220; ++seed) {
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    Rng rng(seed);
    const TopologySpec spec = random_partial_spec(rng, /*time_varying=*/true);
    ASSERT_EQ(spec.validate(), "");
    Topology topo(spec);
    const std::size_t n = topo.channel_count();
    std::vector<Channel*> links;
    for (std::size_t p = 0; p < n; ++p) links.push_back(topo.path_channel(p).get());
    EventHeap heap(/*session_count=*/0, static_cast<std::uint32_t>(n));
    std::vector<std::vector<std::uint32_t>> live(n);  // tokens per path
    std::uint32_t next_token = 0;
    double now = 0.0;
    const auto drop = [&](std::size_t p, std::uint32_t token) {
      live[p].erase(std::find(live[p].begin(), live[p].end(), token));
      links[p]->remove_flow(now);
      links[p]->unregister_completion(token);
    };

    topo.clear_dirty();
    for (int e = 0; e < 80; ++e) {
      heap.settle(links);
      const double t_next = now + rng.exponential(0.5);
      if (!heap.empty() && heap.top().t <= t_next) {
        const EventHeap::Event top = heap.top();
        ASSERT_TRUE(top.is_link);
        EXPECT_FALSE(heap.link_deferred(top.index));
        EXPECT_EQ(top.t, links[top.index]->earliest_completion_time());
        now = std::max(now, top.t);
        drop(top.index, links[top.index]->earliest_completion_token());
        ++completions;
      } else {
        now = t_next;
        const auto p = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        if (!live[p].empty() && rng.bernoulli(0.3)) {
          const auto pick = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(live[p].size()) - 1));
          drop(p, live[p][pick]);  // an abort
        } else {
          const double v = links[p]->add_flow(now);
          links[p]->register_completion(next_token, v + rng.uniform(200.0, 30000.0));
          live[p].push_back(next_token++);
        }
      }
      for (const std::uint32_t idx : topo.dirty_channels()) {
        heap.sync_link(idx, *links[idx]);
      }
      for (const std::uint32_t idx : topo.deferred_channels()) {
        if (!topo.is_dirty(idx)) heap.defer_link(idx);
      }
      topo.clear_dirty();
      for (std::uint32_t q = 0; q < n; ++q) {
        if (!heap.has_link(q) || !heap.link_deferred(q)) continue;
        EXPECT_LE(heap.link_key(q), links[q]->earliest_completion_time())
            << "deferred path " << q << " at t=" << now;
        ++deferred_checks;
      }
    }
    EXPECT_EQ(heap.stats().lower_bound_misses, 0u);
    for (std::size_t p = 0; p < n; ++p) {
      while (!live[p].empty()) drop(p, live[p].back());
    }
  }
  // Both branches ran often: deferred keys were checked, completions fired.
  EXPECT_GT(deferred_checks, 2000u);
  EXPECT_GT(completions, 1000u);
}

TEST(TopologyRegression, DisjointChainDirtiesOnlyItself) {
  TopologySpec spec;
  for (int c = 0; c < 3; ++c) {
    const std::size_t access = spec.add_link(format("access-%d", c),
                                             BandwidthTrace::constant(2000.0));
    const std::size_t edge = spec.add_link(format("edge-%d", c),
                                           BandwidthTrace::constant(1000.0));
    spec.add_path(format("chain-%d", c), {access, edge});
  }
  Topology topo(std::move(spec));
  topo.clear_dirty();
  topo.path_channel(1)->add_flow(1.0);
  EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(sorted_deferred(topo).empty());
  topo.clear_dirty();
  topo.path_channel(1)->remove_flow(2.0);
  EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{1}));
  EXPECT_TRUE(topo.deferred_channels().empty());
  topo.clear_dirty();
  EXPECT_TRUE(topo.dirty_channels().empty());
}

TEST(TopologyRegression, SharedCoreDirtiesEveryPath) {
  Topology topo(TopologySpec::sharded(4, BandwidthTrace::constant(4000.0),
                                      BandwidthTrace::constant(2000.0),
                                      BandwidthTrace::constant(3000.0)));
  // Every path shares the core, so every change marks every path: a join
  // dirties the joiner and defers the rest (their keys can only move
  // later); a leave dirties all of them.
  topo.clear_dirty();
  topo.path_channel(2)->add_flow(1.0);
  EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(sorted_deferred(topo), (std::vector<std::uint32_t>{0, 1, 3}));
  topo.clear_dirty();
  topo.path_channel(2)->remove_flow(2.0);
  EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_TRUE(topo.deferred_channels().empty());
  topo.clear_dirty();
  EXPECT_TRUE(topo.dirty_channels().empty());
  EXPECT_TRUE(topo.deferred_channels().empty());
}

TEST(TopologyProperty, OneHopPathIsBitIdenticalToPlainLink) {
  // The degenerate arithmetic claim at the oracle level: a 1-link topology
  // and a bare Link driven through the same schedule agree to the last bit
  // on every service value, completion prediction and accounting integral.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(testing::Message() << "case seed " << seed);
    Rng rng(seed * 977);
    const BandwidthTrace trace = random_trace(rng);
    Link link(trace);
    Topology topo(TopologySpec::single(trace));
    const std::shared_ptr<Channel> path = topo.path_channel(0);

    double now = 0.0;
    int active = 0;
    for (int e = 0; e < 60; ++e) {
      now += rng.exponential(0.7);
      const bool add = active == 0 || rng.bernoulli(0.5);
      if (add) {
        const double link_v = link.add_flow(now);
        const double path_v = path->add_flow(now);
        EXPECT_EQ(link_v, path_v);
        ++active;
      } else {
        link.remove_flow(now);
        path->remove_flow(now);
        --active;
      }
      const double probe = now + rng.uniform(0.0, 30.0);
      EXPECT_EQ(link.service_at(probe), path->service_at(probe));
      const double target = link.service_at(now) + rng.uniform(1.0, 50000.0);
      EXPECT_EQ(link.time_when_service_reaches(target),
                path->time_when_service_reaches(target));
      EXPECT_EQ(link.active_flows(), path->active_flows());
      // Every change moves the one path's clock, so it is always dirty.
      EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{0}));
      topo.clear_dirty();
    }
    while (active-- > 0) {
      now += 0.25;
      link.remove_flow(now);
      path->remove_flow(now);
    }
    link.finalize(now + 3.0);
    topo.finalize(now + 3.0);
    const LinkStats stats = topo.link_stats()[0];
    EXPECT_EQ(link.busy_s(), stats.busy_s);
    EXPECT_EQ(link.flow_seconds(), stats.flow_seconds);
    EXPECT_EQ(link.offered_kbit(), stats.offered_kbit);
    EXPECT_EQ(link.delivered_kbit(), stats.delivered_kbit);
    EXPECT_EQ(link.peak_flows(), stats.peak_flows);
  }
}

// --- 3. Regression tests. ---

TEST(TopologyRegression, IdleAndZeroCapacityLinksFinalizeClean) {
  // Idle-tail accounting: a link nobody ever rode still closes its books.
  // 0/0 guard: a zero-capacity link offers nothing; utilization must come
  // back 0, not NaN.
  TopologySpec spec;
  spec.add_path("idle", {spec.add_link("idle", BandwidthTrace::constant(1000.0))});
  spec.add_path("dead", {spec.add_link("dead", BandwidthTrace::constant(0.0))});
  Topology topo(std::move(spec));
  topo.finalize(120.0);

  const std::vector<LinkStats> stats = topo.link_stats();
  ASSERT_EQ(stats.size(), 2u);
  const LinkStats& idle = stats[0];
  EXPECT_DOUBLE_EQ(idle.observed_s, 120.0);
  EXPECT_DOUBLE_EQ(idle.busy_s, 0.0);
  EXPECT_DOUBLE_EQ(idle.delivered_kbit, 0.0);
  EXPECT_DOUBLE_EQ(idle.offered_kbit, 120.0 * 1000.0);
  EXPECT_DOUBLE_EQ(idle.utilization(), 0.0);
  EXPECT_DOUBLE_EQ(idle.avg_flows(), 0.0);
  EXPECT_EQ(idle.residual_flows, 0);

  const LinkStats& dead = stats[1];
  EXPECT_DOUBLE_EQ(dead.offered_kbit, 0.0);
  EXPECT_DOUBLE_EQ(dead.utilization(), 0.0);
  EXPECT_FALSE(std::isnan(dead.utilization()));
}

TEST(TopologyRegression, NeverUsedTopologyLinkFinalizesClean) {
  // A declared link that no path traverses (a provisioned-but-dark pipe)
  // must finalize with pure idle books and not disturb its neighbours.
  TopologySpec spec;
  const std::size_t used = spec.add_link("used", BandwidthTrace::constant(2000.0));
  spec.add_link("dark", BandwidthTrace::constant(0.0));
  spec.add_path("only", {used});
  Topology topo(std::move(spec));

  const std::shared_ptr<Channel> path = topo.path_channel(0);
  path->add_flow(1.0);
  path->remove_flow(11.0);
  topo.finalize(20.0);

  const std::vector<LinkStats> stats = topo.link_stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_DOUBLE_EQ(stats[0].busy_s, 10.0);
  EXPECT_DOUBLE_EQ(stats[1].observed_s, 20.0);
  EXPECT_DOUBLE_EQ(stats[1].busy_s, 0.0);
  EXPECT_DOUBLE_EQ(stats[1].utilization(), 0.0);
  EXPECT_FALSE(std::isnan(stats[1].utilization()));
  EXPECT_EQ(stats[1].peak_flows, 0);
  EXPECT_EQ(stats[1].residual_flows, 0);
}

TEST(TopologyRegression, DoubleRemoveOnIdlePathIsDetected) {
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(3000.0));
  const std::size_t edge = spec.add_link("edge", BandwidthTrace::constant(1000.0));
  spec.add_path("a", {edge, core});
  Topology topo(std::move(spec));
  const std::shared_ptr<Channel> path = topo.path_channel(0);
  path->add_flow(0.0);
  path->remove_flow(1.0);
#ifdef NDEBUG
  // Release: clamp at zero and log an error rather than corrupting the
  // min-share counts of the path and of every link it traverses.
  CaptureLogSink capture;
  ScopedLogSink sink_guard(&capture);
  path->remove_flow(2.0);
  EXPECT_EQ(path->active_flows(), 0);
  EXPECT_TRUE(capture.contains("double remove"));
  // The path still serves correctly after the clamp: one flow gets the
  // binding edge's full 1000 kbps.
  const double v0 = path->add_flow(3.0);
  EXPECT_DOUBLE_EQ(path->service_at(4.0) - v0, 1000.0);
  EXPECT_EQ(path->active_flows(), 1);
  path->remove_flow(5.0);
  topo.finalize(6.0);
  for (const LinkStats& link : topo.link_stats()) {
    EXPECT_EQ(link.residual_flows, 0) << link.name;
    EXPECT_EQ(link.peak_flows, 1) << link.name;
  }
#else
  // Debug: a double remove is a caller bug and asserts.
  EXPECT_DEATH(path->remove_flow(2.0), "remove_flow");
#endif
}

TEST(TopologyRegression, CompletionRekeyedWhenBindingConstraintMoves) {
  // Path A rides edge(1000) → core(3000): binding starts at the edge. Five
  // flows then pile onto the core via path B, dropping the core's fair
  // share to 500 < 1000 — the binding constraint moves mid-flow, the
  // topology marks A dirty, and re-keying it shifts the completion later.
  TopologySpec spec;
  const std::size_t core = spec.add_link("core", BandwidthTrace::constant(3000.0));
  const std::size_t edge = spec.add_link("edge", BandwidthTrace::constant(1000.0));
  const std::size_t path_a = spec.add_path("a", {edge, core});
  const std::size_t path_b = spec.add_path("b", {core});
  Topology topo(std::move(spec));

  const std::shared_ptr<Channel> a = topo.path_channel(path_a);
  const std::shared_ptr<Channel> b = topo.path_channel(path_b);

  const double v_start = a->add_flow(0.0);
  const double target = v_start + 10000.0;  // 10 Mbit at 1000 kbps -> t=10
  a->register_completion(0, target);
  EXPECT_DOUBLE_EQ(a->earliest_completion_time(), 10.0);

  EventHeap heap(/*session_count=*/1, /*link_count=*/2);
  heap.sync_link(0, *a);
  heap.sync_link(1, *b);
  ASSERT_FALSE(heap.empty());
  EXPECT_DOUBLE_EQ(heap.top().t, 10.0);

  topo.clear_dirty();
  for (int i = 0; i < 5; ++i) b->add_flow(2.0);
  // Joins on a sibling path sharing the core dirty B and defer A: A's key
  // can only move later…
  EXPECT_EQ(sorted_dirty(topo), (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(sorted_deferred(topo), (std::vector<std::uint32_t>{0}));
  // …and the re-derived completion does land later: 2 Mbit done in the
  // first 2 s at 1000 kbps, the remaining 8 Mbit now trickles at
  // core/6 = 500.
  EXPECT_DOUBLE_EQ(a->earliest_completion_time(), 2.0 + 8000.0 / 500.0);

  // The engine's sync: dirty channels re-key now, deferred ones keep their
  // stale key as a guarded lower bound.
  const std::vector<std::shared_ptr<Channel>> channels = {a, b};
  for (const std::uint32_t idx : topo.dirty_channels()) {
    heap.sync_link(idx, *channels[idx]);
  }
  for (const std::uint32_t idx : topo.deferred_channels()) heap.defer_link(idx);
  topo.clear_dirty();
  EXPECT_TRUE(topo.dirty_channels().empty());
  EXPECT_TRUE(topo.deferred_channels().empty());
  ASSERT_FALSE(heap.empty());
  EXPECT_TRUE(heap.link_deferred(0));
  EXPECT_LE(heap.link_key(0), 10.0);
  // Lowered by the guard margin only.
  EXPECT_GE(heap.link_key(0), 10.0 * (1.0 - 2.0 * EventHeap::kDeferGuard));
  EXPECT_FALSE(heap.has_link(1));  // B registered no completion

  // Once A's stale key reaches the top, settling re-derives it: 10 -> 18.
  const std::vector<Channel*> raw = {a.get(), b.get()};
  heap.settle(raw);
  ASSERT_FALSE(heap.empty());
  EXPECT_TRUE(heap.top().is_link);
  EXPECT_EQ(heap.top().index, 0u);
  EXPECT_DOUBLE_EQ(heap.top().t, 18.0);
  EXPECT_FALSE(heap.link_deferred(0));
  EXPECT_EQ(heap.stats().lower_bound_misses, 0u);

  a->unregister_completion(0);
  a->remove_flow(4.0);
  for (int i = 0; i < 5; ++i) b->remove_flow(4.0);
  topo.finalize(5.0);
  for (const LinkStats& link : topo.link_stats()) {
    EXPECT_EQ(link.residual_flows, 0) << link.name;
  }
}

TEST(TopologySpecValidate, RejectsMalformedSpecs) {
  TopologySpec empty;
  EXPECT_NE(empty.validate(), "");

  TopologySpec no_paths;
  no_paths.add_link("l", BandwidthTrace::constant(1.0));
  EXPECT_NE(no_paths.validate(), "");

  TopologySpec bad_hop;
  bad_hop.add_link("l", BandwidthTrace::constant(1.0));
  bad_hop.add_path("p", {3});
  EXPECT_NE(bad_hop.validate(), "");

  TopologySpec dup_hop;
  const std::size_t l = dup_hop.add_link("l", BandwidthTrace::constant(1.0));
  dup_hop.add_path("p", {l, l});
  EXPECT_NE(dup_hop.validate(), "");

  TopologySpec bad_assignment = TopologySpec::single(BandwidthTrace::constant(1.0));
  bad_assignment.video_assignment = {4};
  EXPECT_NE(bad_assignment.validate(), "");

  TopologySpec negative_cache =
      TopologySpec::single(BandwidthTrace::constant(1.0), "edge");
  negative_cache.links[0].cache = CacheSpec{-100, -1};
  EXPECT_EQ(negative_cache.validate(), "link edge has negative cache capacity -100");

  EXPECT_EQ(TopologySpec::single(BandwidthTrace::constant(1.0)).validate(), "");
  EXPECT_EQ(TopologySpec::sharded(3, BandwidthTrace::constant(1.0),
                                  BandwidthTrace::constant(1.0),
                                  BandwidthTrace::constant(1.0))
                .validate(),
            "");
  const std::vector<std::size_t> blocks = TopologySpec::block_assignment(3, 2);
  EXPECT_EQ(blocks, (std::vector<std::size_t>{0, 0, 1, 1, 2, 2}));
}

}  // namespace
}  // namespace demuxabr::fleet
