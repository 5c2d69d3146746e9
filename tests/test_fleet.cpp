// Fleet simulator contract tests: stepping-API equivalence with the solo
// run() loop, determinism of whole-fleet runs (same seed => identical
// aggregate fingerprint, at any replication thread count), processor-sharing
// fairness across identical clients, churn slot accounting, and the
// population model.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "experiments/sweep.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "fleet/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/logging.h"

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

PlayerShare exo_share(double weight = 1.0) {
  return {"exoplayer", &make_exo, weight};
}

/// Small fleet config used throughout: short per-client budget keeps the
/// tests fast even when contention starves a client.
FleetConfig base_config(int clients, std::uint64_t seed = 7) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = seed;
  config.players.push_back(exo_share());
  config.session.max_sim_time_s = 1800.0;
  return config;
}

TEST(SessionStepping, ManualLoopMatchesRun) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "stepping");

  ExoPlayerModel via_run;
  const SessionLog run_log = ex::run(setup, via_run);

  ExoPlayerModel via_steps;
  const Network network = Network::shared(setup.trace, setup.rtt_s);
  StreamingSession session(setup.content, setup.view, network, via_steps,
                           setup.session);
  session.start();
  while (!session.done()) {
    session.begin_step();
    session.advance_to(session.next_event_time());
  }
  const SessionLog step_log = session.finish();

  EXPECT_EQ(ex::log_fingerprint(run_log), ex::log_fingerprint(step_log));
}

TEST(SessionStepping, StartTimeOffsetsClockButNotStartupDelay) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "offset");

  ExoPlayerModel at_zero;
  const SessionLog base = ex::run(setup, at_zero);

  SessionConfig shifted_config = setup.session;
  shifted_config.start_time_s = 100.0;
  shifted_config.max_sim_time_s = 100.0 + setup.session.max_sim_time_s;
  ExoPlayerModel shifted_player;
  const Network network = Network::shared(setup.trace, setup.rtt_s);
  StreamingSession shifted(setup.content, setup.view, network, shifted_player,
                           shifted_config);
  const SessionLog log = shifted.run();

  EXPECT_TRUE(log.completed);
  // The clock is absolute; startup delay stays relative to the arrival.
  EXPECT_GE(log.end_time_s, 100.0);
  EXPECT_NEAR(log.startup_delay_s, base.startup_delay_s, 1e-6);
  ASSERT_FALSE(log.downloads.empty());
  EXPECT_GE(log.downloads.front().start_t, 100.0);
}

TEST(Fleet, SingleClientMatchesSoloSession) {
  // A fleet of one on a shared link is exactly the solo engine.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "solo");
  ExoPlayerModel solo;
  const SessionLog solo_log = ex::run(setup, solo);

  const FleetConfig config = base_config(1);
  const FleetResult result =
      run_fleet(setup.content, setup.view, setup.trace, config);
  ASSERT_EQ(result.clients.size(), 1u);
  EXPECT_EQ(ex::log_fingerprint(solo_log),
            ex::log_fingerprint(result.clients[0].log));
}

TEST(Fleet, SameSeedSameFingerprint) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "determinism");
  FleetConfig config = base_config(4, 21);
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.2;
  config.churn.leave_probability = 0.5;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;

  const BandwidthTrace bottleneck = BandwidthTrace::constant(2500.0);
  const FleetResult first = run_fleet(setup.content, setup.view, bottleneck, config);
  const FleetResult second = run_fleet(setup.content, setup.view, bottleneck, config);
  EXPECT_EQ(fleet_fingerprint(first), fleet_fingerprint(second));

  FleetConfig other_seed = config;
  other_seed.seed = 22;
  const FleetResult third =
      run_fleet(setup.content, setup.view, bottleneck, other_seed);
  EXPECT_NE(fleet_fingerprint(first), fleet_fingerprint(third));
}

TEST(Fleet, ReplicationsIdenticalAcrossThreadCounts) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(2000.0), "replications");
  FleetConfig config = base_config(2, 5);
  // Stochastic arrivals and churn: the seed must change the outcome, so the
  // different-seed sanity check below has teeth.
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.3;
  config.churn.leave_probability = 0.5;

  ReplicationOptions serial;
  serial.replications = 3;
  serial.threads = 1;
  const auto serial_reps =
      run_replications(setup.content, setup.view, setup.trace, config, serial);

  ReplicationOptions pooled = serial;
  pooled.threads = 4;
  const auto pooled_reps =
      run_replications(setup.content, setup.view, setup.trace, config, pooled);

  ASSERT_EQ(serial_reps.size(), 3u);
  ASSERT_EQ(pooled_reps.size(), 3u);
  for (std::size_t r = 0; r < serial_reps.size(); ++r) {
    EXPECT_EQ(serial_reps[r].seed, pooled_reps[r].seed);
    EXPECT_EQ(fleet_fingerprint(serial_reps[r].result),
              fleet_fingerprint(pooled_reps[r].result));
  }
  // Different seeds produce different fleets.
  EXPECT_NE(fleet_fingerprint(serial_reps[0].result),
            fleet_fingerprint(serial_reps[1].result));
}

TEST(Fleet, IdenticalClientsOnFlatLinkAreFair) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "fairness");
  const FleetConfig config = base_config(2);
  // Twice the solo capacity: the fair share per client is the solo link.
  const BandwidthTrace bottleneck = BandwidthTrace::constant(1800.0);
  const FleetResult result =
      run_fleet(setup.content, setup.view, bottleneck, config);

  ASSERT_EQ(result.clients.size(), 2u);
  const FleetMetrics metrics = compute_fleet_metrics(result);
  EXPECT_EQ(metrics.clients, 2);
  // Identical deterministic clients arriving together make identical
  // decisions: equal average bitrate (within a generous epsilon) and a Jain
  // index of ~1.
  EXPECT_NEAR(result.clients[0].qoe.avg_video_kbps,
              result.clients[1].qoe.avg_video_kbps, 10.0);
  EXPECT_GT(metrics.jain_fairness_video, 0.999);
  EXPECT_GT(metrics.jain_fairness_throughput, 0.999);
  EXPECT_GT(result.video_link.peak_flows, 1);  // they really contended
  EXPECT_EQ(result.video_link.residual_flows, 0);
}

TEST(Fleet, ContentionDegradesSelectedBitrate) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1200.0), "contention");
  const BandwidthTrace bottleneck = BandwidthTrace::constant(1200.0);

  const FleetResult alone =
      run_fleet(setup.content, setup.view, bottleneck, base_config(1));
  const FleetResult crowd =
      run_fleet(setup.content, setup.view, bottleneck, base_config(4));

  const FleetMetrics alone_metrics = compute_fleet_metrics(alone);
  const FleetMetrics crowd_metrics = compute_fleet_metrics(crowd);
  // Four clients on the same pipe cannot all sustain the solo bitrate.
  EXPECT_LT(crowd_metrics.video_kbps.mean, alone_metrics.video_kbps.mean);
  EXPECT_GE(crowd.video_link.peak_flows, alone.video_link.peak_flows);
}

TEST(Fleet, ChurnReleasesSharedLinkSlots) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(600.0), "churn");
  FleetConfig config = base_config(3, 11);
  config.churn.leave_probability = 1.0;  // everyone abandons
  config.churn.min_watch_s = 10.0;
  config.churn.max_watch_s = 30.0;

  const FleetResult result = run_fleet(setup.content, setup.view,
                                       BandwidthTrace::constant(1500.0), config);

  ASSERT_EQ(result.clients.size(), 3u);
  const FleetMetrics metrics = compute_fleet_metrics(result);
  EXPECT_EQ(metrics.departed_early, 3);
  for (const ClientResult& client : result.clients) {
    EXPECT_TRUE(client.departed_early);
    EXPECT_FALSE(client.log.completed);
    // Departure happens at the planned watch horizon, not at the cap.
    EXPECT_LE(client.log.end_time_s, client.arrival_s + 30.0 + 1.0);
  }
  // Every abandoned flow released its processor-sharing slot.
  EXPECT_GT(result.video_link.peak_flows, 0);
  EXPECT_EQ(result.video_link.residual_flows, 0);
}

TEST(Fleet, SplitAudioPathTracksBothLinks) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "split");
  FleetConfig config = base_config(2, 3);
  config.topology = TopologySpec::split_audio(BandwidthTrace::constant(2000.0),
                                              BandwidthTrace::constant(256.0));
  const FleetResult result =
      run_fleet(setup.content, setup.view, setup.trace, config);

  EXPECT_TRUE(result.split_audio);
  ASSERT_EQ(result.links.size(), 2u);
  const LinkStats& video = result.links[0];
  const LinkStats& audio = result.links[1];
  EXPECT_GT(video.busy_s, 0.0);
  EXPECT_GT(audio.busy_s, 0.0);
  EXPECT_EQ(video.name, "video-bottleneck");
  EXPECT_EQ(audio.name, "audio-bottleneck");
  EXPECT_EQ(result.video_link.name, "video-bottleneck");
  // Utilization is a fraction of offered capacity.
  EXPECT_GE(video.utilization(), 0.0);
  EXPECT_LE(video.utilization(), 1.0 + 1e-9);
  EXPECT_LE(audio.utilization(), 1.0 + 1e-9);
}

/// Run one config under both engines and require byte-identical outcomes:
/// every per-client chunk log and the whole-fleet fingerprint.
void expect_engines_identical(const ex::ExperimentSetup& setup,
                              const BandwidthTrace& bottleneck,
                              FleetConfig config) {
  config.engine = Engine::kBarrier;
  const FleetResult barrier =
      run_fleet(setup.content, setup.view, bottleneck, config);
  config.engine = Engine::kEventHeap;
  const FleetResult heap =
      run_fleet(setup.content, setup.view, bottleneck, config);

  ASSERT_EQ(barrier.clients.size(), heap.clients.size());
  for (std::size_t i = 0; i < barrier.clients.size(); ++i) {
    EXPECT_EQ(ex::log_fingerprint(barrier.clients[i].log),
              ex::log_fingerprint(heap.clients[i].log))
        << "client " << barrier.clients[i].id;
  }
  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
}

TEST(CrossEngine, IdenticalOnPaperTraceAcrossFleetSizes) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "cross-engine");
  for (const int n : {1, 2, 10, 50}) {
    SCOPED_TRACE("clients=" + std::to_string(n));
    FleetConfig config = base_config(n, 21);
    config.arrivals = ArrivalProcess::kPoisson;
    config.arrival_rate_per_s = 0.2;
    config.churn.leave_probability = 0.5;
    config.churn.min_watch_s = 20.0;
    config.churn.max_watch_s = 90.0;
    // Capacity scales with the fleet so large-N runs stay contended but
    // finite; the comparison is engine-vs-engine, not across N.
    const BandwidthTrace bottleneck =
        BandwidthTrace::constant(600.0 * static_cast<double>(n) + 1300.0);
    expect_engines_identical(setup, bottleneck, config);
  }
}

TEST(CrossEngine, IdenticalOnSplitAudioPath) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "cross-split");
  FleetConfig config = base_config(4, 3);
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 7.0;

  config.topology = TopologySpec::split_audio(BandwidthTrace::constant(2000.0),
                                              BandwidthTrace::constant(256.0));

  config.engine = Engine::kBarrier;
  const FleetResult barrier =
      run_fleet(setup.content, setup.view, setup.trace, config);
  config.engine = Engine::kEventHeap;
  const FleetResult heap = run_fleet(setup.content, setup.view, setup.trace, config);

  EXPECT_EQ(fleet_fingerprint(barrier), fleet_fingerprint(heap));
}

TEST(CrossEngine, ZeroWatchChurnDepartsAtArrival) {
  // leave_at == arrival exactly: every client churns out before streaming a
  // single chunk. Both engines must agree and leave no residual flows.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "zero-watch");
  FleetConfig config = base_config(6, 13);
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.churn.leave_probability = 1.0;
  config.churn.min_watch_s = 0.0;
  config.churn.max_watch_s = 0.0;

  for (const ClientPlan& plan : plan_population(config)) {
    EXPECT_EQ(plan.leave_at_s, plan.arrival_s);
  }

  for (const Engine engine : {Engine::kBarrier, Engine::kEventHeap}) {
    SCOPED_TRACE(engine == Engine::kBarrier ? "barrier" : "event_heap");
    config.engine = engine;
    const FleetResult result = run_fleet(
        setup.content, setup.view, BandwidthTrace::constant(1500.0), config);
    ASSERT_EQ(result.clients.size(), 6u);
    for (const ClientResult& client : result.clients) {
      EXPECT_TRUE(client.departed_early);
      EXPECT_FALSE(client.log.completed);
    }
    EXPECT_EQ(result.video_link.residual_flows, 0);
  }
  expect_engines_identical(setup, BandwidthTrace::constant(1500.0), config);
}

TEST(CrossEngine, ZeroSessionBudgetRetiresClientsAtArrival) {
  // The per-client sim cap equals the arrival time: every session is born at
  // its cap. Neither engine may hang, and no client streams anything.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(900.0), "zero-budget");
  FleetConfig config = base_config(5, 29);
  config.session.max_sim_time_s = 0.0;
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;

  for (const Engine engine : {Engine::kBarrier, Engine::kEventHeap}) {
    SCOPED_TRACE(engine == Engine::kBarrier ? "barrier" : "event_heap");
    config.engine = engine;
    const FleetResult result = run_fleet(
        setup.content, setup.view, BandwidthTrace::constant(1500.0), config);
    ASSERT_EQ(result.clients.size(), 5u);
    for (const ClientResult& client : result.clients) {
      EXPECT_FALSE(client.log.completed);
      EXPECT_EQ(client.log.downloads.size(), 0u);
      EXPECT_DOUBLE_EQ(client.log.end_time_s, client.arrival_s);
    }
    EXPECT_EQ(result.video_link.residual_flows, 0);
  }
  expect_engines_identical(setup, BandwidthTrace::constant(1500.0), config);
}

TEST(Population, DeterministicPlansAndOrderedArrivals) {
  FleetConfig config;
  config.client_count = 50;
  config.seed = 99;
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 1.0;
  config.players.push_back(exo_share(0.7));
  config.players.push_back(
      {"dashjs",
       [] { return std::make_unique<DashJsPlayerModel>(); },
       0.3});
  config.churn.leave_probability = 0.25;

  const auto first = plan_population(config);
  const auto second = plan_population(config);
  ASSERT_EQ(first.size(), 50u);
  bool saw_both_players = false;
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].arrival_s, second[i].arrival_s);
    EXPECT_EQ(first[i].player_index, second[i].player_index);
    EXPECT_EQ(first[i].leave_at_s, second[i].leave_at_s);
    if (i > 0) {
      EXPECT_GE(first[i].arrival_s, first[i - 1].arrival_s);
      if (first[i].player_index != first[i - 1].player_index) saw_both_players = true;
    }
    if (first[i].leave_at_s < first[i].arrival_s) {
      ADD_FAILURE() << "client " << i << " leaves before arriving";
    }
  }
  EXPECT_TRUE(saw_both_players);
}

TEST(Population, SimultaneousArrivalsAllZero) {
  FleetConfig config;
  config.client_count = 5;
  config.players.push_back(exo_share());
  for (const ClientPlan& plan : plan_population(config)) {
    EXPECT_EQ(plan.arrival_s, 0.0);
    EXPECT_TRUE(std::isinf(plan.leave_at_s));
  }
}

TEST(Population, EmptyPlayerListIsDetected) {
  FleetConfig config;
  config.client_count = 5;
#ifdef NDEBUG
  // Release: with no player to assign, plan nobody and log an error rather
  // than read past the end of the empty player list.
  CaptureLogSink capture;
  ScopedLogSink sink_guard(&capture);
  EXPECT_TRUE(plan_population(config).empty());
  EXPECT_TRUE(capture.contains("players is empty"));
  // A whole fleet run on the same config finishes with no clients.
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(1000.0), "no-players");
  const FleetResult result =
      run_fleet(setup.content, setup.view, setup.trace, config);
  EXPECT_TRUE(result.clients.empty());
  EXPECT_EQ(result.steps, 0u);
#else
  // Debug: an empty player list is a configuration bug and asserts.
  EXPECT_DEATH(plan_population(config), "players must be non-empty");
#endif
}

TEST(Fleet, MixedPlayerPopulationRuns) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(ex::varying_600_trace(), "mixed");
  FleetConfig config = base_config(4, 17);
  config.players.clear();
  config.players.push_back(exo_share(0.5));
  config.players.push_back(
      {"coordinated",
       [] { return std::make_unique<CoordinatedPlayer>(); },
       0.5});
  config.arrivals = ArrivalProcess::kDeterministic;
  config.arrival_interval_s = 5.0;

  const FleetResult result = run_fleet(setup.content, setup.view,
                                       BandwidthTrace::constant(3000.0), config);
  ASSERT_EQ(result.clients.size(), 4u);
  for (const ClientResult& client : result.clients) {
    EXPECT_TRUE(client.log.completed) << "client " << client.id;
  }
  const FleetMetrics metrics = compute_fleet_metrics(result);
  EXPECT_EQ(metrics.completed, 4);
  EXPECT_GT(metrics.video_kbps.mean, 0.0);
  EXPECT_GT(result.steps, 0u);
}

}  // namespace
}  // namespace demuxabr::fleet
