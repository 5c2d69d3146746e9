// Golden fleet fingerprints: 64-bit FNV-1a digests of fleet_fingerprint()
// for one small fleet of each kind the engine runs — a plain single-link
// fleet (full logs, streaming metrics, telemetry on), a split-audio fleet, a
// two-component topology run serially and two cached CDN fleets. The digests
// were captured before every fleet became a Topology run through one
// partitioning run_fleet (DESIGN.md §7, §10), so they pin that the
// refactor changed no outcome, link book, CDN counter or telemetry bin. The
// regional-tier digest was captured before the fleet's edge caches and the
// §1 request replay were folded into one httpsim::CdnCache (DESIGN.md §11).
// A failure here means fleet behaviour moved; update a digest only for an
// intended behaviour change, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "experiments/scenarios.h"
#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "fleet/topology.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
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

std::string digest(const FleetResult& result) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const unsigned char c : fleet_fingerprint(result)) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return format("%016llx", static_cast<unsigned long long>(hash));
}

/// Mixed players, Poisson arrivals and churn: every engine path (arrivals,
/// departures, same-time ties) is exercised in a few seconds of CPU.
FleetConfig golden_config(int clients) {
  FleetConfig config;
  config.client_count = clients;
  config.seed = 17;
  config.players.push_back({"exoplayer", &make_exo, 2.0});
  config.players.push_back({"dashjs", &make_dashjs, 1.0});
  config.arrivals = ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.25;
  config.churn.leave_probability = 0.3;
  config.churn.min_watch_s = 20.0;
  config.churn.max_watch_s = 90.0;
  config.session.max_sim_time_s = 900.0;
  return config;
}

class GoldenFleet : public ::testing::Test {
 protected:
  const ex::ExperimentSetup setup_ =
      ex::plain_dash(BandwidthTrace::constant(900.0), "golden");
  const BandwidthTrace bottleneck_ =
      BandwidthTrace::square_wave(1500.0, 4000.0, 20.0, 30.0);

  FleetResult run(const FleetConfig& config) const {
    return run_fleet(setup_.content, setup_.view, bottleneck_, config);
  }
};

TEST_F(GoldenFleet, SingleLinkFullLogs) {
  EXPECT_EQ(digest(run(golden_config(8))), "88399b5cb3599b3a");
}

TEST_F(GoldenFleet, SingleLinkStreaming) {
  FleetConfig config = golden_config(8);
  config.streaming.client_threshold = 0;
  EXPECT_EQ(digest(run(config)), "1ecf22df51858bee");
}

TEST_F(GoldenFleet, SingleLinkTelemetry) {
  FleetConfig config = golden_config(8);
  config.telemetry.enabled = true;
  EXPECT_EQ(digest(run(config)), "7fc70a381207ba5f");
}

TEST_F(GoldenFleet, SplitAudio) {
  FleetConfig config = golden_config(6);
  config.topology = TopologySpec::split_audio(
      BandwidthTrace::square_wave(1200.0, 3000.0, 15.0, 25.0),
      BandwidthTrace::constant(300.0));
  EXPECT_EQ(digest(run(config)), "6b29e0228e4822f5");
}

TEST_F(GoldenFleet, TwoComponentTopologySerial) {
  TopologySpec spec;
  for (int i = 0; i < 2; ++i) {
    const std::size_t edge = spec.add_link(
        format("edge-%d", i), BandwidthTrace::constant(1800.0 + 600.0 * i));
    const std::size_t core = spec.add_link(
        format("core-%d", i), BandwidthTrace::square_wave(1500.0, 3500.0, 25.0, 25.0));
    spec.add_path(format("chain-%d", i), {edge, core});
  }
  FleetConfig config = golden_config(8);
  config.topology = std::move(spec);
  config.threads = 1;
  EXPECT_EQ(digest(run(config)), "2194bbe57a3284cf");
}

TEST_F(GoldenFleet, CachedCdn) {
  TopologySpec spec;
  for (int i = 0; i < 2; ++i) {
    const std::size_t access = spec.add_link(
        format("access-%d", i), BandwidthTrace::constant(3000.0 + 300.0 * i));
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(2000.0));
    spec.add_path(format("chain-%d", i), {access, core});
    spec.links[access].cache = CacheSpec{0, -1};
  }
  FleetConfig config = golden_config(8);
  config.topology = std::move(spec);
  EXPECT_EQ(digest(run(config)), "b770ba0aa941efcf");
}

TEST_F(GoldenFleet, CachedCdnRegionalTier) {
  // Bounded edge and regional tiers: the only golden fleet that pins
  // regional hits and eviction churn in both tiers.
  const std::int64_t catalog_bytes =
      make_fleet_catalog(setup_.content, StorageMode::kDemuxed)->total_bytes();
  TopologySpec spec;
  for (int i = 0; i < 2; ++i) {
    const std::size_t access = spec.add_link(
        format("access-%d", i), BandwidthTrace::constant(3000.0 + 300.0 * i));
    const std::size_t core =
        spec.add_link(format("core-%d", i), BandwidthTrace::constant(2000.0));
    spec.add_path(format("chain-%d", i), {access, core});
    spec.links[access].cache = CacheSpec{catalog_bytes / 320, catalog_bytes / 8};
  }
  FleetConfig config = golden_config(8);
  config.topology = std::move(spec);
  const FleetResult result = run(config);
  ASSERT_EQ(result.cdns.size(), 2u);
  for (const CdnStats& cdn : result.cdns) {
    EXPECT_GT(cdn.regional_hits, 0) << cdn.link_name;
    EXPECT_GT(cdn.edge_evictions, 0u) << cdn.link_name;
    EXPECT_GT(cdn.regional_evictions, 0u) << cdn.link_name;
  }
  EXPECT_EQ(digest(result), "20e53a0412304623");
}

}  // namespace
}  // namespace demuxabr::fleet
