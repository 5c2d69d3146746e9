#include "net/link.h"

#include <gtest/gtest.h>

#include <limits>

#include "util/logging.h"

namespace demuxabr {
namespace {

TEST(Link, DoubleRemoveIsDetected) {
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.remove_flow(1.0);
#ifdef NDEBUG
  // Release: clamp at zero and log an error rather than corrupting the
  // processor-sharing count for every other flow on the link.
  CaptureLogSink capture;
  ScopedLogSink sink_guard(&capture);
  link.remove_flow(2.0);
  EXPECT_EQ(link.active_flows(), 0);
  EXPECT_TRUE(capture.contains("double remove"));
  // The link stays functional after the clamp: accounting is not corrupt.
  const double v0 = link.add_flow(3.0);
  EXPECT_DOUBLE_EQ(link.service_at(4.0) - v0, 1000.0);
  EXPECT_EQ(link.active_flows(), 1);
#else
  // Debug: a double remove is a caller bug and asserts.
  EXPECT_DEATH(link.remove_flow(2.0), "remove_flow");
#endif
}

TEST(Link, PeakFlowsTracksHighWaterMark) {
  Link link(BandwidthTrace::constant(1000.0));
  EXPECT_EQ(link.peak_flows(), 0);
  link.add_flow(0.0);
  link.add_flow(0.0);
  link.add_flow(0.0);
  link.remove_flow(0.0);
  link.remove_flow(0.0);
  EXPECT_EQ(link.active_flows(), 1);
  EXPECT_EQ(link.peak_flows(), 3);
  link.add_flow(0.0);
  EXPECT_EQ(link.peak_flows(), 3);  // below the high-water mark
}

TEST(Link, PeakFlowsSurvivesFinalize) {
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.add_flow(0.0);
  link.remove_flow(1.0);
  link.remove_flow(2.0);  // drained to zero
  EXPECT_EQ(link.peak_flows(), 2);
  // Closing the books must not reset the cross-run high-water mark — the
  // fleet scheduler reads peak_flows *after* finalize().
  link.finalize(10.0);
  EXPECT_EQ(link.peak_flows(), 2);
  EXPECT_EQ(link.active_flows(), 0);
  EXPECT_DOUBLE_EQ(link.observed_s(), 10.0);
}

TEST(Link, CapacityFollowsTrace) {
  Link link(BandwidthTrace::square_wave(300.0, 900.0, 10.0, 10.0));
  EXPECT_DOUBLE_EQ(link.capacity_kbps(5.0), 300.0);
  EXPECT_DOUBLE_EQ(link.capacity_kbps(15.0), 900.0);
}

TEST(Link, ServiceIntegralAccruesPerFlow) {
  Link link(BandwidthTrace::constant(1000.0));
  // A lone flow receives the full 1000 kbps: after 2 s it has 2000 kbit.
  const double v0 = link.add_flow(0.0);
  EXPECT_DOUBLE_EQ(v0, 0.0);
  EXPECT_DOUBLE_EQ(link.service_at(2.0) - v0, 2000.0);
  // A second flow joins at t=2: service now accrues at 500 kbit/s per flow.
  const double v1 = link.add_flow(2.0);
  EXPECT_DOUBLE_EQ(v1, 2000.0);
  EXPECT_DOUBLE_EQ(link.service_at(4.0) - v1, 1000.0);
  // The first flow's total = shared prefix + shared suffix.
  EXPECT_DOUBLE_EQ(link.service_at(4.0) - v0, 3000.0);
}

TEST(Link, ServiceIntegralWalksTraceSegments) {
  // 300 kbps for 10 s, then 900 kbps for 10 s.
  Link link(BandwidthTrace::square_wave(300.0, 900.0, 10.0, 10.0));
  link.add_flow(0.0);
  EXPECT_DOUBLE_EQ(link.service_at(10.0), 3000.0);
  EXPECT_DOUBLE_EQ(link.service_at(12.0), 3000.0 + 1800.0);
}

TEST(Link, TimeWhenServiceReachesInvertsTheIntegral) {
  Link link(BandwidthTrace::square_wave(300.0, 900.0, 10.0, 10.0));
  link.add_flow(0.0);
  // 1500 kbit at 300 kbps -> t = 5.
  EXPECT_DOUBLE_EQ(link.time_when_service_reaches(1500.0), 5.0);
  // 3900 kbit: 3000 in the first segment + 900 at 900 kbps -> t = 11.
  EXPECT_DOUBLE_EQ(link.time_when_service_reaches(3900.0), 11.0);
  // Already-served targets report the link clock (last mutation time).
  EXPECT_DOUBLE_EQ(link.time_when_service_reaches(-1.0), 0.0);
}

TEST(Link, TimeWhenServiceReachesOnIdleLinkIsNever) {
  Link link(BandwidthTrace::constant(1000.0));
  EXPECT_EQ(link.time_when_service_reaches(1.0),
            std::numeric_limits<double>::infinity());
}

TEST(Link, CompletionRegistryOrdersByTargetThenToken) {
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(0.0);
  link.register_completion(7, 2000.0);
  link.register_completion(3, 1000.0);
  EXPECT_TRUE(link.has_completions());
  EXPECT_EQ(link.earliest_completion_token(), 3u);
  EXPECT_DOUBLE_EQ(link.earliest_completion_time(), 1.0);
  link.unregister_completion(3);
  EXPECT_EQ(link.earliest_completion_token(), 7u);
  EXPECT_DOUBLE_EQ(link.earliest_completion_time(), 2.0);
  link.unregister_completion(7);
  EXPECT_FALSE(link.has_completions());
  EXPECT_EQ(link.earliest_completion_time(),
            std::numeric_limits<double>::infinity());
}

TEST(Link, UtilizationIntegralsCoverIdleTime) {
  Link link(BandwidthTrace::constant(1000.0));
  link.add_flow(1.0);     // idle for [0, 1)
  link.remove_flow(3.0);  // busy for [1, 3)
  link.finalize(4.0);     // idle tail [3, 4)
  EXPECT_DOUBLE_EQ(link.observed_s(), 4.0);
  EXPECT_DOUBLE_EQ(link.busy_s(), 2.0);
  EXPECT_DOUBLE_EQ(link.flow_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(link.offered_kbit(), 4000.0);
  EXPECT_DOUBLE_EQ(link.delivered_kbit(), 2000.0);
}

TEST(Network, SharedLinkIsSameObject) {
  const Network net = Network::shared(BandwidthTrace::constant(700.0));
  EXPECT_TRUE(net.is_shared());
  EXPECT_EQ(&net.link_for(true), &net.link_for(false));
  net.link_for(true).add_flow(0.0);
  EXPECT_EQ(net.link_for(false).active_flows(), 1);
}

TEST(Network, SplitLinksAreIndependent) {
  const Network net = Network::split(BandwidthTrace::constant(700.0),
                                     BandwidthTrace::constant(200.0));
  EXPECT_FALSE(net.is_shared());
  net.link_for(true).add_flow(0.0);
  EXPECT_EQ(net.link_for(false).active_flows(), 0);
  EXPECT_DOUBLE_EQ(net.link_for(true).capacity_kbps(0.0), 700.0);
  EXPECT_DOUBLE_EQ(net.link_for(false).capacity_kbps(0.0), 200.0);
}

TEST(Network, DefaultRtt) {
  const Network net = Network::shared(BandwidthTrace::constant(700.0));
  EXPECT_DOUBLE_EQ(net.rtt_s, 0.05);
  const Network custom = Network::shared(BandwidthTrace::constant(700.0), 0.2);
  EXPECT_DOUBLE_EQ(custom.rtt_s, 0.2);
}

}  // namespace
}  // namespace demuxabr
