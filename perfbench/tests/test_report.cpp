// Unit tests of the benchmark's own arithmetic (harness/report.h).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "experiments/scenarios.h"
#include "fleet/scheduler.h"
#include "players/exoplayer.h"
#include "report.h"

namespace perfbench {
namespace {

using namespace demuxabr;

TEST(Percentile, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 20.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 21.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({7, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, SamplesBeyondTheRank) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(Percentile, TailLevelKeepsTenSamplesBeyond) {
  EXPECT_EQ(tail_percentile_level(19), 0.0);
  EXPECT_EQ(tail_percentile_level(20), 50.0);
  EXPECT_EQ(tail_percentile_level(99), 50.0);
  EXPECT_EQ(tail_percentile_level(100), 90.0);
  EXPECT_EQ(tail_percentile_level(999), 90.0);
  EXPECT_EQ(tail_percentile_level(1000), 99.0);
  EXPECT_EQ(tail_percentile_level(9999), 99.0);
  EXPECT_EQ(tail_percentile_level(10000), 99.9);
  for (std::size_t n = 20; n < 12000; n += 37) {
    EXPECT_GE(samples_beyond(n, tail_percentile_level(n)), 10u) << n;
  }
}

TEST(Checks, ErrorRateCountsFailedOverAttempted) {
  Checks checks;
  EXPECT_EQ(checks.error_rate(), 0.0);
  checks.expect(true, "a");
  checks.expect(false, "b");
  checks.expect(true, "c");
  checks.expect(false, "d");
  EXPECT_EQ(checks.attempted(), 4u);
  EXPECT_EQ(checks.failed(), 2u);
  EXPECT_DOUBLE_EQ(checks.error_rate(), 0.5);
  ASSERT_EQ(checks.failures().size(), 2u);
  EXPECT_EQ(checks.failures()[1], "d");
  for (int i = 0; i < 20; ++i) checks.expect(false, "more");
  EXPECT_EQ(checks.failed(), 22u);
  EXPECT_EQ(checks.failures().size(), 8u);
}

/// Σ(end − arrival) must read the same whether it is summed from the full
/// per-client logs or taken from the streaming aggregate.
TEST(SimulatedSeconds, FullAndStreamingModesAgree) {
  const experiments::ExperimentSetup setup =
      experiments::plain_dash(BandwidthTrace::constant(1000.0), "perfbench-test");
  fleet::FleetConfig config;
  config.client_count = 12;
  config.seed = 5;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = 0.5;
  config.churn.leave_probability = 0.3;
  config.players = {{"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 1.0}};
  const BandwidthTrace trace = BandwidthTrace::constant(800.0 * config.client_count);

  const fleet::FleetResult full = fleet::run_fleet(setup.content, setup.view, trace, config);
  config.streaming.client_threshold = 0;
  const fleet::FleetResult streaming =
      fleet::run_fleet(setup.content, setup.view, trace, config);
  ASSERT_FALSE(full.streaming.has_value());
  ASSERT_TRUE(streaming.streaming.has_value());
  ASSERT_EQ(full.clients.size(), 12u);

  double expected = 0.0;
  for (const fleet::ClientResult& client : full.clients) {
    expected += client.log.end_time_s - client.arrival_s;
  }
  EXPECT_GT(expected, 0.0);
  EXPECT_DOUBLE_EQ(simulated_seconds(full), expected);
  EXPECT_NEAR(simulated_seconds(streaming), expected, 1e-9 * expected);
}

TEST(Spans, NestAndTotalPerGroup) {
  SpanRecorder spans;
  spans.set_enabled(true);
  for (int g = 0; g < 3; ++g) {
    spans.set_group("iter-" + std::to_string(g));
    SpanRecorder::Scope root(spans, "bench.iteration");
    SpanRecorder::Scope child(spans, "fleet.run_fleet");
  }
  spans.set_enabled(false);
  { SpanRecorder::Scope ignored(spans, "fleet.run_fleet"); }
  ASSERT_EQ(spans.spans().size(), 6u);
  EXPECT_EQ(spans.spans()[0].parent, -1);
  EXPECT_EQ(spans.spans()[1].parent, 0);
  EXPECT_EQ(spans.spans()[2].parent, -1);
  EXPECT_EQ(spans.spans()[3].parent, 2);
  EXPECT_EQ(spans.spans()[5].group, "iter-2");
  for (const SpanRecorder::Span& s : spans.spans()) EXPECT_LE(s.start_s, s.end_s);
  EXPECT_GE(spans.median_group_total("bench.iteration", "iter-"),
            spans.median_group_total("fleet.run_fleet", "iter-"));
  EXPECT_EQ(spans.median_group_total("fleet.run_fleet", "setup-"), 0.0);
  const std::string json = spans.chrome_json("{}");
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
}

/// A core at the nominal reference speed reads CPU seconds unchanged; a
/// core running the loop at half that speed did the same work in half as
/// many reference-seconds as it spent CPU seconds.
TEST(ReferenceTime, ScalesCpuSecondsByTheLoopSpeed) {
  EXPECT_DOUBLE_EQ(to_reference_s(2.0, kReferenceStepsPerS), 2.0);
  EXPECT_DOUBLE_EQ(to_reference_s(2.0, 0.5 * kReferenceStepsPerS), 1.0);
  EXPECT_DOUBLE_EQ(to_reference_s(0.0, kReferenceStepsPerS), 0.0);
  // Two equal-length runs at 2e6 and 6e6 steps/s: 2 runs' steps in
  // (1/2e6 + 1/6e6) CPU seconds per step, 3e6 steps/s together.
  EXPECT_DOUBLE_EQ(combined_speed({2e6, 6e6}), 3e6);
  EXPECT_DOUBLE_EQ(combined_speed({5e6}), 5e6);
  EXPECT_EQ(combined_speed({}), 0.0);
  const double speed = reference_steps_per_cpu_s();
  EXPECT_GT(speed, 0.0);
  EXPECT_TRUE(std::isfinite(speed));
}

TEST(Digest, Fnv1aKnownValues) {
  EXPECT_EQ(fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(hex64(fnv1a("a")), "af63dc4c8601ec8c");
}

}  // namespace
}  // namespace perfbench
