// Assorted edge-case coverage across modules: Result/Status semantics,
// PlayerContext helpers, session config variants, estimator boundaries,
// controller interplay cases.
#include <gtest/gtest.h>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "manifest/builder.h"
#include "players/estimators.h"
#include "sim/session.h"
#include "util/result.h"

namespace demuxabr {
namespace {

namespace ex = demuxabr::experiments;

TEST(Result, ValueAndErrorPaths) {
  Result<int> ok_result = 42;
  EXPECT_TRUE(ok_result.ok());
  EXPECT_EQ(*ok_result, 42);
  Result<int> err_result = Error{"boom"};
  EXPECT_FALSE(err_result.ok());
  EXPECT_EQ(err_result.error(), "boom");
}

TEST(Result, TakeMovesValue) {
  Result<std::string> result = std::string("payload");
  const std::string taken = std::move(result).take();
  EXPECT_EQ(taken, "payload");
}

TEST(Status, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  Status failed = Error{"nope"};
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error(), "nope");
}

TEST(PlayerContext, TypedAccessors) {
  PlayerContext ctx;
  ctx.audio_buffer_s = 3.0;
  ctx.video_buffer_s = 7.0;
  ctx.next_audio_chunk = 2;
  ctx.next_video_chunk = 5;
  ctx.audio_downloading = true;
  EXPECT_DOUBLE_EQ(ctx.buffer_s(MediaType::kAudio), 3.0);
  EXPECT_DOUBLE_EQ(ctx.buffer_s(MediaType::kVideo), 7.0);
  EXPECT_EQ(ctx.next_chunk(MediaType::kAudio), 2);
  EXPECT_EQ(ctx.next_chunk(MediaType::kVideo), 5);
  EXPECT_TRUE(ctx.downloading(MediaType::kAudio));
  EXPECT_FALSE(ctx.downloading(MediaType::kVideo));
}

TEST(ProgressSample, ThroughputMath) {
  ProgressSample sample;
  sample.t0 = 1.0;
  sample.t1 = 1.125;
  sample.bytes = 12500;  // 100000 bits over 0.125 s = 800 kbps
  EXPECT_NEAR(sample.throughput_kbps(), 800.0, 1e-9);
  EXPECT_DOUBLE_EQ(sample.duration_s(), 0.125);
}

TEST(Session, RecordSeriesOffKeepsLogLean) {
  // Minimal-log mode is the one switch that turns series recording off.
  auto setup = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "lean");
  setup.session.minimal_log = true;
  CoordinatedPlayer player;
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
  EXPECT_TRUE(log.minimal);
  EXPECT_TRUE(log.audio_buffer_s.empty());
  EXPECT_TRUE(log.video_buffer_s.empty());
  EXPECT_TRUE(log.bandwidth_estimate_kbps.empty());
  EXPECT_TRUE(log.achieved_throughput_kbps.empty());
  EXPECT_TRUE(log.selected_video_kbps.empty());
  EXPECT_TRUE(log.selected_audio_kbps.empty());
  EXPECT_TRUE(log.video_selection.empty());
  EXPECT_TRUE(log.downloads.empty());

  // The same session with the full log records every series.
  auto full = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "full");
  CoordinatedPlayer full_player;
  const SessionLog full_log = ex::run(full, full_player);
  EXPECT_FALSE(full_log.video_buffer_s.empty());
  EXPECT_FALSE(full_log.bandwidth_estimate_kbps.empty());
  EXPECT_FALSE(full_log.achieved_throughput_kbps.empty());
  EXPECT_FALSE(full_log.selected_video_kbps.empty());
}

TEST(Session, CustomDeltaChangesSamplingGranularity) {
  auto fine = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "fine");
  fine.session.delta_s = 0.0625;
  CoordinatedPlayer p1;
  const SessionLog fine_log = ex::run(fine, p1);

  auto coarse = ex::bestpractice_dash(BandwidthTrace::constant(900.0), "coarse");
  coarse.session.delta_s = 0.5;
  CoordinatedPlayer p2;
  const SessionLog coarse_log = ex::run(coarse, p2);

  EXPECT_GT(fine_log.video_buffer_s.size(), coarse_log.video_buffer_s.size() * 4);
  EXPECT_TRUE(fine_log.completed);
  EXPECT_TRUE(coarse_log.completed);
}

TEST(ShakaEstimator, ExactFilterBoundary) {
  ShakaBandwidthEstimator estimator;
  ProgressSample sample;
  sample.t0 = 0.0;
  sample.t1 = 0.125;
  sample.bytes = 16 * 1024 - 1;  // one byte under the threshold
  estimator.on_progress(sample);
  EXPECT_EQ(estimator.accepted_samples(), 0u);
  sample.bytes = 16 * 1024;  // exactly at the threshold
  estimator.on_progress(sample);
  EXPECT_EQ(estimator.accepted_samples(), 1u);
}

TEST(ShakaEstimator, MinWeightGateUsesDefaultUntilMet) {
  ShakaEstimatorConfig config;
  config.min_total_weight_s = 1.0;
  ShakaBandwidthEstimator estimator(config);
  ProgressSample sample;
  sample.bytes = 50000;
  for (int i = 0; i < 7; ++i) {  // 7 * 0.125 = 0.875 < 1.0
    sample.t0 = i * 0.125;
    sample.t1 = sample.t0 + 0.125;
    estimator.on_progress(sample);
  }
  EXPECT_FALSE(estimator.has_good_estimate());
  EXPECT_DOUBLE_EQ(estimator.estimate_kbps(), 500.0);
  sample.t0 = 0.875;
  sample.t1 = 1.0;
  estimator.on_progress(sample);
  EXPECT_TRUE(estimator.has_good_estimate());
  EXPECT_GT(estimator.estimate_kbps(), 1000.0);
}

TEST(JointAbr, PanicIgnoresHoldTimer) {
  const Content content = make_drama_content();
  CurationPolicy policy;
  policy.device.screen = DeviceProfile::Screen::kTv;
  DashBuildOptions options;
  options.allowed_combinations = curate_staircase(content.ladder(), policy);
  JointAbrController abr(
      view_from_mpd(*parse_mpd(serialize_mpd(build_dash_mpd(content, options))))
          .combos_sorted());
  (void)abr.decide(0.0, 2000.0, 15.0);
  const std::size_t high = abr.current_index();
  ASSERT_GT(high, 0u);
  // 0.5 s later (hold active) but the buffer collapsed: drop anyway.
  EXPECT_LT(abr.decide(0.5, 300.0, 1.0), high);
}

TEST(Curation, SingleAudioTrackLadder) {
  const BitrateLadder ladder = make_ladder({96}, {200, 600, 1500});
  CurationPolicy policy;
  policy.device.screen = DeviceProfile::Screen::kTv;
  const auto combos = curate_combinations(ladder, policy);
  ASSERT_EQ(combos.size(), 3u);
  for (const AvCombination& combo : combos) EXPECT_EQ(combo.audio_id, "A1");
  // The staircase degenerates to the pairing (no audio steps to insert).
  EXPECT_EQ(curate_staircase(ladder, policy).size(), 3u);
}

TEST(Curation, MoreAudioThanVideo) {
  const BitrateLadder ladder = make_ladder({32, 64, 96, 128, 256}, {300, 900});
  CurationPolicy policy;
  policy.genre = ContentGenre::kMusic;
  policy.device.screen = DeviceProfile::Screen::kTv;
  const auto stairs = curate_staircase(ladder, policy);
  EXPECT_EQ(validate_combinations(ladder, stairs), "");
  EXPECT_GE(stairs.size(), 2u);
}

TEST(Network, SplitPathsWithDifferentTraceShapes) {
  // Square-wave video path + constant audio path: the engine must handle
  // per-link breakpoints independently.
  auto setup = ex::split_path_dash(BandwidthTrace::square_wave(500, 1500, 10, 10),
                                   BandwidthTrace::constant(300.0), "mixed");
  CoordinatedConfig config;
  config.per_path_estimation = true;
  CoordinatedPlayer player(config);
  const SessionLog log = ex::run(setup, player);
  EXPECT_TRUE(log.completed);
}

TEST(Summarize, IncompleteSessionFlagged) {
  SessionLog log;
  log.player_name = "x";
  log.completed = false;
  const std::string text = summarize(log, QoeReport{});
  EXPECT_NE(text.find("completed=NO"), std::string::npos);
}

}  // namespace
}  // namespace demuxabr
