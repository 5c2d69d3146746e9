// Microbenchmarks of the framework's hot paths: manifest serialize/parse,
// estimator updates, BOLA decisions, the fleet event queue (heap pops and
// shared-core re-keys), and end-to-end session throughput (simulated
// seconds per wall second).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "core/coordinated_player.h"
#include "experiments/scenarios.h"
#include "fleet/event_heap.h"
#include "fleet/topology.h"
#include "manifest/builder.h"
#include "players/bola.h"
#include "players/estimators.h"
#include "sim/session.h"
#include "util/rng.h"

namespace {

using namespace demuxabr;
namespace ex = demuxabr::experiments;

void BM_Micro_SerializeMpd(benchmark::State& state) {
  const Content content = make_drama_content();
  const MpdDocument mpd = build_dash_mpd(content);
  for (auto _ : state) {
    benchmark::DoNotOptimize(serialize_mpd(mpd).size());
  }
}
BENCHMARK(BM_Micro_SerializeMpd);

void BM_Micro_ParseMpd(benchmark::State& state) {
  const Content content = make_drama_content();
  const std::string xml_text = serialize_mpd(build_dash_mpd(content));
  for (auto _ : state) {
    auto parsed = parse_mpd(xml_text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(xml_text.size()));
}
BENCHMARK(BM_Micro_ParseMpd);

void BM_Micro_ParseHlsMaster(benchmark::State& state) {
  const Content content = make_drama_content();
  const std::string text = serialize_master(build_hall_master(content));
  for (auto _ : state) {
    auto parsed = parse_master(text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Micro_ParseHlsMaster);

void BM_Micro_ParseHlsMedia(benchmark::State& state) {
  const Content content = make_drama_content();
  HlsMediaOptions options;
  options.include_bitrate_tag = true;
  const std::string text = serialize_media(build_hls_media(content, "V5", options));
  for (auto _ : state) {
    auto parsed = parse_media(text);
    benchmark::DoNotOptimize(parsed.ok());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_Micro_ParseHlsMedia);

void BM_Micro_ShakaEstimatorUpdate(benchmark::State& state) {
  ShakaBandwidthEstimator estimator;
  ProgressSample sample;
  sample.bytes = 20000;
  double t = 0.0;
  for (auto _ : state) {
    sample.t0 = t;
    sample.t1 = t + 0.125;
    t += 0.125;
    estimator.on_progress(sample);
    benchmark::DoNotOptimize(estimator.estimate_kbps());
  }
}
BENCHMARK(BM_Micro_ShakaEstimatorUpdate);

void BM_Micro_ExoMeterUpdate(benchmark::State& state) {
  ExoBandwidthMeter meter;
  for (auto _ : state) {
    meter.on_transfer_end(300000, 3.0);
    benchmark::DoNotOptimize(meter.estimate_kbps());
  }
}
BENCHMARK(BM_Micro_ExoMeterUpdate);

void BM_Micro_BolaChoose(benchmark::State& state) {
  Bola bola({111, 246, 473, 914, 1852, 3746}, 20.0);
  double buffer = 0.0;
  for (auto _ : state) {
    buffer = buffer >= 22.0 ? 0.0 : buffer + 0.37;
    benchmark::DoNotOptimize(bola.choose(buffer));
  }
}
BENCHMARK(BM_Micro_BolaChoose);

// Before/after of the SessionLog preallocation: the sample_series() pattern
// (four TimeSeries gaining one point per delta tick) against cold vectors
// (Arg 0, the pre-reserve behaviour) vs. vectors reserved from the expected
// sample count (Arg 1, what StreamingSession now does via
// SessionLog::reserve_for). The delta is the allocation churn removed from
// the session hot path.
void BM_Micro_SessionLogReserve(benchmark::State& state) {
  const bool reserve = state.range(0) != 0;
  // A 300 s session sampled at the Shaka delta: 2400 ticks.
  constexpr int kTicks = 2400;
  constexpr double kDelta = 0.125;
  for (auto _ : state) {
    SessionLog log;
    if (reserve) {
      log.reserve_for(/*chunks=*/75, /*expected_duration_s=*/300.0, kDelta);
    }
    double t = 0.0;
    for (int i = 0; i < kTicks; ++i) {
      log.audio_buffer_s.add(t, 12.0);
      log.video_buffer_s.add(t, 9.5);
      log.bandwidth_estimate_kbps.add(t, 1432.0);
      log.achieved_throughput_kbps.add(t, 880.0);
      t += kDelta;
    }
    benchmark::DoNotOptimize(log.audio_buffer_s.size());
  }
  state.SetLabel(reserve ? "reserved" : "unreserved");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kTicks * 4);
}
BENCHMARK(BM_Micro_SessionLogReserve)->Arg(0)->Arg(1);

// The fleet event heap under the engine's tick pattern: ~1,010 entries (a
// 1000-client fleet plus its channels), pop the earliest and reinsert it
// one 0.125 s tick later. One item = one pop + one reinsert.
void BM_Micro_EventHeapTick(benchmark::State& state) {
  constexpr std::uint32_t kEntries = 1010;
  constexpr double kTick = 0.125;
  fleet::EventHeap heap(kEntries, 0);
  Rng rng(7);
  for (std::uint32_t id = 0; id < kEntries; ++id) {
    heap.schedule_session(id, rng.uniform(0.0, kTick));
  }
  for (auto _ : state) {
    const fleet::EventHeap::Event event = heap.top();
    heap.pop();
    heap.schedule_session(event.index, event.t + kTick);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Micro_EventHeapTick);

// Flow churn on a 10-edge shared core (TopologySpec::sharded), re-keyed as
// the fleet engine does. Each iteration, on the next path in turn, one of
// its 8 flows leaves and a new one joins, and the marked channels are
// synced. The leave dirties all 10 paths either way; the join dirties its
// own path and marks the other 9 deferred. Arg 0 re-keys every marked
// channel eagerly (the behaviour before lazy join re-keys); Arg 1 defers,
// then settles the heap top as the engine's loop head does. As in a fleet,
// a session tick (0.125 s out) sits above the completions (20-40 s out),
// so a deferred key is re-derived only if a leave does not re-key it first.
void BM_Micro_SharedCoreJoin(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  constexpr std::size_t kPaths = 10;
  constexpr std::uint32_t kFlowsPerPath = 8;
  fleet::Topology topo(fleet::TopologySpec::sharded(
      static_cast<int>(kPaths), BandwidthTrace::constant(4000.0),
      BandwidthTrace::constant(2000.0),
      BandwidthTrace::square_wave(6000.0, 12000.0, 8.0, 8.0)));
  std::vector<Channel*> links;
  for (std::size_t p = 0; p < kPaths; ++p) links.push_back(topo.path_channel(p).get());
  fleet::EventHeap heap(1, static_cast<std::uint32_t>(kPaths));
  const auto sync = [&] {
    for (const std::uint32_t idx : topo.dirty_channels()) heap.sync_link(idx, *links[idx]);
    for (const std::uint32_t idx : topo.deferred_channels()) {
      if (topo.is_dirty(idx)) continue;
      if (lazy) {
        heap.defer_link(idx);
      } else {
        heap.sync_link(idx, *links[idx]);
      }
    }
    topo.clear_dirty();
    heap.settle(links);
  };
  // 3 Mbit at the core's 75-150 kbps per-flow share: due 20-40 s out,
  // while a flow lives 80 iterations of 1 ms.
  constexpr double kTargetKbit = 3000.0;
  double now = 0.0;
  for (std::size_t p = 0; p < kPaths; ++p) {
    for (std::uint32_t f = 0; f < kFlowsPerPath; ++f) {
      const double v = links[p]->add_flow(now);
      links[p]->register_completion(static_cast<std::uint32_t>(p) * kFlowsPerPath + f,
                                    v + kTargetKbit);
    }
  }
  sync();
  std::array<std::uint32_t, kPaths> next_slot{};
  std::size_t p = 0;
  for (auto _ : state) {
    now += 1e-3;
    heap.schedule_session(0, now + 0.125);
    const std::uint32_t token =
        static_cast<std::uint32_t>(p) * kFlowsPerPath + next_slot[p];
    next_slot[p] = (next_slot[p] + 1) % kFlowsPerPath;
    links[p]->remove_flow(now);
    links[p]->unregister_completion(token);
    sync();
    const double v = links[p]->add_flow(now);
    links[p]->register_completion(token, v + kTargetKbit);
    sync();
    p = (p + 1) % kPaths;
  }
  state.SetLabel(lazy ? "lazy" : "eager");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["rekeys_per_iter"] = benchmark::Counter(
      static_cast<double>(heap.stats().link_syncs) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}
BENCHMARK(BM_Micro_SharedCoreJoin)->Arg(0)->Arg(1);

void BM_Micro_FullSession(benchmark::State& state) {
  const ex::ExperimentSetup setup =
      ex::bestpractice_dash(ex::varying_600_trace(), "micro");
  double simulated_s = 0.0;
  for (auto _ : state) {
    CoordinatedPlayer player;
    const SessionLog log = ex::run(setup, player);
    simulated_s = log.end_time_s;
    benchmark::DoNotOptimize(log.downloads.size());
  }
  state.counters["sim_seconds_per_run"] = simulated_s;
}
BENCHMARK(BM_Micro_FullSession)->Unit(benchmark::kMillisecond);

void BM_Micro_SessionScalesWithDuration(benchmark::State& state) {
  const double minutes = static_cast<double>(state.range(0));
  Content content = ContentBuilder(youtube_drama_ladder())
                        .duration_s(minutes * 60.0)
                        .chunk_duration_s(4.0)
                        .build();
  const auto mpd = parse_mpd(serialize_mpd(build_dash_mpd(content)));
  const ManifestView view = view_from_mpd(*mpd);
  for (auto _ : state) {
    CoordinatedPlayer player;
    const Network network = Network::shared(BandwidthTrace::constant(1500.0));
    const SessionLog log = run_session(content, view, network, player);
    benchmark::DoNotOptimize(log.end_time_s);
  }
  state.counters["content_minutes"] = minutes;
}
BENCHMARK(BM_Micro_SessionScalesWithDuration)->Arg(1)->Arg(5)->Arg(15)->Arg(60)
    ->Unit(benchmark::kMillisecond);

}  // namespace
