// §1 motivation reproduction: storage footprint (M x N muxed vs M + N
// demuxed tracks) and CDN cache effectiveness for a viewer population.
// Besides the console table, emits the two-tier chain sweep (storage mode x
// regional tier on/off, with tier eviction counts) machine-readably to
// BENCH_cdn.json (cwd).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "httpsim/cdn.h"
#include "httpsim/workload.h"
#include "media/content.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace demuxabr;

void print_once() {
  static bool printed = false;
  if (printed) return;
  printed = true;
  const Content content = make_drama_content();
  const StorageReport storage = compare_storage(content);
  std::printf("=== §1 motivation: storage and CDN caching ===\n");
  std::printf("storage: demuxed %.1f MB (%zu objects) vs muxed %.1f MB (%zu objects), "
              "ratio %.2fx\n",
              static_cast<double>(storage.demuxed_bytes) / 1e6, storage.demuxed_objects,
              static_cast<double>(storage.muxed_bytes) / 1e6, storage.muxed_objects,
              storage.muxed_to_demuxed_ratio());
  WorkloadConfig config;
  config.num_users = 200;
  for (double fraction : {0.0, 0.5, 0.25}) {
    config.cache_fraction = fraction;
    const auto results = run_cdn_comparison(content, config);
    const std::string cache_label =
        fraction == 0.0
            ? "unbounded"
            : std::to_string(static_cast<int>(fraction * 100)) + "% of demuxed catalog";
    std::printf("cache=%s:\n", cache_label.c_str());
    for (const WorkloadResult& result : results) {
      std::printf("  %-7s hit=%.3f byte-hit=%.3f origin-egress=%.1f MB\n",
                  storage_mode_name(result.mode), result.cdn.hit_ratio(),
                  result.cdn.byte_hit_ratio(),
                  static_cast<double>(result.cdn.origin_bytes) / 1e6);
    }
  }

  // Two-tier chain sweep -> BENCH_cdn.json: storage mode x regional tier at
  // a quarter-catalog edge, eviction churn included per tier. "both_tiers"
  // backs the edge with a full-catalog regional tier that every origin
  // fetch fills; "edge_only" is the same chain without a regional tier.
  std::printf("two-tier chain (edge=25%% of demuxed catalog, regional=100%%):\n");
  std::string json = "{\n  \"bench\": \"cdn_cache\",\n  \"content\": \"drama-300s\",\n";
  json += format(
      "  \"storage\": {\"demuxed_mb\": %.1f, \"muxed_mb\": %.1f, "
      "\"ratio\": %.2f},\n  \"chain_runs\": [\n",
      static_cast<double>(storage.demuxed_bytes) / 1e6,
      static_cast<double>(storage.muxed_bytes) / 1e6,
      storage.muxed_to_demuxed_ratio());
  WorkloadConfig chain;
  chain.num_users = 200;
  chain.seed = 11;
  chain.cache_fraction = 0.25;
  bool first = true;
  for (const StorageMode mode : {StorageMode::kDemuxed, StorageMode::kMuxed}) {
    for (const auto& [fill, regional_fraction] :
         {std::pair{"both_tiers", 1.0}, std::pair{"edge_only", -1.0}}) {
      chain.regional_fraction = regional_fraction;
      const CacheStats stats = run_cdn_workload(content, mode, chain).cdn;
      std::printf(
          "  %-7s fill=%-10s hit=%.3f regional=%lld origin-egress=%.1f MB "
          "evictions=%zu+%zu\n",
          storage_mode_name(mode), fill, stats.hit_ratio(),
          static_cast<long long>(stats.regional_hits),
          static_cast<double>(stats.origin_bytes) / 1e6, stats.edge_evictions,
          stats.regional_evictions);
      json += first ? "" : ",\n";
      json += format(
          "    {\"mode\": \"%s\", \"fill_policy\": \"%s\", \"users\": 200, "
          "\"requests\": %lld, \"edge_hit_ratio\": %.4f, "
          "\"regional_hits\": %lld, \"origin_fetches\": %lld, "
          "\"origin_egress_mb\": %.1f, \"edge_evictions\": %zu, "
          "\"regional_evictions\": %zu}",
          storage_mode_name(mode), fill, static_cast<long long>(stats.requests),
          stats.hit_ratio(), static_cast<long long>(stats.regional_hits),
          static_cast<long long>(stats.origin_fetches),
          static_cast<double>(stats.origin_bytes) / 1e6, stats.edge_evictions,
          stats.regional_evictions);
      first = false;
    }
  }
  json += "\n  ]\n}\n";
  const Status written = write_file("BENCH_cdn.json", json);
  if (written.ok()) {
    std::printf("report written to BENCH_cdn.json\n");
  } else {
    std::fprintf(stderr, "could not write BENCH_cdn.json: %s\n",
                 written.error().c_str());
  }
  std::printf("\n");
}

void BM_Cdn_Workload(benchmark::State& state) {
  print_once();
  const Content content = make_drama_content();
  const auto mode = state.range(0) == 0 ? StorageMode::kDemuxed : StorageMode::kMuxed;
  WorkloadConfig config;
  config.num_users = static_cast<int>(state.range(1));
  double hit_ratio = 0.0;
  double origin_mb = 0.0;
  for (auto _ : state) {
    const WorkloadResult result = run_cdn_workload(content, mode, config);
    hit_ratio = result.cdn.hit_ratio();
    origin_mb = static_cast<double>(result.cdn.origin_bytes) / 1e6;
    benchmark::DoNotOptimize(result.cdn.requests);
  }
  state.counters["hit_ratio"] = hit_ratio;
  state.counters["origin_egress_mb"] = origin_mb;
  state.counters["users"] = static_cast<double>(config.num_users);
  state.SetLabel(storage_mode_name(mode));
}
BENCHMARK(BM_Cdn_Workload)
    ->Args({0, 50})->Args({1, 50})
    ->Args({0, 200})->Args({1, 200})
    ->Args({0, 1000})->Args({1, 1000})
    ->Unit(benchmark::kMillisecond);

void BM_Cdn_LruCacheOps(benchmark::State& state) {
  const Content content = make_drama_content();
  const ObjectCatalog catalog = build_demuxed_catalog(content);
  CdnCache cdn(&catalog, CacheSpec{catalog.total_bytes() / 2, -1});
  Rng rng(5);
  const BitrateLadder& ladder = content.ladder();
  for (auto _ : state) {
    const auto& track =
        ladder.video()[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    const int chunk = static_cast<int>(rng.uniform_int(0, content.num_chunks() - 1));
    const std::string key = chunk_object_key(track.id, chunk);
    const CdnCache::ServedBy served_by = cdn.lookup(key);
    cdn.fill(key, served_by);
    benchmark::DoNotOptimize(served_by);
  }
}
BENCHMARK(BM_Cdn_LruCacheOps);

}  // namespace
