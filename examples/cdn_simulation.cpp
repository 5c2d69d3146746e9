// The §1 motivation quantified: storage footprint and CDN cache behaviour of
// muxed vs. demuxed packaging for a population of viewers.
#include <cstdio>

#include "httpsim/workload.h"
#include "media/content.h"

using namespace demuxabr;

int main() {
  const Content content = make_drama_content();

  const StorageReport storage = compare_storage(content);
  std::printf("origin storage (M=%zu video x N=%zu audio tracks):\n",
              content.ladder().video_count(), content.ladder().audio_count());
  std::printf("  demuxed: %8.1f MB in %zu objects (M + N tracks)\n",
              static_cast<double>(storage.demuxed_bytes) / 1e6, storage.demuxed_objects);
  std::printf("  muxed:   %8.1f MB in %zu objects (M x N tracks)\n",
              static_cast<double>(storage.muxed_bytes) / 1e6, storage.muxed_objects);
  std::printf("  muxed/demuxed ratio: %.2fx\n\n", storage.muxed_to_demuxed_ratio());

  for (double cache_fraction : {0.0, 0.5, 0.25}) {
    WorkloadConfig config;
    config.num_users = 200;
    config.cache_fraction = cache_fraction;
    const auto results = run_cdn_comparison(content, config);
    std::printf("viewer population: %d users, zipf %.1f, cache %s\n", config.num_users,
                config.zipf_exponent,
                cache_fraction == 0.0
                    ? "unbounded"
                    : (std::to_string(static_cast<int>(cache_fraction * 100)) +
                       "% of demuxed catalog")
                          .c_str());
    for (const WorkloadResult& r : results) {
      std::printf(
          "  %-7s: hit ratio %.3f, byte hit ratio %.3f, origin egress %.1f MB\n",
          storage_mode_name(r.mode), r.cdn.hit_ratio(), r.cdn.byte_hit_ratio(),
          static_cast<double>(r.cdn.origin_bytes) / 1e6);
    }
    std::printf("\n");
  }
  return 0;
}
