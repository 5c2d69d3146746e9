#include "httpsim/workload.h"

#include <cassert>

#include "util/rng.h"

namespace demuxabr {
namespace {

struct UserChoice {
  std::string video_id;
  std::string audio_id;
};

/// Draw the per-user track choices once so both storage modes replay the
/// exact same demand.
std::vector<UserChoice> draw_users(const Content& content, const WorkloadConfig& config) {
  const BitrateLadder& ladder = content.ladder();
  Rng rng(config.seed);
  // Popularity rank: middle rungs most popular for video (index order is a
  // fine proxy for a synthetic population); audio rank 0 = most popular.
  ZipfDistribution video_dist(ladder.video_count(), config.zipf_exponent);
  ZipfDistribution audio_dist(ladder.audio_count(), config.zipf_exponent);
  std::vector<UserChoice> users;
  users.reserve(static_cast<std::size_t>(config.num_users));
  for (int u = 0; u < config.num_users; ++u) {
    UserChoice choice;
    choice.video_id = ladder.video()[video_dist.sample(rng)].id;
    choice.audio_id = ladder.audio()[audio_dist.sample(rng)].id;
    users.push_back(std::move(choice));
  }
  return users;
}

}  // namespace

WorkloadResult run_cdn_workload(const Content& content, StorageMode mode,
                                const WorkloadConfig& config) {
  const ObjectCatalog catalog = mode == StorageMode::kDemuxed
                                    ? build_demuxed_catalog(content)
                                    : build_muxed_catalog(content);
  // Capacities are fractions of the demuxed catalog in both storage modes.
  const double demuxed_bytes = static_cast<double>(
      mode == StorageMode::kDemuxed ? catalog.total_bytes()
                                    : build_demuxed_catalog(content).total_bytes());
  CacheSpec spec;
  if (config.cache_fraction > 0.0) {
    spec.capacity_bytes =
        static_cast<std::int64_t>(demuxed_bytes * config.cache_fraction);
  }
  if (config.regional_fraction >= 0.0) {
    spec.regional_capacity_bytes =
        static_cast<std::int64_t>(demuxed_bytes * config.regional_fraction);
  }
  CdnCache cdn(&catalog, spec);
  const auto fetch = [&cdn](const std::string& key) {
    const CdnCache::ServedBy served_by = cdn.lookup(key);
    assert(served_by != CdnCache::ServedBy::kUncatalogued);
    cdn.fill(key, served_by);
  };

  const std::vector<UserChoice> users = draw_users(content, config);
  for (const UserChoice& user : users) {
    for (int chunk = 0; chunk < content.num_chunks(); ++chunk) {
      if (mode == StorageMode::kMuxed) {
        fetch(muxed_chunk_object_key(user.video_id, user.audio_id, chunk));
      } else {
        fetch(chunk_object_key(user.video_id, chunk));
        fetch(chunk_object_key(user.audio_id, chunk));
      }
    }
  }

  WorkloadResult result;
  result.mode = mode;
  result.cdn = cdn.stats();
  result.origin_storage_bytes = catalog.total_bytes();
  result.origin_object_count = catalog.object_count();
  return result;
}

std::vector<WorkloadResult> run_cdn_comparison(const Content& content,
                                               const WorkloadConfig& config) {
  return {run_cdn_workload(content, StorageMode::kDemuxed, config),
          run_cdn_workload(content, StorageMode::kMuxed, config)};
}

}  // namespace demuxabr
