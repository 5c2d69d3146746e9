// Viewer-population workload generator for the CDN experiment (§1): a pool
// of users streams the same title; each user selects one audio and one video
// track (zipf-popular over tracks, mimicking device/bandwidth diversity) and
// requests every chunk in order. In muxed mode a user requests M x N combo
// objects; in demuxed mode the audio and video objects are requested
// separately and can be shared across users who differ only in the other
// component — the paper's CDN cache-hit argument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "httpsim/cdn.h"
#include "media/content.h"

namespace demuxabr {

struct WorkloadConfig {
  int num_users = 100;
  /// Zipf exponent over track popularity (0 = uniform).
  double zipf_exponent = 0.8;
  std::uint64_t seed = 7;
  /// Cache capacity as a fraction of the demuxed catalog size (0 = unbounded).
  double cache_fraction = 0.0;
  /// Regional tier capacity as a fraction of the demuxed catalog size
  /// (negative = no regional tier, 0 = unbounded).
  double regional_fraction = -1.0;
};

struct WorkloadResult {
  StorageMode mode = StorageMode::kDemuxed;
  CacheStats cdn;
  std::int64_t origin_storage_bytes = 0;
  std::size_t origin_object_count = 0;
};

/// Run the viewer population against one CDN cache in the given storage
/// mode. Each request is looked up and, on a miss, filled at once.
WorkloadResult run_cdn_workload(const Content& content, StorageMode mode,
                                const WorkloadConfig& config);

/// Convenience: run both modes with the same user population (same seed) and
/// return {demuxed, muxed}.
std::vector<WorkloadResult> run_cdn_comparison(const Content& content,
                                               const WorkloadConfig& config);

}  // namespace demuxabr
