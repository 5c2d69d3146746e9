// The CDN cache in front of the origin: an LRU edge tier, optionally backed
// by an LRU regional tier close to the origin. Counts the request and byte
// split between the tiers and the origin — the quantity the §1 motivation
// compares between muxed and demuxed storage. Both the §1 request replay
// (httpsim/workload.h) and the fleet's CDN nodes (fleet/cdn_fleet.h) drive
// this one model.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "httpsim/catalog.h"
#include "httpsim/lru_cache.h"

namespace demuxabr {

/// Capacities of one CDN cache.
struct CacheSpec {
  /// Edge LRU capacity in bytes; 0 = unbounded.
  std::int64_t capacity_bytes = 0;
  /// Optional second tier (a regional cache close to the origin: it saves
  /// origin egress on edge misses). Negative = no regional tier; 0 =
  /// unbounded regional.
  std::int64_t regional_capacity_bytes = -1;

  [[nodiscard]] bool has_regional() const { return regional_capacity_bytes >= 0; }
};

/// Counters of one CDN cache. All integers, so the fleet fingerprint lines
/// they feed are trivially byte-identical across engines and thread counts.
struct CacheStats {
  std::int64_t requests = 0;        ///< catalogued requests looked up
  std::int64_t edge_hits = 0;       ///< served from the edge tier
  std::int64_t regional_hits = 0;   ///< served from the regional tier
  std::int64_t origin_fetches = 0;  ///< cold: pulled from the origin
  std::int64_t uncacheable = 0;     ///< keys absent from the catalog (not counted above)

  std::int64_t edge_hit_bytes = 0;
  std::int64_t regional_hit_bytes = 0;
  std::int64_t origin_bytes = 0;  ///< origin egress this cache caused

  std::size_t edge_evictions = 0;
  std::size_t regional_evictions = 0;
  std::int64_t edge_used_bytes = 0;  ///< resident bytes at snapshot
  std::size_t edge_objects = 0;      ///< resident objects at snapshot

  [[nodiscard]] double hit_ratio() const {
    return requests > 0
               ? static_cast<double>(edge_hits) / static_cast<double>(requests)
               : 0.0;
  }
  [[nodiscard]] double byte_hit_ratio() const {
    const std::int64_t total = edge_hit_bytes + regional_hit_bytes + origin_bytes;
    return total > 0 ? static_cast<double>(edge_hit_bytes) / static_cast<double>(total)
                     : 0.0;
  }
};

class CdnCache {
 public:
  enum class ServedBy { kEdge, kRegional, kOrigin, kUncatalogued };

  /// The catalog is the origin's inventory and must outlive the cache.
  CdnCache(const ObjectCatalog* origin, const CacheSpec& spec);

  /// Count one request and touch the tiers: edge hit, else regional hit,
  /// else origin. Keys absent from the catalog count as uncacheable and
  /// touch nothing.
  ServedBy lookup(const std::string& key);

  /// Fill the tiers once the object has been delivered: the edge always,
  /// the regional tier too when the object came from the origin. Edge hits
  /// and uncatalogued keys fill nothing.
  void fill(const std::string& key, ServedBy served_by);

  /// Counters plus the tiers' eviction and residency snapshot.
  [[nodiscard]] CacheStats stats() const;

 private:
  const ObjectCatalog* origin_;
  LruCache edge_;
  std::optional<LruCache> regional_;
  CacheStats stats_;
};

}  // namespace demuxabr
