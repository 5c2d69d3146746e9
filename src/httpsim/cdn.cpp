#include "httpsim/cdn.h"

#include <cassert>

namespace demuxabr {

CdnCache::CdnCache(const ObjectCatalog* origin, const CacheSpec& spec)
    : origin_(origin), edge_(spec.capacity_bytes) {
  assert(origin != nullptr);
  if (spec.has_regional()) regional_.emplace(spec.regional_capacity_bytes);
}

CdnCache::ServedBy CdnCache::lookup(const std::string& key) {
  const std::int64_t size = origin_->size_of(key);
  if (size < 0) {
    ++stats_.uncacheable;
    return ServedBy::kUncatalogued;
  }
  ++stats_.requests;
  if (edge_.get(key)) {
    ++stats_.edge_hits;
    stats_.edge_hit_bytes += size;
    return ServedBy::kEdge;
  }
  if (regional_.has_value() && regional_->get(key)) {
    ++stats_.regional_hits;
    stats_.regional_hit_bytes += size;
    return ServedBy::kRegional;
  }
  ++stats_.origin_fetches;
  stats_.origin_bytes += size;
  return ServedBy::kOrigin;
}

void CdnCache::fill(const std::string& key, ServedBy served_by) {
  if (served_by != ServedBy::kRegional && served_by != ServedBy::kOrigin) return;
  const std::int64_t size = origin_->size_of(key);
  assert(size >= 0 && "fill of an uncatalogued object");
  if (served_by == ServedBy::kOrigin && regional_.has_value()) regional_->put(key, size);
  edge_.put(key, size);
}

CacheStats CdnCache::stats() const {
  CacheStats out = stats_;
  out.edge_evictions = edge_.eviction_count();
  out.regional_evictions = regional_.has_value() ? regional_->eviction_count() : 0;
  out.edge_used_bytes = edge_.used_bytes();
  out.edge_objects = edge_.object_count();
  return out;
}

}  // namespace demuxabr
