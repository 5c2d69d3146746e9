#include "fleet/cdn_fleet.h"

#include <cassert>
#include <utility>

#include "obs/telemetry.h"

namespace demuxabr::fleet {

CdnState::CdnState(const TopologySpec& spec, Topology& topology,
                   std::shared_ptr<const ObjectCatalog> catalog)
    : catalog_(std::move(catalog)) {
  assert(catalog_ != nullptr);
  std::vector<std::size_t> node_of_link(spec.links.size(), spec.links.size());
  for (std::size_t l = 0; l < spec.links.size(); ++l) {
    if (!spec.links[l].cache.has_value()) continue;
    node_of_link[l] = nodes_.size();
    nodes_.push_back(
        {l, spec.links[l].name, CdnCache(catalog_.get(), *spec.links[l].cache)});
  }
  for (std::size_t p = 0; p < topology.path_count(); ++p) {
    const std::optional<PathCacheRoute>& route = topology.cache_route(p);
    if (!route.has_value()) continue;
    routes_[topology.path_channel(p).get()] = {node_of_link[route->link],
                                               route->hit_channel};
  }
}

std::string CdnState::key_of(const DownloadRequest& request) const {
  if (request.muxed) {
    return muxed_chunk_object_key(request.track_id, request.audio_track_id,
                                  request.chunk_index);
  }
  return chunk_object_key(request.track_id, request.chunk_index);
}

FlowRoute CdnState::admit(const DownloadRequest& request, Channel& origin_route,
                          double now) {
  const auto it = routes_.find(&origin_route);
  if (it == routes_.end()) return {};  // no cache on this path
  Node& node = nodes_[it->second.first];
  const CdnCache::ServedBy served_by = node.cache.lookup(key_of(request));
  // Not in the origin inventory (e.g. a muxed request against a demuxed
  // catalog): uncacheable, full path, no delivery owed.
  if (served_by == CdnCache::ServedBy::kUncatalogued) return {};
  const bool edge_hit = served_by == CdnCache::ServedBy::kEdge;
  if (telemetry_ != nullptr) telemetry_->cdn_request(node.link, now, edge_hit);
  // Resident at the edge: the flow only spans the client→edge prefix. A
  // regional hit sits by the origin: it saves origin egress, not hops.
  if (edge_hit) return {it->second.second, 0};
  return {nullptr, make_ticket(it->second.first, served_by)};
}

void CdnState::delivered(const DownloadRequest& request, std::uint64_t ticket,
                         double /*now*/) {
  if (ticket == 0) return;
  Node& node = nodes_[static_cast<std::size_t>(ticket >> 2) - 1];
  node.cache.fill(key_of(request), static_cast<CdnCache::ServedBy>(ticket & 0x3u));
}

std::vector<CdnStats> CdnState::stats() const {
  std::vector<CdnStats> out;
  out.reserve(nodes_.size());
  for (const Node& node : nodes_) {
    out.push_back(CdnStats{node.cache.stats(), node.link_name, node.link});
  }
  return out;
}

std::shared_ptr<const ObjectCatalog> make_fleet_catalog(const Content& content,
                                                        StorageMode storage) {
  return std::make_shared<const ObjectCatalog>(storage == StorageMode::kMuxed
                                                   ? build_muxed_catalog(content)
                                                   : build_demuxed_catalog(content));
}

}  // namespace demuxabr::fleet
