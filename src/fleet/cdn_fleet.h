// CDN edge caches as first-class topology nodes (ROADMAP "per-CDN fleets").
//
// A TopologySpec link carrying a CacheSpec becomes a CDN node: one
// httpsim::CdnCache (an LRU edge tier plus an optional regional tier, the
// same model the §1 request replay drives) backed by an ObjectCatalog built
// from the fleet's MediaContent in either StorageMode. CdnState keeps only
// routing and ticketing, through the session-facing FlowRouter hook:
//
//   * admit — when a flow's RTT elapses, look the chunk's object key up in
//     the cache co-located with the flow's path. A resident object (edge
//     hit) rides the derived client→edge prefix channel; anything else
//     rides the full path to the origin. A regional hit saves origin
//     egress (stats) but still traverses the full path — the regional tier
//     sits next to the origin, not next to the client.
//   * delivered — at flow completion (deferred to the completing session's
//     next begin_step) the object fills the cache tiers, so cache warmth
//     dynamically changes which links later chunks traverse.
//
// Determinism: both hooks only ever run inside begin_step, which both fleet
// engines execute in ascending client id per timestamp with completions
// before registrations (sim/flow_router.h). All counters are integers. A
// cached link and every path through it share one connected component
// (shard.cpp copies LinkSpec wholesale), so caches are shard-local and the
// sharded merge stays byte-identical at any thread count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet/topology.h"
#include "httpsim/catalog.h"
#include "httpsim/cdn.h"
#include "sim/flow_router.h"

namespace demuxabr::fleet {

/// Closing stats of one CDN node (cache-bearing link) of a fleet run: its
/// CdnCache counters plus the link they belong to.
struct CdnStats : CacheStats {
  std::string link_name;
  std::size_t link = 0;  ///< topology link index (global after shard merge)
};

/// The shard-local cache plane of one fleet run: owns every CDN node's
/// CdnCache and routes flows per request. Wire into each session's Network as
/// its FlowRouter (FleetScheduler does this); must outlive the sessions.
class CdnState final : public FlowRouter {
 public:
  /// `spec` names which links carry caches; `topology` (built from the same
  /// spec) provides each path's cache route; `catalog` is the shared
  /// read-only origin inventory. Both referents must outlive this object.
  CdnState(const TopologySpec& spec, Topology& topology,
           std::shared_ptr<const ObjectCatalog> catalog);

  FlowRoute admit(const DownloadRequest& request, Channel& origin_route,
                  double now) override;
  void delivered(const DownloadRequest& request, std::uint64_t ticket,
                 double now) override;

  /// Closing per-node snapshot, ascending link index.
  [[nodiscard]] std::vector<CdnStats> stats() const;

  /// Wire the time-binned telemetry sink (obs/telemetry.h): every cacheable
  /// admission is reported as a per-bin hit/miss on the node's link. Null
  /// (default) costs one branch per admission.
  void set_telemetry(obs::TimelineShard* telemetry) { telemetry_ = telemetry; }

 private:
  struct Node {
    std::size_t link = 0;
    std::string link_name;
    CdnCache cache;
  };

  /// The admit() ticket: which node owes a fill, and where the object came
  /// from (CdnCache::fill's argument) in the low two bits.
  [[nodiscard]] static std::uint64_t make_ticket(std::size_t node,
                                                 CdnCache::ServedBy served_by) {
    return ((static_cast<std::uint64_t>(node) + 1) << 2) |
           static_cast<std::uint64_t>(served_by);
  }
  [[nodiscard]] std::string key_of(const DownloadRequest& request) const;

  std::shared_ptr<const ObjectCatalog> catalog_;
  obs::TimelineShard* telemetry_ = nullptr;
  std::vector<Node> nodes_;  ///< ascending link index
  /// Default carrier (spec-path channel) → (node index, hit channel).
  /// Pointer-keyed lookup only — never iterated, so determinism holds.
  std::unordered_map<const Channel*, std::pair<std::size_t, Channel*>> routes_;
};

/// Build the origin catalog for `content` in the given storage mode.
[[nodiscard]] std::shared_ptr<const ObjectCatalog> make_fleet_catalog(
    const Content& content, StorageMode storage);

}  // namespace demuxabr::fleet
