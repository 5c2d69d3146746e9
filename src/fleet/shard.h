// Fleet partitioning (DESIGN.md §10): a TopologySpec whose link graph
// splits into multiple connected components describes causally independent
// sub-fleets — no flow on one component can ever change a rate or a
// completion time on another. partition_fleet() finds the components (union-
// find over links, with each client's video and audio paths coupled into
// the same component, since one session spans both). run_fleet()
// (fleet/scheduler.h, defined in shard.cpp) partitions every fleet: one
// component runs as a single FleetScheduler, several run one event engine
// per component on the work-stealing ThreadPool and merge deterministically
// in shard-id order (util/parallel.h fan_out_ordered — the run_replications
// recipe applied *within* one fleet).
//
// Determinism argument: each shard simulates exactly the event sequence the
// whole-topology engine would execute restricted to that component.
// Client ids renumber monotonically (rank of global id within the shard),
// so every same-time tie-break compares the same way; link books advance
// only at their own component's population changes (affected sets never
// cross components); and every shard's links close at the *global* max end
// time. The merged fingerprint is therefore byte-identical to one
// FleetScheduler running the whole topology, for any thread count
// (tests/test_fleet_shard.cpp pins {1, 2, 8}). Session trace tracks carry
// the global client id (FleetShard::client_ids), so a traced sharded run
// has one track per client.
#pragma once

#include <cstddef>
#include <vector>

#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/topology.h"
#include "manifest/view.h"
#include "media/content.h"
#include "net/bandwidth_trace.h"

namespace demuxabr::fleet {

/// One connected component of the topology plus its slice of the
/// population, renumbered to local dense ids.
struct FleetShard {
  /// Sub-topology: links/paths in ascending global-index order, hop indices
  /// remapped, explicit per-local-client assignment vectors, trace tracks
  /// pinned to the global link ids.
  TopologySpec spec;
  std::vector<std::size_t> link_ids;  ///< local link index -> global
  std::vector<std::size_t> path_ids;  ///< local path index -> global
  /// This shard's clients, arrival-sorted, ids rewritten to local dense
  /// [0, plans.size()) — by rank of global id, so id-order tie-breaks are
  /// preserved.
  std::vector<ClientPlan> plans;
  std::vector<int> client_ids;  ///< local client id -> global client id
};

/// Partition of a fleet into causally independent shards, ordered by each
/// component's smallest global link index.
struct ShardPartition {
  std::vector<FleetShard> shards;
};

/// Split `spec` into connected components and distribute `plans` (global
/// dense ids) onto them. A client lands in the component of its video path;
/// its audio path is guaranteed co-located (coupled during the union).
ShardPartition partition_fleet(const TopologySpec& spec,
                               const std::vector<ClientPlan>& plans);

}  // namespace demuxabr::fleet
