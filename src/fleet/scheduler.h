// FleetScheduler: the multi-client discrete-event engine. Interleaves N
// StreamingSessions over one fleet::Topology so processor sharing spans
// *sessions*, not just one client's audio/video flows — the workload class
// where the paper's §3.3 mis-estimation and §3.4 buffer-imbalance
// pathologies compound across a population. Every fleet is a topology: a
// FleetConfig without one runs on TopologySpec::single(bottleneck).
//
// Two engines produce bit-identical results (DESIGN.md §7 "Engine modes"):
//
//  * kBarrier (reference): every global step runs phase barriers across all
//    active sessions in client-id order — churn/retire, begin_step
//    (registrations), horizon = min over per-session next_event_time,
//    integrate_to(t*), process_events, admissions. O(N) per step.
//
//  * kEventHeap (default): an indexed min-heap keys each session on its own
//    next *local* event time and each topology channel on its earliest
//    registered completion (re-keyed when the topology marks the channel
//    dirty, or at the heap top when a sibling's join only deferred it).
//    Only the sessions with events at time t are touched; everyone
//    else is advanced implicitly through the channels' virtual-time service
//    integrals. O(log N) per event.
//
// Identity holds because sessions derive all state from anchored values
// that only change at their own events (sim/session.h), so barrier visits
// at foreign event times are numerically invisible. Single-threaded and
// deterministic; run_fleet fans a fleet's independent shards, and
// run_replications its seeds, across a ThreadPool.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fleet/cdn_fleet.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/topology.h"
#include "manifest/view.h"
#include "media/content.h"
#include "net/bandwidth_trace.h"
#include "sim/session.h"
#include "util/arena.h"

namespace demuxabr::fleet {

class FleetScheduler {
 public:
  /// All clients stream `content` (which must outlive run()) through `view`
  /// over `config.topology`, or over one link named "bottleneck" carrying
  /// `bottleneck` when the config has no topology (`bottleneck` is ignored
  /// otherwise). TopologySpec::split_audio puts audio on its own link.
  FleetScheduler(const Content& content, ManifestView view,
                 BandwidthTrace bottleneck, FleetConfig config);

  /// Run the whole population to completion (or churn/cap). Call once.
  FleetResult run();

  // --- Two-phase API for the shard runner (fleet/shard.h). ---

  /// Run the engine over pre-built plans (arrival-sorted, ids dense in
  /// [0, plans.size()) — the shard runner renumbers) WITHOUT closing the
  /// link books. Call once; follow with close_links(). `global_ids` maps a
  /// shard's local client ids back to the fleet's (FleetShard::client_ids)
  /// so session trace tracks stay unique across shards; empty = the plan
  /// ids are already global.
  FleetResult run_engine(const std::vector<ClientPlan>& plans,
                         const std::vector<int>& global_ids = {});

  /// Advance every link/path integral to `end_time` (idle tails included)
  /// and write the closing stats into `result`. The shard runner passes the
  /// *global* max end time so per-link stats match the whole-topology
  /// serial run byte for byte; run() passes the run's own end time.
  void close_links(FleetResult& result, double end_time);

  /// run_engine + close_links at the run's own end time, over caller-built
  /// plans.
  FleetResult run_plans(const std::vector<ClientPlan>& plans);

 private:
  struct Client {
    ClientPlan plan;
    std::unique_ptr<PlayerAdapter> player;
    std::unique_ptr<StreamingSession> session;
    int video_path = -1;  ///< topology path indices (see ClientResult)
    int audio_path = -1;
  };

  /// Build and start client `plan`'s session; returns the slot (owned by
  /// slots_, indexed by client id).
  Client& admit(const ClientPlan& plan);
  /// Collect the client's result and release its session/player.
  void finalize_client(Client& client, double now);

  double run_barrier(const std::vector<ClientPlan>& plans);
  double run_event_heap(const std::vector<ClientPlan>& plans);

  const Content& content_;
  ManifestView view_;
  FleetConfig config_;
  /// Per-shard monotonic arena (DESIGN.md §12) backing run-lifetime engine
  /// state: every channel's completion registry, the event heap, drain
  /// scratch, and session pending-delivery queues. Declared before the
  /// topology that allocates from it so it outlives it (members destroy in
  /// reverse order). Single-threaded: each shard runs its own scheduler,
  /// hence its own arena.
  MonotonicArena arena_;
  Topology topology_;
  /// Local client id -> fleet-wide id for trace tracks (run_engine).
  std::vector<int> global_ids_;
  /// Cache-aware runs only: the origin catalog (possibly shared read-only
  /// across shards) and this run's cache plane / flow router.
  std::shared_ptr<const ObjectCatalog> catalog_;
  std::unique_ptr<CdnState> cdn_;
  /// Time-binned telemetry accumulator (obs/telemetry.h), built only when
  /// config_.telemetry.enabled. Declared before slots_ so the sessions that
  /// hold raw pointers into it are destroyed first.
  std::unique_ptr<obs::TimelineShard> telemetry_;
  std::vector<std::unique_ptr<Client>> slots_;  ///< by client id
  FleetResult result_;
  bool streaming_ = false;  ///< streaming-metrics mode active for this run
};

/// The one fleet entry point (defined in fleet/shard.cpp): plans the
/// population once, partitions the topology (TopologySpec::single(bottleneck)
/// when the config has none) into connected components, and runs them —
/// a single component as one FleetScheduler on `config`, several as shards
/// on `config.threads` workers (1 = a serial loop) merged in shard order.
/// Byte-identical to FleetScheduler(...).run() for every thread count.
FleetResult run_fleet(const Content& content, const ManifestView& view,
                      const BandwidthTrace& bottleneck, const FleetConfig& config);

// --- Independent replications (seed sweep) on the ThreadPool. ---

struct ReplicationOptions {
  int replications = 1;
  /// 0 = ThreadPool::default_thread_count(); 1 = serial on the calling
  /// thread. Any thread count yields identical per-replication results.
  int threads = 0;
  /// Replication r runs with seed = config.seed + r * seed_stride.
  std::uint64_t seed_stride = 1;
};

struct FleetReplication {
  std::uint64_t seed = 0;
  FleetResult result;
  FleetMetrics metrics;
};

/// Run `options.replications` independent fleets (same config, shifted
/// seeds), fanned across a ThreadPool. Results come back in replication
/// order and are byte-identical for every thread count.
std::vector<FleetReplication> run_replications(const Content& content,
                                               const ManifestView& view,
                                               const BandwidthTrace& bottleneck,
                                               const FleetConfig& config,
                                               const ReplicationOptions& options);

}  // namespace demuxabr::fleet
