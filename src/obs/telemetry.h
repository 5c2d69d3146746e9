// Time-binned fleet telemetry (DESIGN.md §13 "Fleet timeline telemetry").
//
// The paper's failure modes — A/V buffer imbalance, concurrent-download
// mis-estimation, stall storms under contention — are temporal phenomena:
// the paper diagnoses them from buffer trajectories and download intervals
// over time. End-of-run summaries (fleet/metrics.h) collapse the time axis
// and the per-event Tracer (obs/trace.h) is too heavy for million-client
// runs; this layer sits in between. Fleet health is accumulated into
// fixed-width bins of simulated time (TelemetryConfig::bin_s, default 1 s)
// with O(shards × bins) memory: per-bin concurrent-stall counts,
// active/started/departed sessions, mean+min audio/video buffer levels, A/V
// imbalance, a bitrate-mix histogram, per-link busy/flow/throughput series
// and per-CDN hit/miss series.
//
// Determinism and mergeability are load-bearing (same proof obligations as
// the fleet fingerprint): every accumulator is a fixed-point integer
// (llround to µs or kbit-milli at the hook site) combined only with
// wrapping adds and integer mins — associative and commutative — so
// event-ordering differences between the barrier and event-heap engines,
// and shard-merge order under run_fleet, cannot change a single
// bit. Hooks fire only at instants both engines visit identically: session
// sample ticks, link flow-population changes, CDN admissions, arrivals and
// session-clock departures. Each shard owns one TimelineShard; merge() in
// shard-id order reproduces the serial timeline byte-for-byte
// (tests/test_obs_telemetry.cpp pins engines × threads × metrics modes).
//
// Zero-overhead-when-disabled contract matches the tracer: every hook site
// is guarded by a single null-pointer test on a field the session/link
// already holds, so the disabled path costs one predictable branch (CI
// perf-smoke floors guard it).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace demuxabr::obs {

/// Switch + bin width, carried by fleet::FleetConfig. Disabled by default;
/// enabling costs O(bins) memory per shard and a few adds per hook.
struct TelemetryConfig {
  bool enabled = false;
  /// Bin width in simulated seconds. Values below the session sample
  /// period (SessionConfig::delta_s, default 0.125 s) leave per-bin session
  /// counts sparse but stay deterministic.
  double bin_s = 1.0;
};

/// Per-session dedup state so each session counts at most once per bin in
/// the active/stalled populations. Lives in the session (its samples are
/// monotone in time), costs two words, and never needs resetting.
struct TimelineCursor {
  std::int64_t active_bin = -1;
  std::int64_t stalled_bin = -1;
};

/// Sentinel for "no sample landed in this bin" minima; any real level
/// replaces it via std::min.
inline constexpr std::int64_t kTelemetryNoSample =
    std::numeric_limits<std::int64_t>::max();

/// One bin of fleet-wide session health. All fields are order-invariant
/// integer accumulators; means are derived at export time.
struct FleetBin {
  std::uint64_t samples = 0;            ///< session buffer samples landed here
  std::uint64_t active_sessions = 0;    ///< distinct sessions that sampled
  std::uint64_t stalled_sessions = 0;   ///< distinct sessions stalled
  std::uint64_t started_sessions = 0;   ///< arrivals in this bin
  std::uint64_t departed_sessions = 0;  ///< session-clock departures
  std::int64_t audio_level_sum_us = 0;  ///< Σ audio buffer level (µs)
  std::int64_t video_level_sum_us = 0;  ///< Σ video buffer level (µs)
  std::int64_t imbalance_sum_us = 0;    ///< Σ |audio − video| level (µs)
  std::int64_t audio_level_min_us = kTelemetryNoSample;
  std::int64_t video_level_min_us = kTelemetryNoSample;
};

/// One bin of one link's utilization series, accumulated from the same lazy
/// V(t)-integral segments both engines walk identically.
struct LinkBin {
  std::int64_t busy_us = 0;             ///< time with ≥1 flow (µs)
  std::int64_t flow_us = 0;             ///< ∫ flow-population dt (flow-µs)
  std::int64_t offered_kbit_mil = 0;    ///< ∫ capacity dt (kbit·milli)
  std::int64_t delivered_kbit_mil = 0;  ///< ∫ served dt while busy
};

/// One bin of one CDN edge node's admission outcomes (edge hit vs anything
/// that leaves the edge: regional hit or origin fetch).
struct CdnBin {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

struct LinkSeries {
  std::string name;
  std::vector<LinkBin> bins;
};

struct CdnSeries {
  std::size_t link = 0;  ///< owning link index (global after merge)
  std::vector<CdnBin> bins;
};

/// The merged, exportable timeline: what FleetResult::timeline carries.
/// merge() is the shard-combine operator; fingerprint() renders the
/// all-integer determinism witness appended to fleet_fingerprint().
struct FleetTimeline {
  double bin_s = 1.0;
  std::vector<double> ladder_kbps;  ///< bitrate-mix rungs, ascending
  std::vector<FleetBin> bins;
  /// Row-major [bin][rung] counts of completed video chunks; size is
  /// bins.size() × ladder_kbps.size() after normalize().
  std::vector<std::uint64_t> bitrate_mix;
  std::vector<LinkSeries> links;
  std::vector<CdnSeries> cdns;

  [[nodiscard]] std::size_t bin_count() const { return bins.size(); }
  [[nodiscard]] std::size_t rung_count() const { return ladder_kbps.size(); }

  /// Pad every series (fleet, mix, links, cdns) to the common maximum bin
  /// count and sort CDN series by link index. Idempotent; merge() callers
  /// run it once after the last merge.
  void normalize();

  /// Accumulate `other` (one shard's timeline) into this one. `link_map`
  /// maps other's local link indices to this timeline's global indices
  /// (nullptr = identity). Links must already exist here (pre-seeded with
  /// global names); CDN series are remapped and appended — each link
  /// belongs to exactly one shard, so no CDN series ever merges twice.
  /// The ladder is copied from the first non-empty `other`.
  void merge(const FleetTimeline& other,
             const std::vector<std::size_t>* link_map = nullptr);

  /// All-integer rendering of every bin: byte-identical across engines,
  /// thread counts and metrics modes whenever the underlying run is.
  [[nodiscard]] std::string fingerprint() const;

  /// One JSON object per line, typed "fleet" | "link" | "cdn".
  [[nodiscard]] std::string to_ndjson() const;

  /// Fleet bins only, fixed header, one row per bin.
  [[nodiscard]] std::string to_csv() const;
};

/// Per-shard accumulator and the hook sink the scheduler wires into
/// sessions, links and CDN nodes. Not thread-safe: one TimelineShard per
/// FleetScheduler, each driven by exactly one engine thread.
class TimelineShard {
 public:
  /// `ladder_kbps` is the content's declared video rung rates (sorted and
  /// deduplicated here); `link_names` fixes the link-index space — series
  /// are emitted for every name, touched or not, so indices line up with
  /// the merge-time link map.
  TimelineShard(const TelemetryConfig& config, std::vector<double> ladder_kbps,
                std::vector<std::string> link_names);

  /// Session buffer sample at tick instant `t` (both engines tick sessions
  /// at identical times). `stalled` = started but not playing.
  void sample_session(TimelineCursor& cursor, double t, double audio_level_s,
                      double video_level_s, bool stalled);

  /// A video chunk finished downloading at `t` with declared rate `kbps`
  /// (matched to the nearest ladder rung).
  void video_chunk(double t, double kbps);

  void session_started(double t);
  void session_departed(double t);

  /// One constant-rate segment [t0, t1) of link `link`'s V(t) walk, with
  /// `flows` concurrent flows and `offered_kbps` capacity; `delivered_kbps`
  /// is what the link actually served (0 when idle). Split across bin
  /// boundaries here.
  void link_segment(std::size_t link, double t0, double t1, int flows,
                    double offered_kbps, double delivered_kbps);

  /// CDN admission outcome on the node attached to `link` at time `t`.
  void cdn_request(std::size_t link, double t, bool edge_hit);

  /// Move the accumulated timeline out (normalized). The shard is spent
  /// afterwards.
  [[nodiscard]] FleetTimeline take();

 private:
  [[nodiscard]] std::int64_t bin_of(double t) const;
  FleetBin& fleet_bin(std::int64_t bin);

  TelemetryConfig config_;
  std::vector<double> ladder_;
  std::vector<std::string> link_names_;
  std::vector<FleetBin> bins_;
  std::vector<std::uint64_t> mix_;                 ///< [bin][rung] row-major
  std::vector<std::vector<LinkBin>> link_bins_;    ///< per link index
  std::vector<std::vector<CdnBin>> cdn_bins_;      ///< per link index, sparse
};

}  // namespace demuxabr::obs
