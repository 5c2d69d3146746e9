#include "workloads.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "experiments/sweep.h"
#include "fleet/cdn_fleet.h"
#include "fleet/scheduler.h"
#include "fleet/shard.h"
#include "manifest/builder.h"
#include "manifest/dash_mpd.h"
#include "media/content.h"
#include "net/trace_corpus.h"
#include "obs/incidents.h"
#include "players/dashjs.h"
#include "players/exoplayer.h"
#include "util/parallel.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using namespace demuxabr;
using Clock = std::chrono::steady_clock;
using Scope = SpanRecorder::Scope;

// Set-up is timed in slices of at least one repetition and kSetupSliceS:
// one before the reference run and one after every timed iteration, so
// setup_s, the median of all repetitions, samples the host over the whole
// run rather than one moment of it.
constexpr double kSetupSliceS = 0.05;
// A run times at least this many iterations, however long they take.
constexpr int kMinIterations = 4;
// Shard workers of cdn-demux-vs-mux, and of the untimed log digest of
// paper-grid.
constexpr int kThreads = 2;
// Poisson arrivals per simulated second of every fleet, as in bench_fleet.
constexpr double kArrivalRatePerS = 1.0;

/// Repeats a set-up and keeps the wall and CPU time of every repetition;
/// each repetition is one span group.
template <typename Make>
class SetupSampler {
 public:
  SetupSampler(SpanRecorder& spans, Make make) : spans_(spans), make_(std::move(make)) {}

  /// Set up for one slice; returns what the last repetition built.
  auto slice() {
    std::optional<decltype(make_())> built;
    const auto start = Clock::now();
    do {
      built.reset();
      spans_.set_group(format("setup-%zu", wall_s_.size()));
      const auto t0 = Clock::now();
      const double cpu0 = process_cpu_s();
      {
        Scope root(spans_, "bench.setup");
        built.emplace(make_());
      }
      cpu_s_.push_back(process_cpu_s() - cpu0);
      wall_s_.push_back(seconds_since(t0));
    } while (seconds_since(start) < kSetupSliceS);
    return std::move(*built);
  }

  [[nodiscard]] double median_wall_s() const { return median(wall_s_); }
  [[nodiscard]] double median_cpu_s() const { return median(cpu_s_); }

 private:
  SpanRecorder& spans_;
  Make make_;
  std::vector<double> wall_s_;
  std::vector<double> cpu_s_;
};

struct IterationTime {
  double sim_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;

  IterationTime& operator+=(const IterationTime& other) {
    sim_s += other.sim_s;
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    return *this;
  }
};

/// Runs `work()`, which returns the simulated seconds it covered, and
/// times it in wall and CPU seconds.
template <typename Work>
IterationTime timed(Work work) {
  IterationTime t;
  const auto t0 = Clock::now();
  const double cpu0 = process_cpu_s();
  t.sim_s = work();
  t.cpu_s = process_cpu_s() - cpu0;
  t.wall_s = seconds_since(t0);
  return t;
}

struct LoopResult {
  /// Sums over the untraced and over the traced iterations.
  IterationTime untraced;
  IterationTime traced;
  /// sim_s / cpu_s of each untraced iteration, in run order.
  std::vector<double> untraced_cpu_rates;
  /// The reference loop's speed after each iteration.
  std::vector<double> reference_speeds;
  int iterations = 0;

  /// The reference loop's speed over the whole run.
  [[nodiscard]] double reference_speed() const { return combined_speed(reference_speeds); }
  /// Simulated seconds per reference-second of the untraced / traced
  /// iterations.
  [[nodiscard]] double untraced_rate() const {
    return untraced.sim_s / to_reference_s(untraced.cpu_s, reference_speed());
  }
  [[nodiscard]] double traced_rate() const {
    return traced.sim_s / to_reference_s(traced.cpu_s, reference_speed());
  }
};

/// Calls `iterate(traced)` until `options.seconds` have passed and at least
/// kMinIterations ran; after each iteration it runs the reference loop
/// once, then `between()`. A traced run alternates untraced and traced
/// iterations so both see the same host conditions.
template <typename Iterate, typename Between>
LoopResult timed_loop(const RunOptions& options, SpanRecorder& spans, Iterate iterate,
                      Between between) {
  LoopResult loop;
  const auto start = Clock::now();
  while (loop.iterations < kMinIterations || seconds_since(start) < options.seconds) {
    const bool traced = options.trace && loop.iterations % 2 == 1;
    spans.set_enabled(traced);
    spans.set_group(format("iter-%d", loop.iterations));
    IterationTime t;
    {
      Scope root(spans, "bench.iteration");
      t = iterate(traced);
    }
    if (traced) {
      loop.traced += t;
    } else {
      loop.untraced += t;
      loop.untraced_cpu_rates.push_back(t.sim_s / t.cpu_s);
    }
    loop.reference_speeds.push_back(reference_steps_per_cpu_s());
    ++loop.iterations;
    spans.set_enabled(options.trace);
    between();
  }
  return loop;
}

// --- Fleet inputs -----------------------------------------------------------

Content make_content(SpanRecorder& spans) {
  Scope span(spans, "media.make_drama_content");
  return make_drama_content(/*chunk_duration_s=*/4.0);
}

/// DASH MPD serialize → parse → view, as a player fetching the manifest.
ManifestView make_view(SpanRecorder& spans, const Content& content) {
  Scope span(spans, "manifest.view_from_mpd");
  auto parsed = parse_mpd(serialize_mpd(build_dash_mpd(content)));
  if (!parsed.ok()) throw std::runtime_error("MPD round trip failed: " + parsed.error());
  return view_from_mpd(*parsed);
}

/// 60% ExoPlayer, 25% dash.js, 15% coordinated (the bench_fleet mix).
std::vector<fleet::PlayerShare> demuxed_mix() {
  return {
      {"exoplayer", [] { return std::make_unique<ExoPlayerModel>(); }, 0.60},
      {"dashjs", [] { return std::make_unique<DashJsPlayerModel>(); }, 0.25},
      {"coordinated", [] { return std::make_unique<CoordinatedPlayer>(); }, 0.15},
  };
}

fleet::FleetConfig fleet_config(int clients, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.client_count = clients;
  config.seed = seed;
  config.engine = fleet::Engine::kEventHeap;
  config.arrivals = fleet::ArrivalProcess::kPoisson;
  config.arrival_rate_per_s = kArrivalRatePerS;
  config.players = demuxed_mix();
  config.churn.leave_probability = 0.1;
  config.churn.min_watch_s = 30.0;
  config.churn.max_watch_s = 120.0;
  config.session.max_sim_time_s = 1800.0;
  return config;
}

std::size_t planned_population(SpanRecorder& spans, const fleet::FleetConfig& config) {
  Scope span(spans, "fleet.plan_population");
  return fleet::plan_population(config).size();
}

/// One fleet to run per iteration: its inputs plus the planned size.
struct FleetCase {
  std::string label;
  BandwidthTrace bottleneck = BandwidthTrace::constant(1000.0);
  fleet::FleetConfig config;
  std::size_t planned = 0;
};

struct FleetInputs {
  Content content;
  ManifestView view;
  std::vector<FleetCase> cases;
};

struct FleetOutcome {
  fleet::FleetResult result;
  fleet::FleetMetrics metrics;
};

/// run_fleet + compute_fleet_metrics, plus incident detection and NDJSON
/// export when telemetry is on: the timed part of a fleet iteration.
FleetOutcome run_case(SpanRecorder& spans, const FleetInputs& in, const FleetCase& fc,
                      bool profile, int threads) {
  fleet::FleetConfig config = fc.config;
  config.profile = profile;
  config.threads = threads;
  FleetOutcome out;
  {
    Scope span(spans, "fleet.run_fleet");
    out.result = fleet::run_fleet(in.content, in.view, fc.bottleneck, config);
  }
  {
    Scope span(spans, "fleet.compute_fleet_metrics");
    out.metrics = fleet::compute_fleet_metrics(out.result);
  }
  if (out.result.timeline.has_value()) {
    std::vector<obs::Incident> incidents;
    {
      Scope span(spans, "obs.detect_incidents");
      incidents = obs::detect_incidents(*out.result.timeline);
    }
    Scope span(spans, "obs.to_ndjson");
    const std::string ndjson = out.result.timeline->to_ndjson();
    if (ndjson.empty()) throw std::runtime_error("empty telemetry export");
  }
  return out;
}

std::string fleet_digest(const fleet::FleetResult& result) {
  return hex64(fnv1a(fleet::fleet_fingerprint(result)));
}

/// Conservation and determinism checks on one fleet outcome.
void check_fleet(Checks& checks, const FleetCase& fc, const FleetOutcome& out,
                 const std::string& reference_digest) {
  const std::vector<fleet::LinkStats>& links =
      out.result.links.empty() ? std::vector<fleet::LinkStats>{out.result.video_link}
                               : out.result.links;
  for (const fleet::LinkStats& link : links) {
    checks.expect(link.residual_flows == 0,
                  format("%s: link %s ends with %d residual flows", fc.label.c_str(),
                         link.name.c_str(), link.residual_flows));
  }
  const std::size_t finished = static_cast<std::size_t>(out.metrics.completed) +
                               static_cast<std::size_t>(out.metrics.departed_early);
  checks.expect(finished == fc.planned,
                format("%s: %zu completed + departed of %zu planned", fc.label.c_str(),
                       finished, fc.planned));
  const std::string digest = fleet_digest(out.result);
  checks.expect(digest == reference_digest,
                format("%s: digest %s differs from reference %s", fc.label.c_str(),
                       digest.c_str(), reference_digest.c_str()));
}

/// Every CDN node's counters summed into one.
fleet::CdnStats cdn_totals(const fleet::FleetResult& result) {
  fleet::CdnStats totals;
  for (const fleet::CdnStats& cdn : result.cdns) {
    totals.requests += cdn.requests;
    totals.edge_hits += cdn.edge_hits;
    totals.origin_fetches += cdn.origin_fetches;
    totals.edge_hit_bytes += cdn.edge_hit_bytes;
    totals.regional_hit_bytes += cdn.regional_hit_bytes;
    totals.origin_bytes += cdn.origin_bytes;
    totals.edge_evictions += cdn.edge_evictions;
    totals.regional_evictions += cdn.regional_evictions;
  }
  return totals;
}

/// Share of the time the link named `name` bound the paths through it:
/// LinkStats::binding_s sums over those paths, so it is divided by their
/// count as well as by the observed time. Empty when no such link exists.
std::optional<double> binding_share(const fleet::FleetResult& result,
                                    const fleet::TopologySpec& spec, const std::string& name) {
  for (std::size_t l = 0; l < spec.links.size() && l < result.links.size(); ++l) {
    if (spec.links[l].name != name) continue;
    std::size_t paths = 0;
    for (const fleet::PathSpec& path : spec.paths) {
      paths += std::count(path.hops.begin(), path.hops.end(), l) > 0 ? 1 : 0;
    }
    const fleet::LinkStats& link = result.links[l];
    return paths > 0 && link.observed_s > 0.0
               ? link.binding_s / (link.observed_s * static_cast<double>(paths))
               : 0.0;
  }
  return std::nullopt;
}

/// Runs any of the three fleet workloads. `threads` is the shard
/// worker count of the timed runs; each case is also run once untimed at
/// threads=1 as the digest reference.
WorkloadReport run_fleet_workload(const RunOptions& options, SpanRecorder& spans,
                                  int threads,
                                  const std::function<FleetInputs(SpanRecorder&)>& setup) {
  WorkloadReport report;
  spans.set_enabled(options.trace);
  SetupSampler setups(spans, [&] { return setup(spans); });
  const FleetInputs in = setups.slice();

  // Untimed reference: the serial path warms caches and fixes each case's
  // digest and simulated outputs.
  spans.set_group("reference");
  std::vector<FleetOutcome> reference;
  for (const FleetCase& fc : in.cases) {
    reference.push_back(run_case(spans, in, fc, /*profile=*/false, /*threads=*/1));
    report.digests.emplace_back(fc.label, fleet_digest(reference.back().result));
    // Only the aggregates are read from here on; the per-client logs would
    // double the resident set of the timed iterations.
    std::vector<fleet::ClientResult>().swap(reference.back().result.clients);
  }

  // Traced iterations keep their engine profiles (phase times and sync
  // counters) and event counts.
  std::vector<obs::EngineProfile> profiles;
  std::size_t events = 0;
  const auto iterate = [&](bool traced) {
    std::vector<FleetOutcome> outcomes;
    const IterationTime t = timed([&] {
      double sim_s = 0.0;
      for (const FleetCase& fc : in.cases) {
        outcomes.push_back(run_case(spans, in, fc, traced, threads));
        sim_s += simulated_seconds(outcomes.back().result);
      }
      return sim_s;
    });
    Scope span(spans, "bench.check");
    obs::EngineProfile merged;
    events = 0;
    for (std::size_t c = 0; c < in.cases.size(); ++c) {
      check_fleet(report.checks, in.cases[c], outcomes[c], report.digests[c].second);
      const obs::EngineProfile& p = outcomes[c].result.profile;
      merged.drain.wall_s += p.drain.wall_s;
      merged.drain.calls += p.drain.calls;
      merged.register_phase.wall_s += p.register_phase.wall_s;
      merged.register_phase.calls += p.register_phase.calls;
      merged.admit.wall_s += p.admit.wall_s;
      merged.admit.calls += p.admit.calls;
      merged.link_sync_checks += p.link_sync_checks;
      merged.link_sync_refreshes += p.link_sync_refreshes;
      events += outcomes[c].result.steps;
    }
    if (traced) profiles.push_back(merged);
    return t;
  };
  const LoopResult loop = timed_loop(options, spans, iterate, [&] { setups.slice(); });
  report.iterations = loop.iterations;
  report.cpu_rates = loop.untraced_cpu_rates;
  report.reference_speeds = loop.reference_speeds;

  // The demuxed-storage (first) case carries the simulated QoE outputs.
  const fleet::FleetMetrics& sim = reference.front().metrics;
  if (!options.trace) {
    report.metrics = {
        {"setup_s", "s", to_reference_s(setups.median_cpu_s(), loop.reference_speed())},
        {"sim_s_per_ref_s", "sim-s/ref-s", loop.untraced_rate()},
        {"setup_wall_s", "s", setups.median_wall_s()},
        {"sim_s_per_wall_s", "sim-s/s", loop.untraced.sim_s / loop.untraced.wall_s},
        {"peak_rss_mib", "MiB", peak_rss_mib()},
        {"mean_qoe", "qoe", sim.mean_qoe},
        {"stall_ratio_p90", "ratio", sim.stall_ratio.p90},
    };
    for (std::size_t c = 0; c < in.cases.size(); ++c) {
      if (reference[c].result.cdns.empty() ||
          in.cases[c].config.cdn.storage != StorageMode::kDemuxed) {
        continue;
      }
      report.metrics.push_back(
          {"edge_byte_hit_ratio", "ratio", cdn_totals(reference[c].result).byte_hit_ratio()});
    }
    return report;
  }

  const auto layer = [&](std::string name, const char* unit, double value) {
    report.metrics.push_back({std::move(name), unit, value});
  };
  layer("obs.trace_overhead_ratio", "ratio", loop.traced_rate() / loop.untraced_rate());
  layer("media.content_s", "s", spans.median_group_total("media.make_drama_content", "setup-"));
  layer("manifest.view_s", "s", spans.median_group_total("manifest.view_from_mpd", "setup-"));
  layer("net.trace_gen_s", "s", spans.median_group_total("net.trace_gen", "setup-"));
  layer("fleet.plan_s", "s", spans.median_group_total("fleet.plan_population", "setup-"));
  layer("cdn.catalog_s", "s", spans.median_group_total("cdn.make_fleet_catalog", "setup-"));
  const double engine_s = spans.median_group_total("fleet.run_fleet", "iter-");
  layer("fleet.engine_s", "s", engine_s);
  layer("fleet.metrics_s", "s", spans.median_group_total("fleet.compute_fleet_metrics", "iter-"));
  layer("obs.detect_incidents_s", "s", spans.median_group_total("obs.detect_incidents", "iter-"));
  layer("obs.export_s", "s", spans.median_group_total("obs.to_ndjson", "iter-"));

  // Event and sync counts repeat exactly across iterations of one
  // configuration; the last traced iteration's are the run's.
  const std::uint64_t checks = profiles.back().link_sync_checks;
  const std::uint64_t refreshes = profiles.back().link_sync_refreshes;
  layer("fleet.events", "count", static_cast<double>(events));
  layer("fleet.ns_per_event", "ns",
        events > 0 ? engine_s * 1e9 / static_cast<double>(events) : 0.0);
  layer("fleet.sync_checks", "count", static_cast<double>(checks));
  layer("fleet.sync_refreshes", "count", static_cast<double>(refreshes));
  layer("fleet.sync_hit_ratio", "ratio",
        checks > 0 ? 1.0 - static_cast<double>(refreshes) / static_cast<double>(checks) : 0.0);
  // Each engine phase's wall time and call count, medians over the traced
  // iterations.
  const auto phase = [&](const char* name, obs::PhaseStats obs::EngineProfile::*stats) {
    std::vector<double> wall_s, calls;
    for (const obs::EngineProfile& p : profiles) {
      wall_s.push_back((p.*stats).wall_s);
      calls.push_back(static_cast<double>((p.*stats).calls));
    }
    layer(format("fleet.%s_s", name), "s", median(std::move(wall_s)));
    layer(format("fleet.%s.calls", name), "count", median(std::move(calls)));
  };
  phase("drain", &obs::EngineProfile::drain);
  phase("register", &obs::EngineProfile::register_phase);
  phase("admit", &obs::EngineProfile::admit);

  for (std::size_t c = 0; c < in.cases.size(); ++c) {
    const fleet::FleetResult& r = reference[c].result;
    if (r.timeline.has_value()) {
      layer("obs.telemetry_bins", "count", static_cast<double>(r.timeline->bin_count()));
      layer("obs.incidents", "count",
            static_cast<double>(obs::detect_incidents(*r.timeline).size()));
    }
    if (r.links.empty()) {
      layer("net.link.peak_flows", "count", r.video_link.peak_flows);
      layer("net.link.utilization", "ratio", r.video_link.utilization());
    } else if (const auto share = binding_share(r, *in.cases[c].config.topology, "core")) {
      layer("net.core.binding_share", "ratio", *share);
    }
    if (r.cdns.empty()) continue;
    const char* mode = storage_mode_name(in.cases[c].config.cdn.storage);
    const fleet::CdnStats totals = cdn_totals(r);
    layer(format("cdn.%s.requests", mode), "count", static_cast<double>(totals.requests));
    layer(format("cdn.%s.edge_hits", mode), "count", static_cast<double>(totals.edge_hits));
    layer(format("cdn.%s.origin_fetches", mode), "count",
          static_cast<double>(totals.origin_fetches));
    layer(format("cdn.%s.evictions", mode), "count",
          static_cast<double>(totals.edge_evictions + totals.regional_evictions));
    layer(format("cdn.%s.origin_mb", mode), "MiB",
          static_cast<double>(totals.origin_bytes) / (1024.0 * 1024.0));
    layer(format("cdn.%s.edge_byte_hit_ratio", mode), "ratio", totals.byte_hit_ratio());
  }

  // Parallel cases: partition, then time each shard alone through the
  // scheduler's two-phase API, against the pool's wall time.
  if (threads > 1) {
    spans.set_group("shards");
    double shard_sum = 0.0, shard_max = 0.0;
    std::size_t shard_count = 0;
    for (const FleetCase& fc : in.cases) {
      const std::vector<fleet::ClientPlan> plans = fleet::plan_population(fc.config);
      fleet::ShardPartition partition;
      {
        Scope span(spans, "fleet.partition_fleet");
        partition = fleet::partition_fleet(*fc.config.topology, plans);
      }
      shard_count = partition.shards.size();
      fleet::FleetConfig proto = fc.config;
      proto.topology.reset();
      proto.threads = 1;
      proto.profile = true;  // as in the traced iterations engine_s comes from
      proto.streaming.client_threshold = fc.config.streaming.enabled_for(plans.size())
                                             ? 0
                                             : std::numeric_limits<std::size_t>::max();
      for (const fleet::FleetShard& shard : partition.shards) {
        fleet::FleetConfig sub = proto;
        sub.client_count = static_cast<int>(shard.plans.size());
        sub.topology = shard.spec;
        fleet::FleetScheduler scheduler(in.content, in.view, fc.bottleneck, std::move(sub));
        const auto t0 = Clock::now();
        {
          Scope span(spans, "fleet.FleetScheduler.run_engine");
          const fleet::FleetResult part = scheduler.run_engine(shard.plans);
          if (part.steps == 0) throw std::runtime_error("shard ran no events");
        }
        const double shard_s = seconds_since(t0);
        shard_sum += shard_s;
        shard_max = std::max(shard_max, shard_s);
      }
    }
    layer("fleet.partition_s", "s", spans.median_group_total("fleet.partition_fleet", "shards"));
    layer("fleet.shards", "count", static_cast<double>(shard_count));
    layer("fleet.shard_engine_s_sum", "s", shard_sum);
    layer("fleet.shard_engine_s_max", "s", shard_max);
    layer("util.pool_efficiency", "ratio",
          engine_s > 0.0 ? shard_sum / (threads * engine_s) : 0.0);
  }
  return report;
}

// --- single-link ------------------------------------------------------------

// 1000 clients on one bottleneck carrying the Fig-3 square wave (300/900
// kbps, 8 s phases) scaled per client; serial, full per-client logs.
constexpr int kSingleLinkClients = 1000;

FleetInputs single_link_inputs(SpanRecorder& spans, std::uint64_t seed) {
  FleetInputs in{make_content(spans), {}, {}};
  in.view = make_view(spans, in.content);
  FleetCase fc;
  fc.label = "single-link";
  fc.config = fleet_config(kSingleLinkClients, seed);
  {
    Scope span(spans, "net.trace_gen");
    const double n = kSingleLinkClients;
    fc.bottleneck = BandwidthTrace::square_wave(300.0 * n, 900.0 * n, 8.0, 8.0, true);
  }
  fc.planned = planned_population(spans, fc.config);
  in.cases.push_back(std::move(fc));
  return in;
}

// --- sharded-core -----------------------------------------------------------

// 10 edges x 100 clients into one undersized core (700 kbps per client);
// one connected component, so it runs serially. 1 s telemetry bins, and
// streaming metrics: single-link is the workload that keeps full logs.
constexpr int kEdges = 10;
constexpr int kClientsPerEdge = 100;

FleetInputs sharded_core_inputs(SpanRecorder& spans, std::uint64_t seed) {
  FleetInputs in{make_content(spans), {}, {}};
  in.view = make_view(spans, in.content);
  FleetCase fc;
  fc.label = "sharded-core";
  fc.config = fleet_config(kEdges * kClientsPerEdge, seed);
  fc.config.streaming.client_threshold = 0;
  fc.config.telemetry.enabled = true;
  fc.config.telemetry.bin_s = 1.0;
  {
    Scope span(spans, "net.trace_gen");
    const double per_edge = kClientsPerEdge;
    fleet::TopologySpec spec = fleet::TopologySpec::sharded(
        kEdges, BandwidthTrace::constant(2500.0 * per_edge),
        BandwidthTrace::constant(900.0 * per_edge),
        BandwidthTrace::constant(700.0 * per_edge * kEdges));
    spec.video_assignment = fleet::TopologySpec::block_assignment(kEdges, kClientsPerEdge);
    fc.config.topology = std::move(spec);
  }
  fc.planned = planned_population(spans, fc.config);
  in.cases.push_back(std::move(fc));
  return in;
}

// --- cdn-demux-vs-mux -------------------------------------------------------

// 10 disjoint chains x 100 clients, an LRU edge cache on every access link
// sized to a quarter of the demuxed catalog; the same seeds under demuxed
// then muxed origin storage. Streaming metrics, 2 shard workers.
FleetInputs cdn_inputs(SpanRecorder& spans, std::uint64_t seed) {
  FleetInputs in{make_content(spans), {}, {}};
  in.view = make_view(spans, in.content);
  std::shared_ptr<const ObjectCatalog> catalogs[2];
  {
    Scope span(spans, "cdn.make_fleet_catalog");
    catalogs[0] = fleet::make_fleet_catalog(in.content, StorageMode::kDemuxed);
    catalogs[1] = fleet::make_fleet_catalog(in.content, StorageMode::kMuxed);
  }
  fleet::TopologySpec spec;
  {
    Scope span(spans, "net.trace_gen");
    const double per_edge = kClientsPerEdge;
    for (int e = 0; e < kEdges; ++e) {
      const std::size_t edge =
          spec.add_link(format("edge-%d", e), BandwidthTrace::constant(900.0 * per_edge));
      const std::size_t core =
          spec.add_link(format("core-%d", e), BandwidthTrace::constant(700.0 * per_edge));
      spec.add_path(format("chain-%d", e), {edge, core});
      spec.links[edge].cache = fleet::CacheSpec{catalogs[0]->total_bytes() / 4, -1};
    }
    spec.video_assignment = fleet::TopologySpec::block_assignment(kEdges, kClientsPerEdge);
  }
  for (const StorageMode storage : {StorageMode::kDemuxed, StorageMode::kMuxed}) {
    FleetCase fc;
    fc.label = format("cdn-%s", storage_mode_name(storage));
    fc.config = fleet_config(kEdges * kClientsPerEdge, seed);
    fc.config.streaming.client_threshold = 0;
    fc.config.topology = spec;
    fc.config.cdn.storage = storage;
    fc.config.cdn.catalog = catalogs[storage == StorageMode::kDemuxed ? 0 : 1];
    if (storage == StorageMode::kMuxed) {
      fc.config.players = {{"muxed", [] { return std::make_unique<MuxedPlayer>(); }, 1.0}};
    }
    fc.planned = planned_population(spans, fc.config);
    in.cases.push_back(std::move(fc));
  }
  return in;
}

// --- paper-grid -------------------------------------------------------------

// Every comparison player x every trace-corpus class x 32 trace seeds, one
// SweepRunner session each. The sweep runs serially, so a session's wall
// time (session_ms_*) is its own and not shared with a concurrent session.
constexpr int kGridSeeds = 32;
constexpr double kGridTraceSeconds = 480.0;

/// The grid's generated traces (with their class and name) and its jobs.
struct GridInputs {
  struct Trace {
    const TraceClass* trace_class;
    std::string name;
    BandwidthTrace trace;
  };
  std::vector<Trace> traces;
  std::vector<experiments::SweepJob> jobs;
};

WorkloadReport run_paper_grid(const RunOptions& options, SpanRecorder& spans) {
  WorkloadReport report;
  spans.set_enabled(options.trace);
  SetupSampler setups(spans, [&] {
    GridInputs built;
    const auto& players = experiments::comparison_players();
    for (const TraceClass& trace_class : trace_class_registry()) {
      for (int r = 0; r < kGridSeeds; ++r) {
        const std::uint64_t trace_seed = options.seed * 1000 + static_cast<std::uint64_t>(r);
        const std::string trace_name = format("%s#%llu", trace_class.name.c_str(),
                                              static_cast<unsigned long long>(trace_seed));
        {
          Scope span(spans, "net.trace_gen");
          built.traces.push_back(
              {&trace_class, trace_name, trace_class.generate(kGridTraceSeconds, trace_seed)});
        }
        const BandwidthTrace& trace = built.traces.back().trace;
        for (std::size_t p = 0; p < players.size(); ++p) {
          experiments::SweepJob job;
          job.id = players[p].label + "/" + trace_name;
          job.player = players[p].label;
          job.trace = trace_class.name;
          {
            Scope span(spans, "experiments.comparison_setup");
            job.setup = std::make_shared<const experiments::ExperimentSetup>(
                experiments::comparison_setup(p, trace, trace_name));
          }
          job.make_player = players[p].factory;
          built.jobs.push_back(std::move(job));
        }
      }
    }
    return built;
  });
  const GridInputs in = setups.slice();
  const std::vector<experiments::SweepJob>& jobs = in.jobs;
  // Every set-up generates the same traces from the seed; the first's are
  // checked against their class envelopes, outside the timing.
  for (const GridInputs::Trace& t : in.traces) {
    const std::string violation = check_envelope(t.trace, t.trace_class->envelope);
    report.checks.expect(violation.empty(), t.name + ": " + violation);
  }

  experiments::SweepOptions sweep_options;
  sweep_options.threads = 1;
  sweep_options.with_qoe = true;
  const experiments::SweepRunner runner(sweep_options);
  // Byte-exact log_fingerprint digest of the reference sweep, and the
  // cheaper per-session outcome digest every timed sweep must reproduce
  // (log_fingerprint costs ~20x the session it describes).
  const auto outcome_digest = [](experiments::SweepResult& result) {
    std::uint64_t hash = fnv1a("");
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
      fleet::ClientResult client;
      client.id = static_cast<int>(i);
      client.player = result.jobs[i].player;
      client.log = std::move(result.jobs[i].log);
      client.qoe = result.jobs[i].qoe;
      const std::uint64_t session = fleet::client_outcome_digest(client);
      result.jobs[i].log = std::move(client.log);
      hash = fnv1a(std::string_view(reinterpret_cast<const char*>(&session), sizeof session),
                   hash);
    }
    return hex64(hash);
  };

  spans.set_group("reference");
  experiments::SweepResult reference;
  {
    Scope span(spans, "experiments.SweepRunner.run");
    reference = runner.run(jobs);
  }
  {
    Scope span(spans, "experiments.log_fingerprint");
    const std::vector<std::uint64_t> per_job =
        fan_out_ordered(reference.jobs.size(), kThreads, [&](std::size_t i) {
          return fnv1a(experiments::log_fingerprint(reference.jobs[i].log));
        });
    std::uint64_t hash = fnv1a("");
    for (const std::uint64_t h : per_job) {
      hash = fnv1a(std::string_view(reinterpret_cast<const char*>(&h), sizeof h), hash);
    }
    report.digests.emplace_back("paper-grid.logs", hex64(hash));
  }
  report.digests.emplace_back("paper-grid.outcomes", outcome_digest(reference));
  // The simulated outputs come from the reference; its logs are then
  // dropped so they do not double the resident set of the timed sweeps.
  std::vector<double> stall_ratio;
  double qoe_sum = 0.0;
  for (experiments::SweepJobResult& job : reference.jobs) {
    qoe_sum += job.qoe.qoe_score;
    stall_ratio.push_back(job.log.end_time_s > 0.0 ? job.log.total_stall_s() / job.log.end_time_s
                                                   : 0.0);
    job.log = SessionLog{};
  }

  std::vector<double> session_ms;
  std::map<std::string, std::vector<double>> by_group;
  const auto iterate = [&](bool) {
    experiments::SweepResult result;
    const IterationTime t = timed([&] {
      Scope span(spans, "experiments.SweepRunner.run");
      result = runner.run(jobs);
      double sim_s = 0.0;
      for (const experiments::SweepJobResult& job : result.jobs) sim_s += job.log.end_time_s;
      return sim_s;
    });
    Scope span(spans, "bench.check");
    for (const experiments::SweepJobResult& job : result.jobs) {
      session_ms.push_back(job.wall_s * 1e3);
      by_group[job.player].push_back(job.wall_s * 1e3);
      by_group[job.trace].push_back(job.wall_s * 1e3);
    }
    const std::string digest = outcome_digest(result);
    report.checks.expect(digest == report.digests.back().second,
                         format("paper-grid: outcome digest %s differs from reference %s",
                                digest.c_str(), report.digests.back().second.c_str()));
    return t;
  };
  const LoopResult loop = timed_loop(options, spans, iterate, [&] { setups.slice(); });
  report.iterations = loop.iterations;
  report.cpu_rates = loop.untraced_cpu_rates;
  report.reference_speeds = loop.reference_speeds;
  // 1024 sessions per iteration and at least kMinIterations iterations
  // always leave 10 samples beyond p99.
  if (tail_percentile_level(session_ms.size()) < 99.0) {
    throw std::logic_error(format("%zu sessions are too few for p99", session_ms.size()));
  }

  if (!options.trace) {
    report.metrics = {
        {"setup_s", "s", to_reference_s(setups.median_cpu_s(), loop.reference_speed())},
        {"sim_s_per_ref_s", "sim-s/ref-s", loop.untraced_rate()},
        {"setup_wall_s", "s", setups.median_wall_s()},
        {"sim_s_per_wall_s", "sim-s/s", loop.untraced.sim_s / loop.untraced.wall_s},
        {"peak_rss_mib", "MiB", peak_rss_mib()},
        {"mean_qoe", "qoe", qoe_sum / static_cast<double>(reference.jobs.size())},
        {"stall_ratio_p90", "ratio", percentile(stall_ratio, 90.0)},
        {"session_ms_p50", "ms", percentile(session_ms, 50.0)},
        {"session_ms_p99", "ms", percentile(session_ms, 99.0)},
    };
    return report;
  }

  const auto layer = [&](std::string name, const char* unit, double value) {
    report.metrics.push_back({std::move(name), unit, value});
  };
  layer("obs.trace_overhead_ratio", "ratio", loop.traced_rate() / loop.untraced_rate());
  layer("net.trace_gen_s", "s", spans.median_group_total("net.trace_gen", "setup-"));
  layer("experiments.setup_build_s", "s",
        spans.median_group_total("experiments.comparison_setup", "setup-"));
  layer("experiments.sweep_s", "s",
        spans.median_group_total("experiments.SweepRunner.run", "iter-"));
  layer("sim.session_ms_p50", "ms", percentile(session_ms, 50.0));
  layer("sim.session_ms_p99", "ms", percentile(session_ms, 99.0));
  for (const auto& [group, values] : by_group) {
    layer("sim.session_ms_p50." + group, "ms", percentile(values, 50.0));
  }
  return report;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"single-link", "sharded-core",
                                                 "cdn-demux-vs-mux", "paper-grid"};
  return names;
}

WorkloadReport run_workload(const RunOptions& options, SpanRecorder& spans) {
  if (options.workload == "single-link") {
    return run_fleet_workload(options, spans, /*threads=*/1, [&](SpanRecorder& s) {
      return single_link_inputs(s, options.seed);
    });
  }
  if (options.workload == "sharded-core") {
    return run_fleet_workload(options, spans, /*threads=*/1, [&](SpanRecorder& s) {
      return sharded_core_inputs(s, options.seed);
    });
  }
  if (options.workload == "cdn-demux-vs-mux") {
    return run_fleet_workload(options, spans, kThreads, [&](SpanRecorder& s) {
      return cdn_inputs(s, options.seed);
    });
  }
  if (options.workload == "paper-grid") return run_paper_grid(options, spans);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

}  // namespace perfbench
