#include "experiments/sweep.h"

#include <chrono>
#include <future>
#include <sstream>
#include <utility>

#include "core/coordinated_player.h"
#include "core/muxed_player.h"
#include "players/dashjs.h"
#include "players/exo_legacy.h"
#include "players/exoplayer.h"
#include "players/shaka.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace demuxabr::experiments {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

SweepJobResult run_one(const SweepJob& job, bool with_qoe) {
  SweepJobResult result;
  result.id = job.id;
  result.player = job.player;
  result.trace = job.trace;
  const auto t0 = Clock::now();
  const std::unique_ptr<PlayerAdapter> player = job.make_player();
  result.log = run(*job.setup, *player);
  if (with_qoe) {
    result.qoe = compute_qoe(result.log, job.setup->content.ladder(),
                             job.setup->allowed.empty() ? nullptr : &job.setup->allowed);
  }
  result.completed = result.log.completed;
  result.wall_s = seconds_since(t0);
  return result;
}

}  // namespace

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {}

int SweepRunner::resolved_threads() const {
  return options_.threads > 0 ? options_.threads
                              : static_cast<int>(ThreadPool::default_thread_count());
}

SweepResult SweepRunner::run(const std::vector<SweepJob>& jobs) const {
  SweepResult result;
  result.jobs.resize(jobs.size());
  const int threads = resolved_threads();
  const auto t0 = Clock::now();

  if (threads <= 1) {
    // Serial path: the historical loop, bit for bit — no pool, no futures.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      result.jobs[i] = run_one(jobs[i], options_.with_qoe);
    }
  } else {
    ThreadPool pool(static_cast<unsigned>(threads));
    std::vector<std::future<SweepJobResult>> futures;
    futures.reserve(jobs.size());
    for (const SweepJob& job : jobs) {
      futures.push_back(pool.submit(
          [&job, with_qoe = options_.with_qoe] { return run_one(job, with_qoe); }));
    }
    // Futures are collected in submission order, so completion order (which
    // the pool does not promise) never leaks into the result layout.
    for (std::size_t i = 0; i < futures.size(); ++i) {
      result.jobs[i] = futures[i].get();
    }
  }

  SweepSummary& summary = result.summary;
  summary.threads = threads;
  summary.job_count = jobs.size();
  summary.wall_s = seconds_since(t0);
  for (const SweepJobResult& job : result.jobs) {
    summary.simulated_s += job.log.end_time_s;
  }
  if (summary.wall_s > 0.0) {
    summary.sessions_per_s = static_cast<double>(jobs.size()) / summary.wall_s;
    summary.simulated_per_wall = summary.simulated_s / summary.wall_s;
  }
  return result;
}

const std::vector<ComparisonPlayer>& comparison_players() {
  static const std::vector<ComparisonPlayer> players = [] {
    std::vector<ComparisonPlayer> list;
    list.push_back({"exo-legacy", []() -> std::unique_ptr<PlayerAdapter> {
                      return std::make_unique<ExoLegacyPlayerModel>();
                    }});
    list.push_back({"exoplayer", []() -> std::unique_ptr<PlayerAdapter> {
                      return std::make_unique<ExoPlayerModel>();
                    }});
    list.push_back({"shaka", []() -> std::unique_ptr<PlayerAdapter> {
                      return std::make_unique<ShakaPlayerModel>();
                    }});
    list.push_back({"dashjs", []() -> std::unique_ptr<PlayerAdapter> {
                      return std::make_unique<DashJsPlayerModel>();
                    }});
    list.push_back({"muxed", []() -> std::unique_ptr<PlayerAdapter> {
                      return std::make_unique<MuxedPlayer>();
                    }});
    list.push_back({"coordinated", []() -> std::unique_ptr<PlayerAdapter> {
                      return std::make_unique<CoordinatedPlayer>();
                    }});
    list.push_back({"coordinated-mpc", []() -> std::unique_ptr<PlayerAdapter> {
                      CoordinatedConfig config;
                      config.algorithm = AbrAlgorithm::kMpc;
                      return std::make_unique<CoordinatedPlayer>(config);
                    }});
    list.push_back({"coordinated-bba", []() -> std::unique_ptr<PlayerAdapter> {
                      CoordinatedConfig config;
                      config.algorithm = AbrAlgorithm::kBufferBased;
                      return std::make_unique<CoordinatedPlayer>(config);
                    }});
    return list;
  }();
  return players;
}

namespace {

enum class SetupKind { kPlainDash, kShakaHall, kBestPractice };

SetupKind setup_kind_for(const std::string& player_label) {
  if (player_label == "shaka") return SetupKind::kShakaHall;
  if (player_label.rfind("coordinated", 0) == 0) return SetupKind::kBestPractice;
  return SetupKind::kPlainDash;
}

ExperimentSetup build_setup(SetupKind kind, const BandwidthTrace& trace,
                            const std::string& trace_name) {
  switch (kind) {
    case SetupKind::kShakaHall: {
      ExperimentSetup setup = fig4a_shaka_hall_1mbps();
      setup.trace = trace;
      return setup;
    }
    case SetupKind::kBestPractice:
      return bestpractice_dash(trace, trace_name);
    case SetupKind::kPlainDash:
      break;
  }
  return plain_dash(trace, trace_name);
}

}  // namespace

ExperimentSetup comparison_setup(std::size_t player_index, const BandwidthTrace& trace,
                                 const std::string& trace_name) {
  const auto& players = comparison_players();
  const std::string& label = players.at(player_index).label;
  return build_setup(setup_kind_for(label), trace, trace_name);
}

std::vector<SweepJob> comparison_matrix() {
  std::vector<SweepJob> jobs;
  const auto& players = comparison_players();
  for (const NamedTrace& named : comparison_traces()) {
    // One setup per kind per trace, shared by every player that uses it —
    // the Content / manifest round-trip is built once, never per job.
    std::shared_ptr<const ExperimentSetup> shared_setups[3] = {};
    for (const ComparisonPlayer& player : players) {
      const SetupKind kind = setup_kind_for(player.label);
      auto& cached = shared_setups[static_cast<std::size_t>(kind)];
      if (cached == nullptr) {
        cached = std::make_shared<const ExperimentSetup>(
            build_setup(kind, named.trace, named.name));
      }
      SweepJob job;
      job.id = player.label + "/" + named.name;
      job.player = player.label;
      job.trace = named.name;
      job.setup = cached;
      job.make_player = player.factory;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<ComparisonRow> comparison_rows(const SweepResult& result) {
  std::vector<ComparisonRow> rows;
  rows.reserve(result.jobs.size());
  for (const SweepJobResult& job : result.jobs) {
    ComparisonRow row;
    row.player = job.log.player_name;
    row.trace = job.trace;
    row.qoe = job.qoe;
    row.completed = job.completed;
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

void fingerprint_series(std::ostringstream& out, const char* name,
                        const TimeSeries& series) {
  out << name << ":" << series.size() << "\n";
  for (const TimeSeries::Point& p : series.points()) {
    out << format("%.17g,%.17g\n", p.t, p.value);
  }
}

void fingerprint_records(std::ostringstream& out, const char* name,
                         const std::vector<DownloadRecord>& records) {
  out << name << ":" << records.size() << "\n";
  for (const DownloadRecord& r : records) {
    out << media_type_name(r.type) << "," << r.track_id << "," << r.chunk_index
        << "," << r.bytes << "," << format("%.17g,%.17g\n", r.start_t, r.end_t);
  }
}

}  // namespace

std::string log_fingerprint(const SessionLog& log) {
  std::ostringstream out;
  out << "player:" << log.player_name << "\n"
      << format("meta:%.17g,%.17g,%d\n", log.content_duration_s, log.chunk_duration_s,
                log.total_chunks)
      << format("startup:%.17g end:%.17g completed:%d\n", log.startup_delay_s,
                log.end_time_s, log.completed ? 1 : 0);
  fingerprint_records(out, "downloads", log.downloads);
  fingerprint_records(out, "abandoned", log.abandoned);
  out << "stalls:" << log.stalls.size() << "\n";
  for (const StallEvent& s : log.stalls) {
    out << format("%.17g,%.17g\n", s.start_t, s.end_t);
  }
  out << "seeks:" << log.seeks.size() << "\n";
  for (const SeekRecord& s : log.seeks) {
    out << format("%.17g,%.17g,%.17g\n", s.at_t, s.from_position_s, s.to_position_s);
  }
  out << "video_selection:";
  for (const std::string& id : log.video_selection) out << id << ";";
  out << "\naudio_selection:";
  for (const std::string& id : log.audio_selection) out << id << ";";
  out << "\n";
  fingerprint_series(out, "video_buffer_s", log.video_buffer_s);
  fingerprint_series(out, "audio_buffer_s", log.audio_buffer_s);
  fingerprint_series(out, "bandwidth_estimate_kbps", log.bandwidth_estimate_kbps);
  fingerprint_series(out, "achieved_throughput_kbps", log.achieved_throughput_kbps);
  fingerprint_series(out, "selected_video_kbps", log.selected_video_kbps);
  fingerprint_series(out, "selected_audio_kbps", log.selected_audio_kbps);
  return out.str();
}

std::string sweep_report_json(const std::string& matrix_name,
                              const std::vector<SweepSummary>& summaries,
                              const std::vector<std::string>& notes) {
  std::ostringstream out;
  out << "{\n"
      << "  \"bench\": \"sweep\",\n"
      << "  \"matrix\": \"" << matrix_name << "\",\n"
      << "  \"hardware_threads\": " << ThreadPool::default_thread_count() << ",\n";
  const SweepSummary* serial = nullptr;
  for (const SweepSummary& s : summaries) {
    if (s.threads == 1) serial = &s;
  }
  out << "  \"runs\": [\n";
  for (std::size_t i = 0; i < summaries.size(); ++i) {
    const SweepSummary& s = summaries[i];
    const double speedup =
        (serial != nullptr && s.wall_s > 0.0) ? serial->wall_s / s.wall_s : 0.0;
    out << format(
        "    {\"threads\": %d, \"jobs\": %zu, \"wall_s\": %.6f, "
        "\"sessions_per_s\": %.3f, \"simulated_s\": %.3f, "
        "\"simulated_per_wall\": %.1f, \"speedup_vs_serial\": %.3f}%s\n",
        s.threads, s.job_count, s.wall_s, s.sessions_per_s, s.simulated_s,
        s.simulated_per_wall, speedup, i + 1 < summaries.size() ? "," : "");
  }
  out << "  ]";
  if (!notes.empty()) {
    out << ",\n  \"notes\": [\n";
    for (std::size_t i = 0; i < notes.size(); ++i) {
      out << "    \"" << notes[i] << "\"" << (i + 1 < notes.size() ? ",\n" : "\n");
    }
    out << "  ]";
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace demuxabr::experiments
