// The benchmark's own arithmetic and recording: order statistics and the
// tail-percentile rule, simulated-time accounting, output-check counting,
// digests, benchmark-side spans and the host descriptor. Nothing here runs
// inside the simulator; spans wrap the benchmark's calls into it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/metrics.h"

namespace perfbench {

/// Median of `values` (mean of the two middle values for even counts); 0
/// when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile: the value at rank ceil(p/100 · n) of the sorted
/// samples, p in (0, 100]. 0 when empty.
double percentile(std::vector<double> values, double p);

/// Samples ranked strictly above percentile `p`'s nearest rank.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of p50 / p90 / p99 / p99.9 that has at least 10 samples
/// beyond it among `n`; 0 when not even p50 qualifies (n < 20).
double tail_percentile_level(std::size_t n);

/// Simulated session-seconds of a fleet run, Σ(client end − arrival): summed
/// over the per-client logs in full mode, read from
/// StreamingFleetStats::active_s_sum in streaming mode.
double simulated_seconds(const demuxabr::fleet::FleetResult& result);

/// Output checks of one run: every check counts as attempted, every false
/// one as failed; error_rate = failed ÷ attempted.
class Checks {
 public:
  void expect(bool ok, const std::string& what);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] double error_rate() const;
  /// Descriptions of the first few failures.
  [[nodiscard]] const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// 64-bit FNV-1a of `bytes`, rendered as 16 hex digits by hex64().
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 14695981039346656037ull);
std::string hex64(std::uint64_t value);

/// In-memory span log of benchmark-side layer boundaries. Spans nest by
/// open order; every span carries the group id (one setup repetition or one
/// iteration) current when it opened. Single-threaded. Disabled recorders
/// read no clocks.
class SpanRecorder {
 public:
  struct Span {
    std::string name;  ///< "<layer>.<function>"
    std::string group;
    double start_s = 0.0;  ///< since the recorder was made
    double end_s = 0.0;
    int parent = -1;  ///< index into spans(), -1 for a root
  };

  /// Records one span for its lifetime when the recorder is enabled.
  class Scope {
   public:
    Scope(SpanRecorder& recorder, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder& recorder_;
    int index_ = -1;
  };

  SpanRecorder();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_group(std::string group) { group_ = std::move(group); }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Per group whose id starts with `group_prefix` and that holds a span
  /// named `name`: the summed duration of those spans. The median over
  /// such groups; 0 when there are none.
  [[nodiscard]] double median_group_total(const std::string& name,
                                          const std::string& group_prefix) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds), loadable
  /// in chrome://tracing and Perfetto. `metadata_json` is an object placed
  /// under "otherData".
  [[nodiscard]] std::string chrome_json(const std::string& metadata_json) const;

 private:
  [[nodiscard]] double now_s() const;

  bool enabled_ = false;
  std::string group_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Cores, CPU model, compiler and build type as one JSON object.
std::string host_json();

/// Process resident-set high-water mark in MiB (getrusage).
double peak_rss_mib();

/// Wall seconds since `t0`.
double seconds_since(std::chrono::steady_clock::time_point t0);

/// CPU seconds used so far by every thread of the process
/// (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it leaves out the time the
/// host ran something else on this CPU (steal, preemption).
double process_cpu_s();

/// Host-normalised time. On a shared host the speed of a core drifts with
/// what its neighbours run: the same run can take 1.5x longer one minute
/// than the next, in CPU time as in wall time. The benchmark therefore runs
/// a fixed reference loop after every timed iteration and scales the CPU
/// time of the run by the loop's speed over the same run. A
/// reference-second is a CPU second of a core that runs the loop at exactly
/// kReferenceStepsPerS.
///
/// The loop is an event-heap simulation: a binary heap of timed events,
/// per-entity state updates and short-lived log vectors, like the
/// simulator's own inner loop, so that it slows down under the same kinds of
/// contention. It is frozen: changing it changes every normalised metric.
inline constexpr double kReferenceStepsPerS = 6.0e6;

/// Runs the reference loop once (about 1e6 steps, ~0.17 s at the nominal
/// speed) and returns its speed in steps per CPU second.
double reference_steps_per_cpu_s();

/// The speed of several runs of the reference loop taken together: total
/// steps over total CPU time, i.e. the harmonic mean of `speeds`. 0 when
/// empty.
double combined_speed(const std::vector<double>& speeds);

/// `cpu_s` CPU seconds measured while the reference loop ran at
/// `reference_speed` steps per CPU second, in reference-seconds.
double to_reference_s(double cpu_s, double reference_speed);

}  // namespace perfbench
