// The benchmark's four workloads (README.md): batch jobs run to completion,
// one at a time, each from inputs made from one seed.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: alternate traced and untraced iterations, record spans and
  /// the engine's phase profile, report per-layer metrics.
  bool trace = false;
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct WorkloadReport {
  /// Untraced run: the end-to-end metrics. Traced run: the per-layer ones.
  std::vector<Metric> metrics;
  /// Fingerprint digests, one per simulated output (name, 16 hex digits).
  std::vector<std::pair<std::string, std::string>> digests;
  Checks checks;
  int iterations = 0;
  /// Simulated seconds per CPU second of each untraced timed iteration, in
  /// run order.
  std::vector<double> cpu_rates;
  /// The reference loop's speed (report.h) after each timed iteration,
  /// steps per CPU second.
  std::vector<double> reference_speeds;
};

/// Names accepted by run_workload, in README order.
const std::vector<std::string>& workload_names();

/// Set up, warm up and time `options.workload` for `options.seconds`,
/// checking every output. Throws std::invalid_argument for an unknown name.
WorkloadReport run_workload(const RunOptions& options, SpanRecorder& spans);

}  // namespace perfbench
