// perfbench: run one benchmark workload and print its record.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints human-readable lines, then one JSON record as the last line:
// workload, seed, host descriptor, fingerprint digests, output checks and
// every metric with its unit. With --trace 1 the spans are written to
// DIR/<workload>-seed<N>.trace.json (Chrome trace-event JSON). Exits 1 when
// an output check fails, 2 on bad arguments or a failed run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/trace.h"
#include "report.h"
#include "util/csv.h"
#include "util/strings.h"
#include "workloads.h"

namespace {

using demuxabr::format;
using demuxabr::obs::json_escape;

[[noreturn]] void usage(const char* problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\nworkloads:",
               problem);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::string record_json(const perfbench::RunOptions& options,
                        const perfbench::WorkloadReport& report, const std::string& host) {
  std::string digests;
  for (const auto& [name, digest] : report.digests) {
    digests += format("%s\"%s\": \"%s\"", digests.empty() ? "" : ", ",
                      json_escape(name).c_str(), digest.c_str());
  }
  std::string failures;
  for (const std::string& failure : report.checks.failures()) {
    failures += format("%s\"%s\"", failures.empty() ? "" : ", ", json_escape(failure).c_str());
  }
  const auto list = [](const std::vector<double>& values) {
    std::string out;
    for (const double v : values) out += format("%s%.17g", out.empty() ? "" : ", ", v);
    return out;
  };
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    metrics += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      metrics.empty() ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  return format(
      "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %.17g, \"trace\": %d, "
      "\"host\": %s, \"iterations\": %d, \"iteration_cpu_rates\": [%s], "
      "\"reference_speeds\": [%s], \"digests\": {%s}, "
      "\"checks\": {\"attempted\": %zu, \"failed\": %zu, \"error_rate\": %.17g, "
      "\"failures\": [%s]}, \"metrics\": {%s}}",
      json_escape(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, host.c_str(), report.iterations,
      list(report.cpu_rates).c_str(), list(report.reference_speeds).c_str(), digests.c_str(),
      report.checks.attempted(), report.checks.failed(), report.checks.error_rate(),
      failures.c_str(), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string out_dir = ".";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty() || value[0] == '-') usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        usage("bad --seconds");
      }
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have_workload && have_seed && have_seconds && have_trace)) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) known |= name == options.workload;
  if (!known) usage(("unknown workload " + options.workload).c_str());

  const std::string host = perfbench::host_json();
  std::printf("host: %s\n", host.c_str());
  perfbench::SpanRecorder spans;
  perfbench::WorkloadReport report;
  try {
    report = perfbench::run_workload(options, spans);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
    return 2;
  }

  for (const auto& [name, digest] : report.digests) {
    std::printf("digest %s: %s\n", name.c_str(), digest.c_str());
  }
  std::printf("iterations: %d, untraced sim-s per CPU second:", report.iterations);
  for (const double rate : report.cpu_rates) std::printf(" %.0f", rate);
  std::printf("\nreference loop, steps per CPU second:");
  for (const double speed : report.reference_speeds) std::printf(" %.3g", speed);
  std::printf("\n");
  for (const std::string& failure : report.checks.failures()) {
    std::printf("check failed: %s\n", failure.c_str());
  }
  if (options.trace) {
    const std::string path = format("%s/%s-seed%llu.trace.json", out_dir.c_str(),
                                    options.workload.c_str(),
                                    static_cast<unsigned long long>(options.seed));
    const demuxabr::Status written = demuxabr::write_file(
        path, spans.chrome_json(format("{\"workload\": \"%s\", \"host\": %s}",
                                       options.workload.c_str(), host.c_str())));
    if (!written.ok()) {
      std::fprintf(stderr, "perfbench: cannot write %s: %s\n", path.c_str(),
                   written.error().c_str());
      return 2;
    }
    std::printf("spans: %zu written to %s\n", spans.spans().size(), path.c_str());
  }
  std::printf("%s\n", record_json(options, report, host).c_str());
  return report.checks.failed() == 0 ? 0 : 1;
}
