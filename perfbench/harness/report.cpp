#include "report.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <map>
#include <queue>
#include <stdexcept>
#include <thread>

#include "obs/trace.h"
#include "util/strings.h"

namespace perfbench {

using demuxabr::format;
using demuxabr::obs::json_escape;

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps exact products such as 99.9% of 10000 from rounding
  // up a rank through floating-point error.
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double tail_percentile_level(std::size_t n) {
  double level = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= 10) level = p;
  }
  return level;
}

double simulated_seconds(const demuxabr::fleet::FleetResult& result) {
  if (result.streaming.has_value()) return result.streaming->active_s_sum;
  double total = 0.0;
  for (const demuxabr::fleet::ClientResult& client : result.clients) {
    total += client.log.end_time_s - client.arrival_s;
  }
  return total;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what);
}

double Checks::error_rate() const {
  return attempted_ > 0 ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                        : 0.0;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t hash = seed;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  return format("%016llx", static_cast<unsigned long long>(value));
}

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now_s() const { return seconds_since(origin_); }

SpanRecorder::Scope::Scope(SpanRecorder& recorder, std::string name) : recorder_(recorder) {
  if (!recorder_.enabled_) return;
  index_ = static_cast<int>(recorder_.spans_.size());
  Span span;
  span.name = std::move(name);
  span.group = recorder_.group_;
  span.parent = recorder_.open_.empty() ? -1 : recorder_.open_.back();
  span.start_s = recorder_.now_s();
  recorder_.spans_.push_back(std::move(span));
  recorder_.open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  recorder_.spans_[static_cast<std::size_t>(index_)].end_s = recorder_.now_s();
  recorder_.open_.pop_back();
}

double SpanRecorder::median_group_total(const std::string& name,
                                        const std::string& group_prefix) const {
  std::map<std::string, double> totals;
  for (const Span& span : spans_) {
    if (span.name != name || span.group.rfind(group_prefix, 0) != 0) continue;
    totals[span.group] += span.end_s - span.start_s;
  }
  std::vector<double> values;
  values.reserve(totals.size());
  for (const auto& [group, total] : totals) values.push_back(total);
  return median(std::move(values));
}

std::string SpanRecorder::chrome_json(const std::string& metadata_json) const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": " + metadata_json +
                    ",\n\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    out += format(
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %zu, \"parent\": %d, "
        "\"id\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f}}%s\n",
        json_escape(s.name).c_str(), json_escape(layer).c_str(), s.start_s * 1e6,
        (s.end_s - s.start_s) * 1e6, i, s.parent, json_escape(s.group).c_str(), s.start_s,
        s.end_s, i + 1 < spans_.size() ? "," : "");
  }
  out += "]}\n";
  return out;
}

std::string host_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) cpu = demuxabr::trim(line.substr(colon + 1));
      break;
    }
  }
  return format(
      "{\"cores\": %u, \"cpu\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\"}",
      std::thread::hardware_concurrency(), json_escape(cpu).c_str(),
      json_escape(PERFBENCH_COMPILER).c_str(), json_escape(PERFBENCH_BUILD_TYPE).c_str());
}

double peak_rss_mib() {
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

double process_cpu_s() {
  timespec now{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now) != 0) return 0.0;
  return static_cast<double>(now.tv_sec) + static_cast<double>(now.tv_nsec) * 1e-9;
}

double reference_steps_per_cpu_s() {
  constexpr int kEntities = 4096;
  constexpr int kSteps = 1000000;
  constexpr std::size_t kLogLimit = 64;
  using Event = std::pair<double, int>;  // (time, entity)
  const double start = process_cpu_s();
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::vector<double> rate(kEntities, 1.0);
  std::vector<std::vector<double>> logs(kEntities);
  for (int i = 0; i < kEntities; ++i) events.emplace(i * 1e-3, i);
  std::uint64_t x = 88172645463325252ull;  // xorshift64
  double total = 0.0;
  for (int k = 0; k < kSteps; ++k) {
    const auto [t, id] = events.top();
    events.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double u = static_cast<double>(x >> 11) * 0x1.0p-53;
    rate[id] = 0.9 * rate[id] + 0.1 * std::log1p(8.0 * u);
    total += rate[id];
    logs[id].push_back(total);
    if (logs[id].size() > kLogLimit) std::vector<double>().swap(logs[id]);
    events.emplace(t + 0.5 + u, id);
  }
  const double elapsed = process_cpu_s() - start;
  // The loop's result is consumed so that it cannot be optimised away.
  if (!(total > 0.0) || !(elapsed > 0.0)) {
    throw std::runtime_error("reference loop measured no time");
  }
  return kSteps / elapsed;
}

double combined_speed(const std::vector<double>& speeds) {
  double cpu_s_per_step = 0.0;
  for (const double speed : speeds) cpu_s_per_step += 1.0 / speed;
  return speeds.empty() ? 0.0 : static_cast<double>(speeds.size()) / cpu_s_per_step;
}

double to_reference_s(double cpu_s, double reference_speed) {
  return cpu_s * reference_speed / kReferenceStepsPerS;
}

}  // namespace perfbench
