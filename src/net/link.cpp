#include "net/link.h"

#include <cassert>
#include <cmath>

#include "obs/trace.h"
#include "util/logging.h"

namespace demuxabr {

void Link::advance_to(double t) {
  if (t <= clock_s_) return;
  // Walk capacity segments so both the service integral and the offered /
  // delivered capacity integrals are exact under time-varying traces. The
  // partition of this sum is anchored at population-change times and trace
  // segment boundaries only — never at engine barriers — which is what
  // keeps the integrals bit-identical across scheduling engines.
  double at = clock_s_;
  const double inv_flows =
      active_flows_ > 0 ? 1.0 / static_cast<double>(active_flows_) : 1.0;
  while (at < t) {
    const double boundary = trace_.next_change_after(at);
    const double seg_end = std::min(boundary, t);
    const double dt = seg_end - at;
    if (dt <= 0.0) break;  // defensive: a trace must advance time
    const double offered = trace_.rate_kbps(at) * dt;
    offered_kbit_ += offered;
    flow_seconds_ += static_cast<double>(active_flows_) * dt;
    if (active_flows_ > 0) {
      busy_s_ += dt;
      delivered_kbit_ += offered;
      service_kbit_ += offered * inv_flows;
    }
    at = seg_end;
  }
  clock_s_ = t;
}

double Link::add_flow(double now) {
  advance_to(now);
  ++active_flows_;
  peak_flows_ = std::max(peak_flows_, active_flows_);
  ++epoch_;
  DMX_TRACE_COUNTER(obs::kCatLink, obs::kLinkTrackBase, "active_flows", now,
                    obs::TraceArgs().kv("flows", active_flows_));
  return service_kbit_;
}

void Link::remove_flow(double now) {
  advance_to(now);
  if (active_flows_ <= 0) {
    assert(false && "Link::remove_flow on an idle link (double remove)");
    DMX_ERROR << "Link::remove_flow on an idle link (double remove?) — "
                 "flow accounting is corrupt; clamping at zero";
    return;
  }
  --active_flows_;
  ++epoch_;
  DMX_TRACE_COUNTER(obs::kCatLink, obs::kLinkTrackBase, "active_flows", now,
                    obs::TraceArgs().kv("flows", active_flows_));
}

double Link::service_at(double t) const {
  if (t <= clock_s_) return service_kbit_;
  if (active_flows_ <= 0) return service_kbit_;  // idle: nobody is served
  double v = service_kbit_;
  double at = clock_s_;
  const double inv_flows = 1.0 / static_cast<double>(active_flows_);
  while (at < t) {
    const double boundary = trace_.next_change_after(at);
    const double seg_end = std::min(boundary, t);
    const double dt = seg_end - at;
    if (dt <= 0.0) break;
    v += trace_.rate_kbps(at) * dt * inv_flows;
    at = seg_end;
  }
  return v;
}

double Link::time_when_service_reaches(double v_target) const {
  if (v_target <= service_kbit_) return clock_s_;
  if (active_flows_ <= 0) return std::numeric_limits<double>::infinity();
  double v = service_kbit_;
  double at = clock_s_;
  const double inv_flows = 1.0 / static_cast<double>(active_flows_);
  // Walk forward one capacity segment at a time. Terminates for any trace
  // with positive average rate; the iteration cap guards against a
  // pathological all-zero tail (treated as "never").
  for (int guard = 0; guard < 1000000; ++guard) {
    const double boundary = trace_.next_change_after(at);
    const double per_flow_kbps = trace_.rate_kbps(at) * inv_flows;
    if (per_flow_kbps > 0.0) {
      const double t_hit = at + (v_target - v) / per_flow_kbps;
      if (t_hit <= boundary) return t_hit;
      if (!std::isfinite(boundary)) return t_hit;
      v += per_flow_kbps * (boundary - at);
    } else if (!std::isfinite(boundary)) {
      return std::numeric_limits<double>::infinity();
    }
    at = boundary;
  }
  return std::numeric_limits<double>::infinity();
}

}  // namespace demuxabr
