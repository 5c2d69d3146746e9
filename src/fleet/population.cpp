#include "fleet/population.h"

#include <cassert>

#include "util/logging.h"
#include "util/rng.h"

namespace demuxabr::fleet {

std::vector<ClientPlan> plan_population(const FleetConfig& config) {
  if (config.players.empty()) {
    assert(false && "FleetConfig::players must be non-empty");
    DMX_ERROR << "FleetConfig::players is empty — no player to assign; "
                 "planning no clients";
    return {};
  }
  Rng rng(config.seed);

  std::vector<double> weights;
  weights.reserve(config.players.size());
  for (const PlayerShare& share : config.players) weights.push_back(share.weight);

  std::vector<ClientPlan> plans;
  plans.reserve(static_cast<std::size_t>(config.client_count));
  double arrival = 0.0;
  for (int id = 0; id < config.client_count; ++id) {
    ClientPlan plan;
    plan.id = id;
    switch (config.arrivals) {
      case ArrivalProcess::kSimultaneous:
        break;
      case ArrivalProcess::kDeterministic:
        arrival = static_cast<double>(id) * config.arrival_interval_s;
        break;
      case ArrivalProcess::kPoisson:
        if (id > 0) arrival += rng.exponential(config.arrival_rate_per_s);
        break;
    }
    plan.arrival_s = arrival;
    plan.player_index =
        config.players.size() > 1 ? rng.weighted_index(weights) : 0;
    plan.player_label = config.players[plan.player_index].label;
    if (config.churn.leave_probability > 0.0 &&
        rng.bernoulli(config.churn.leave_probability)) {
      const double watch =
          rng.uniform(config.churn.min_watch_s, config.churn.max_watch_s);
      plan.leave_at_s = plan.arrival_s + watch;
    }
    plans.push_back(std::move(plan));
  }
  // Arrivals are generated non-decreasing by construction for every process,
  // so the id order already is arrival order.
  return plans;
}

}  // namespace demuxabr::fleet
