// Drain-loop allocation audit (own binary: the operator new/delete override
// below is process-wide). The tentpole claim of the arena work is that the
// event-heap engine's steady-state drain performs ZERO heap allocations —
// everything it touches (completion registries, the event heap, drain
// scratch, pending-delivery queues) lives in the scheduler's per-shard
// MonotonicArena, and per-session state reaches its high-water mark during
// the start-up transient.
//
// Proof shape: run the same no-churn minimal-log fleet twice, identical
// except for the absolute sim-time cap. Both runs admit the same clients,
// reach the same steady state, and retire everyone at their cap; the longer
// run just executes ~2x the drain iterations. If (and only if) the
// steady-state drain loop allocates nothing, the two global allocation
// counts are EQUAL — any per-event malloc shows up as a count difference
// proportional to the extra events. A warmup run at the LONG cap first
// touches lazy global state (locale, gtest internals): the runs are
// deterministic, so the short run's event stream is a prefix of the warmup's
// and can surface no new global state.
//
// minimal_log (rather than streaming-metrics) mode on purpose: the
// streaming sketches bucket by VALUE, so a 240s watch can touch quantile
// buckets a 120s watch never does — legitimate retire-time work that would
// show up as a tiny count difference and mask what this audit is pinning,
// the per-event drain-loop behavior.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "experiments/scenarios.h"
#include "fleet/metrics.h"
#include "fleet/population.h"
#include "fleet/scheduler.h"
#include "players/exoplayer.h"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

}  // namespace

// Count every allocation path. Deallocation stays pass-through: the audit
// compares allocation counts, and operator delete must accept pointers from
// any of the forms below.
void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace demuxabr::fleet {
namespace {

namespace ex = demuxabr::experiments;

std::unique_ptr<PlayerAdapter> make_exo() {
  return std::make_unique<ExoPlayerModel>();
}

/// No-churn, flash-crowd, minimal-log fleet capped at `cap_s` of sim time:
/// after the start-up transient every drain iteration is steady-state work
/// (downloads completing, ticks firing, buffers draining).
FleetResult run_capped_fleet(const ex::ExperimentSetup& setup, double cap_s) {
  FleetConfig config;
  config.client_count = 20;
  config.seed = 11;
  config.players.push_back({"exoplayer", &make_exo, 1.0});
  config.arrivals = ArrivalProcess::kSimultaneous;
  config.session.max_sim_time_s = cap_s;
  // Aggregates only — the configuration fleets run at scale, where an
  // allocation-free drain matters. Retire-time work is then fixed-shape
  // (SessionTotals into a reserved ClientResult slot), so the only thing
  // that can differ between the two caps is the drain loop itself.
  config.session.minimal_log = true;
  config.session.record_series = false;
  return run_fleet(setup.content, setup.view,
                   BandwidthTrace::constant(3000.0), config);
}

std::uint64_t count_allocations(const ex::ExperimentSetup& setup, double cap_s,
                                double* end_time = nullptr) {
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  const FleetResult result = run_capped_fleet(setup, cap_s);
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  if (end_time != nullptr) *end_time = result.end_time_s;
  return after - before;
}

TEST(DrainAllocationAudit, SteadyStateDrainAllocatesNothing) {
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(3000.0), "alloc-audit");

  // Warmup at the long cap (see file comment).
  run_capped_fleet(setup, 240.0);

  double short_end = 0.0;
  double long_end = 0.0;
  const std::uint64_t short_allocs = count_allocations(setup, 120.0, &short_end);
  const std::uint64_t long_allocs = count_allocations(setup, 240.0, &long_end);

  // The caps must actually bite (nobody finished early) or the comparison
  // proves nothing.
  ASSERT_DOUBLE_EQ(short_end, 120.0);
  ASSERT_DOUBLE_EQ(long_end, 240.0);
  ASSERT_GT(short_allocs, 0u);  // setup/admission/finalize do allocate

  // Twice the drain work, identical allocation count: the drain loop itself
  // allocated nothing in either run.
  EXPECT_EQ(long_allocs, short_allocs)
      << "steady-state drain performed "
      << (long_allocs > short_allocs ? long_allocs - short_allocs : 0u)
      << " extra allocations over ~120s of additional sim time";
}

TEST(DrainAllocationAudit, CountsAreStableAcrossIdenticalRuns) {
  // Same cap twice: identical work must allocate identically (guards the
  // audit itself against nondeterministic allocation noise that would mask
  // or fake a drain-loop regression).
  const ex::ExperimentSetup setup =
      ex::plain_dash(BandwidthTrace::constant(3000.0), "alloc-repeat");
  run_capped_fleet(setup, 120.0);
  const std::uint64_t first = count_allocations(setup, 120.0);
  const std::uint64_t second = count_allocations(setup, 120.0);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace demuxabr::fleet
