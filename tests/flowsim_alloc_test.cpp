// Steady-state allocation audit of the max-min flow solver.
//
// The contract: after a first (cold) solve sizes the SolveScratch --
// rescan worklist, CSR incidence arrays, version/dirty marks, the
// quotient heap -- a warm solve performs ZERO heap allocations, traced or
// untraced alike (the record's vectors are caller-reused).  That holds for
// both named fillers and for solve_active on either side of
// FlowSim::kRescanLevelBudget, including the restart that abandons the
// rescan at the budget.  Asserted with a counting global operator new;
// also pinned: the warm count stays zero when the flow set quadruples,
// i.e. nothing allocates per flow, per channel or per filling level once
// warm.
//
// This test lives in its own binary because the operator new/delete
// replacement is global to the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "obs/flow_trace.hpp"
#include "sim/flowsim.hpp"
#include "topo/topology.hpp"

namespace {
std::atomic<long long> g_allocs{0};
}

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hxsim::sim {
namespace {

using topo::ChannelId;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

/// Allocations performed by `fn` (callable returning void).
template <typename Fn>
long long allocs_during(Fn&& fn) {
  const long long before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

/// A chain of `switches` switches with `terminals` nodes each; flows
/// shift across the chain so cables are shared unevenly and the solve
/// takes many filling rounds (every round's bookkeeping must be
/// allocation-free, not just the first).
struct Chain {
  Topology topo{"chain"};
  std::vector<ChannelId> right;  // cable i: switch i -> i+1

  Chain(std::int32_t switches, std::int32_t terminals) {
    std::vector<SwitchId> sw;
    for (std::int32_t i = 0; i < switches; ++i) sw.push_back(topo.add_switch());
    for (std::int32_t i = 0; i + 1 < switches; ++i)
      right.push_back(topo.connect(sw[static_cast<std::size_t>(i)],
                                   sw[static_cast<std::size_t>(i + 1)])
                          .first);
    for (std::int32_t i = 0; i < switches; ++i)
      for (std::int32_t t = 0; t < terminals; ++t)
        topo.add_terminal(sw[static_cast<std::size_t>(i)]);
  }

  /// All flows from every terminal of switch s to its peer `hops`
  /// switches to the right.
  void add_shift(std::vector<Flow>& flows, std::int32_t hops) const {
    const auto n = topo.num_terminals();
    for (NodeId src = 0; src < n; ++src) {
      const auto switches =
          static_cast<std::int32_t>(right.size()) + 1;
      const std::int32_t terminals = n / switches;
      const std::int32_t s = src / terminals;
      if (s + hops >= switches) continue;
      Flow f;
      f.channels.push_back(topo.terminal_up(src));
      for (std::int32_t h = 0; h < hops; ++h)
        f.channels.push_back(right[static_cast<std::size_t>(s + h)]);
      f.channels.push_back(
          topo.terminal_down(static_cast<NodeId>(src + hops * terminals)));
      f.bytes = 1 << 20;
      flows.push_back(std::move(f));
    }
  }
};

TEST(FlowSimAllocations, WarmIndexedSolveActiveIsAllocationFree) {
  const Chain chain(9, 4);
  const FlowSim sim(chain.topo);

  std::vector<Flow> small_flows;
  chain.add_shift(small_flows, 1);
  std::vector<Flow> large_flows = small_flows;
  for (const std::int32_t hops : {2, 3, 4}) chain.add_shift(large_flows, hops);
  ASSERT_GE(large_flows.size(), 3 * small_flows.size());

  const std::vector<char> small_active(small_flows.size(), 1);
  const std::vector<char> large_active(large_flows.size(), 1);
  std::vector<double> small_rates(small_flows.size());
  std::vector<double> large_rates(large_flows.size());
  FlowSim::SolveScratch scratch;
  obs::FlowSolveRecord record;
  // The solver appends to the record (one record per solve); a reusing
  // caller clears between solves, which keeps the vectors' capacity.
  const auto reset = [&record] {
    record.levels.clear();
    record.freezes_per_level.clear();
    record.saturated.clear();
  };

  const auto solves = {&FlowSim::solve_indexed, &FlowSim::solve_rescan,
                       &FlowSim::solve_active};
  // Cold solves size the scratch (and the record): every solve at both
  // sizes, since per-level work lists grow with each set's own dynamics.
  for (const auto solve : solves) {
    for (const bool large : {true, false}) {
      reset();
      if (large)
        (sim.*solve)(large_flows, large_active, large_rates, scratch, &record);
      else
        (sim.*solve)(small_flows, small_active, small_rates, scratch, &record);
    }
  }

  // Warm solves: ZERO allocations, traced and untraced, at both sizes, on
  // both named fillers and the selecting solve.
  for (const auto solve : solves) {
    const long long warm_small = allocs_during([&] {
      reset();
      (sim.*solve)(small_flows, small_active, small_rates, scratch, &record);
    });
    const long long warm_large = allocs_during([&] {
      reset();
      (sim.*solve)(large_flows, large_active, large_rates, scratch, &record);
    });
    const long long warm_untraced = allocs_during([&] {
      (sim.*solve)(large_flows, large_active, large_rates, scratch, nullptr);
    });
    EXPECT_EQ(warm_small, 0);
    EXPECT_EQ(warm_large, 0);
    EXPECT_EQ(warm_untraced, 0);
  }

  // The solve did real work: multiple filling levels, channels saturated.
  EXPECT_GT(record.levels.size(), 1u);
  EXPECT_FALSE(record.saturated.empty());
  for (const double r : large_rates) EXPECT_GT(r, 0.0);
}

TEST(FlowSimAllocations, DeactivationStagesStayAllocationFreeWhenWarm) {
  const Chain chain(6, 4);
  const FlowSim sim(chain.topo);

  std::vector<Flow> flows;
  for (const std::int32_t hops : {1, 2, 3}) chain.add_shift(flows, hops);
  std::vector<char> active(flows.size(), 1);
  std::vector<double> rates(flows.size());
  FlowSim::SolveScratch scratch;

  sim.solve_active(flows, active, rates, scratch);  // cold
  for (int stage = 0; stage < 4; ++stage) {
    for (std::size_t i = stage; i < flows.size(); i += 5) active[i] = 0;
    const long long warm = allocs_during(
        [&] { sim.solve_active(flows, active, rates, scratch); });
    EXPECT_EQ(warm, 0) << "stage " << stage;
  }
}

/// Two switches, `levels` terminals each; flow i runs from terminal i on
/// one switch to terminal i on the other and is capped by its own uplink
/// at a distinct capacity, so the solve runs exactly `levels` levels.
struct Staircase {
  Topology topo{"staircase"};
  std::vector<Flow> flows;

  explicit Staircase(std::int32_t levels) {
    const SwitchId a = topo.add_switch();
    const SwitchId b = topo.add_switch();
    const ChannelId ab = topo.connect(a, b).first;
    for (std::int32_t i = 0; i < 2 * levels; ++i)
      topo.add_terminal(i < levels ? a : b);
    for (NodeId i = 0; i < levels; ++i)
      flows.push_back(Flow{{topo.terminal_up(i), ab,
                            topo.terminal_down(levels + i)},
                           1 << 20});
  }

  void cap_uplinks(FlowSim& sim) const {
    for (NodeId i = 0; i < static_cast<NodeId>(flows.size()); ++i)
      sim.set_capacity(topo.terminal_up(i), 1e3 * (1.0 + i));
  }
};

TEST(FlowSimAllocations, WarmSolveActiveIsAllocationFreeAcrossTheLevelBudget) {
  const std::int32_t budget = FlowSim::kRescanLevelBudget;
  const Staircase under(budget);
  const Staircase over(3 * budget);  // restarts on the indexed filler
  FlowSim under_sim(under.topo);
  FlowSim over_sim(over.topo);
  under.cap_uplinks(under_sim);
  over.cap_uplinks(over_sim);

  const std::vector<char> under_active(under.flows.size(), 1);
  const std::vector<char> over_active(over.flows.size(), 1);
  std::vector<double> under_rates(under.flows.size());
  std::vector<double> over_rates(over.flows.size());
  FlowSim::SolveScratch scratch;  // shared: the restart reuses it too
  obs::FlowSolveRecord record;
  const auto reset = [&record] {
    record.levels.clear();
    record.freezes_per_level.clear();
    record.saturated.clear();
  };

  // Cold: the over-budget solve sizes both fillers' state and the record.
  over_sim.solve_active(over.flows, over_active, over_rates, scratch, &record);
  ASSERT_EQ(record.num_levels(), 3 * budget);
  reset();
  under_sim.solve_active(under.flows, under_active, under_rates, scratch,
                         &record);
  ASSERT_EQ(record.num_levels(), budget);

  for (int round = 0; round < 3; ++round) {
    const long long warm_under = allocs_during([&] {
      reset();
      under_sim.solve_active(under.flows, under_active, under_rates, scratch,
                             &record);
    });
    const long long warm_over = allocs_during([&] {
      reset();
      over_sim.solve_active(over.flows, over_active, over_rates, scratch,
                            &record);
    });
    const long long warm_untraced = allocs_during([&] {
      over_sim.solve_active(over.flows, over_active, over_rates, scratch);
      under_sim.solve_active(under.flows, under_active, under_rates, scratch);
    });
    EXPECT_EQ(warm_under, 0) << "round " << round;
    EXPECT_EQ(warm_over, 0) << "round " << round;
    EXPECT_EQ(warm_untraced, 0) << "round " << round;
  }
  EXPECT_EQ(record.num_levels(), 3 * budget);
  for (const double r : over_rates) EXPECT_GT(r, 0.0);
}

}  // namespace
}  // namespace hxsim::sim
