// Golden bit-identity contract of the FlowSim max-min fillers.
//
// solve_indexed must reproduce solve_rescan *bit for bit* -- rates and
// every FlowSolveRecord field -- and so must the selecting solve behind
// fair_rates / solve_active / solve_batch, which runs the rescan under
// FlowSim::kRescanLevelBudget and restarts on the indexed filler past it.
// Covered: both paper fabrics (small HyperX under DFSSSP, small fat-tree
// under ftree), three traffic shapes (uniform random permutations,
// mpiGraph-style shifts, eBB-style bisections), 1 and 4 solver threads,
// the warm solve_active fault-stage path, and sets below, just over and
// far over the level budget, traced and untraced.  The saturation-epsilon
// regression scenarios from sim_test.cpp are re-run here on all three
// solves: the 1e-12 saturation slack, the max(0, .) fully-frozen-load
// clamp and the denormal-level rounds must take the *same* branch in both
// fillers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <vector>

#include "obs/flow_trace.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::sim {
namespace {

using topo::ChannelId;
using topo::NodeId;
using topo::SwitchId;
using topo::Topology;

// --- bitwise comparison helpers -----------------------------------------------

::testing::AssertionResult bits_equal(std::span<const double> reference,
                                      std::span<const double> other) {
  if (reference.size() != other.size())
    return ::testing::AssertionFailure()
           << "size " << reference.size() << " vs " << other.size();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    if (std::memcmp(&reference[i], &other[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element " << i << " diverges: reference "
             << ::testing::PrintToString(reference[i]) << " vs "
             << ::testing::PrintToString(other[i]);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult records_equal(const obs::FlowSolveRecord& reference,
                                         const obs::FlowSolveRecord& other) {
  if (reference.active_flows != other.active_flows)
    return ::testing::AssertionFailure()
           << "active_flows " << reference.active_flows << " vs "
           << other.active_flows;
  if (auto levels = bits_equal(reference.levels, other.levels); !levels)
    return ::testing::AssertionFailure() << "levels: " << levels.message();
  if (reference.freezes_per_level != other.freezes_per_level)
    return ::testing::AssertionFailure() << "freezes_per_level differ";
  if (reference.saturated != other.saturated)
    return ::testing::AssertionFailure() << "saturated set/order differs";
  for (std::size_t i = 1; i < other.levels.size(); ++i) {
    if (other.levels[i] < other.levels[i - 1])
      return ::testing::AssertionFailure()
             << "levels not monotone at step " << i;
  }
  return ::testing::AssertionSuccess();
}

// --- paper fabrics ------------------------------------------------------------

struct GoldenFabric {
  std::string name;
  std::unique_ptr<topo::HyperX> hx;
  std::unique_ptr<topo::FatTree> ft;
  const Topology* topo = nullptr;
  routing::LidSpace lids = routing::LidSpace::consecutive(1, 0);
  routing::RouteResult route;
};

GoldenFabric hyperx_fabric() {
  GoldenFabric f;
  f.name = "hyperx+dfsssp";
  f.hx = std::make_unique<topo::HyperX>(topo::small_hyperx_params());
  f.topo = &f.hx->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::DfssspEngine().compute(*f.topo, f.lids);
  return f;
}

GoldenFabric fat_tree_fabric() {
  GoldenFabric f;
  f.name = "fat-tree+ftree";
  f.ft = std::make_unique<topo::FatTree>(topo::small_fat_tree_params());
  f.topo = &f.ft->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::FtreeEngine(*f.ft).compute(*f.topo, f.lids);
  return f;
}

std::vector<GoldenFabric> paper_fabrics() {
  std::vector<GoldenFabric> fabrics;
  fabrics.push_back(hyperx_fabric());
  fabrics.push_back(fat_tree_fabric());
  return fabrics;
}

// --- traffic shapes -----------------------------------------------------------

Flow routed_flow(const GoldenFabric& f, NodeId src, NodeId dst) {
  auto path = f.route.tables.path(*f.topo, f.lids, src, f.lids.base_lid(dst));
  EXPECT_TRUE(path.ok) << f.name << ": " << src << " -> " << dst;
  return Flow{std::move(path.channels), 1 << 20};
}

/// One uniform-random permutation (fixed points become self-sends, which
/// exercises the +inf branch of both fillers).
std::vector<Flow> uniform_set(const GoldenFabric& f, stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  const std::vector<std::int32_t> perm = rng.permutation(n);
  std::vector<Flow> flows;
  for (NodeId src = 0; src < n; ++src) {
    const auto dst = static_cast<NodeId>(perm[static_cast<std::size_t>(src)]);
    if (dst == src)
      flows.push_back(Flow{{}, 1 << 20});  // self-send
    else
      flows.push_back(routed_flow(f, src, dst));
  }
  return flows;
}

/// mpiGraph shift r: every node i streams to (i + r) mod N.
std::vector<Flow> shift_set(const GoldenFabric& f, std::int32_t r) {
  const auto n = f.topo->num_terminals();
  std::vector<Flow> flows;
  for (NodeId src = 0; src < n; ++src)
    flows.push_back(routed_flow(f, src, static_cast<NodeId>((src + r) % n)));
  return flows;
}

/// eBB bisection: random halves paired across the cut, both directions.
std::vector<Flow> ebb_set(const GoldenFabric& f, stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  std::vector<std::int32_t> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  rng.shuffle(nodes);
  std::vector<Flow> flows;
  for (std::int32_t i = 0; i < n / 2; ++i) {
    const auto a = static_cast<NodeId>(nodes[static_cast<std::size_t>(i)]);
    const auto b =
        static_cast<NodeId>(nodes[static_cast<std::size_t>(i + n / 2)]);
    flows.push_back(routed_flow(f, a, b));
    flows.push_back(routed_flow(f, b, a));
  }
  return flows;
}

/// The full traffic matrix for one fabric: a few samples per shape.
std::vector<std::vector<Flow>> traffic_sets(const GoldenFabric& f) {
  stats::Rng rng(0x90fdu);
  std::vector<std::vector<Flow>> sets;
  for (int sample = 0; sample < 3; ++sample) sets.push_back(uniform_set(f, rng));
  for (const std::int32_t r : {1, 3, f.topo->num_terminals() / 2})
    sets.push_back(shift_set(f, r));
  for (int sample = 0; sample < 3; ++sample) sets.push_back(ebb_set(f, rng));
  return sets;
}

// --- the three solves ---------------------------------------------------------

/// Rates and record of one solve.
struct Solved {
  std::vector<double> rates;
  obs::FlowSolveRecord record;
};

/// Solves `flows` (all active) with solve_rescan, solve_indexed and the
/// selecting solve_active, traced, and asserts the three agree bit for
/// bit.  Returns the selecting solve's output.
Solved solve_three_ways(const FlowSim& sim, const std::vector<Flow>& flows,
                        const std::string& what) {
  const std::vector<char> active(flows.size(), 1);
  FlowSim::SolveScratch scratch;
  Solved rescan{std::vector<double>(flows.size(), -1.0), {}};
  Solved indexed{std::vector<double>(flows.size(), -1.0), {}};
  Solved selecting{std::vector<double>(flows.size(), -1.0), {}};
  sim.solve_rescan(flows, active, rescan.rates, scratch, &rescan.record);
  sim.solve_indexed(flows, active, indexed.rates, scratch, &indexed.record);
  sim.solve_active(flows, active, selecting.rates, scratch,
                   &selecting.record);
  EXPECT_TRUE(bits_equal(rescan.rates, indexed.rates)) << what;
  EXPECT_TRUE(records_equal(rescan.record, indexed.record)) << what;
  EXPECT_TRUE(bits_equal(rescan.rates, selecting.rates)) << what;
  EXPECT_TRUE(records_equal(rescan.record, selecting.record)) << what;
  return selecting;
}

// --- the golden contract ------------------------------------------------------

TEST(FlowSimGolden, EnginesBitIdenticalAcrossFabricsTrafficAndThreads) {
  for (const GoldenFabric& f : paper_fabrics()) {
    const FlowSim sim(*f.topo);
    const std::vector<std::vector<Flow>> sets = traffic_sets(f);

    // Per-set: the three solves on one scratch, then the serial traced
    // fair_rates entry point against them.
    std::vector<std::vector<double>> rates;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::string what = f.name + " set " + std::to_string(i);
      const Solved solved = solve_three_ways(sim, sets[i], what);
      obs::FlowSolveTrace trace;
      EXPECT_TRUE(bits_equal(solved.rates, sim.fair_rates(sets[i], &trace)))
          << what;
      ASSERT_EQ(trace.solves.size(), 1u);
      EXPECT_TRUE(records_equal(solved.record, trace.solves[0])) << what;
      rates.push_back(solved.rates);
    }

    // Batched path at 1 and 4 threads: bitwise equal to the per-set solves.
    for (const std::int32_t threads : {1, 4}) {
      const auto batch = sim.solve_batch(sets, threads);
      ASSERT_EQ(batch.size(), sets.size());
      for (std::size_t i = 0; i < sets.size(); ++i)
        EXPECT_TRUE(bits_equal(rates[i], batch[i]))
            << f.name << " set " << i << " threads " << threads;
    }
  }
}

TEST(FlowSimGolden, SolveActiveWarmStartStagesBitIdentical) {
  for (const GoldenFabric& f : paper_fabrics()) {
    const FlowSim sim(*f.topo);

    stats::Rng rng(7);
    const std::vector<Flow> flows = uniform_set(f, rng);
    const auto n = flows.size();
    std::vector<char> active(n, 1);
    std::vector<double> rescan_rates(n, -1.0);
    std::vector<double> indexed_rates(n, -1.0);
    std::vector<double> rates(n, -1.0);
    // Caller-owned, warm across stages.
    FlowSim::SolveScratch rescan_scratch;
    FlowSim::SolveScratch indexed_scratch;
    FlowSim::SolveScratch scratch;

    // Stage 0: everything active; later stages deactivate survivors the
    // way a fault campaign would, re-solving in place on warm scratch.
    for (int stage = 0; stage < 4; ++stage) {
      if (stage > 0) {
        for (std::size_t i = stage - 1; i < n; i += 3) active[i] = 0;
      }
      obs::FlowSolveRecord rescan_record;
      obs::FlowSolveRecord indexed_record;
      obs::FlowSolveRecord record;
      sim.solve_rescan(flows, active, rescan_rates, rescan_scratch,
                       &rescan_record);
      sim.solve_indexed(flows, active, indexed_rates, indexed_scratch,
                        &indexed_record);
      sim.solve_active(flows, active, rates, scratch, &record);
      EXPECT_TRUE(bits_equal(rescan_rates, indexed_rates))
          << f.name << " stage " << stage;
      EXPECT_TRUE(records_equal(rescan_record, indexed_record))
          << f.name << " stage " << stage;
      EXPECT_TRUE(bits_equal(rescan_rates, rates))
          << f.name << " stage " << stage;
      EXPECT_TRUE(records_equal(rescan_record, record))
          << f.name << " stage " << stage;
    }
  }
}

// --- the level budget ---------------------------------------------------------

/// `levels` flows from switch a to switch b, each bottlenecked on its own
/// terminal uplink at a distinct capacity, so the filling runs exactly
/// `levels` levels with one freeze each.  All flows share the cable, sized
/// to the sum of the uplinks so it saturates only at the top level.
struct Staircase {
  Topology topo{"staircase"};
  ChannelId ab = topo::kInvalidChannel;
  std::vector<Flow> flows;

  explicit Staircase(std::int32_t levels) {
    const SwitchId a = topo.add_switch();
    const SwitchId b = topo.add_switch();
    ab = topo.connect(a, b).first;
    for (std::int32_t i = 0; i < levels; ++i) topo.add_terminal(a);
    for (std::int32_t i = 0; i < levels; ++i) topo.add_terminal(b);
    for (NodeId i = 0; i < levels; ++i)
      flows.push_back(Flow{{topo.terminal_up(i), ab,
                            topo.terminal_down(levels + i)},
                           1 << 20});
  }

  FlowSim sim() const {
    FlowSim s(topo);
    const auto n = static_cast<std::int32_t>(flows.size());
    for (NodeId i = 0; i < n; ++i)
      s.set_capacity(topo.terminal_up(i), 1e3 * (1.0 + i));
    s.set_capacity(ab, 1e3 * n * (n + 1) / 2.0);
    return s;
  }
};

TEST(FlowSimGolden, SelectionMatchesBothFillersAroundTheLevelBudget) {
  const std::int32_t budget = FlowSim::kRescanLevelBudget;
  for (const std::int32_t levels :
       {budget / 2, budget, budget + 1, budget + 2, 4 * budget}) {
    const Staircase stairs(levels);
    const FlowSim sim = stairs.sim();
    const std::string what = std::to_string(levels) + " levels";
    const Solved solved = solve_three_ways(sim, stairs.flows, what);
    // The traced selecting solve holds exactly this solve's levels: none
    // left over from a rescan abandoned at the budget.
    EXPECT_EQ(solved.record.num_levels(), levels) << what;
    EXPECT_EQ(static_cast<std::int32_t>(
                  solved.record.freezes_per_level.size()),
              levels)
        << what;

    // Untraced, and on a record that already holds an earlier solve: the
    // rollback keeps the earlier entries and drops only the abandoned ones.
    const std::vector<char> active(stairs.flows.size(), 1);
    FlowSim::SolveScratch scratch;
    std::vector<double> untraced(stairs.flows.size(), -1.0);
    sim.solve_active(stairs.flows, active, untraced, scratch);
    EXPECT_TRUE(bits_equal(solved.rates, untraced)) << what;

    obs::FlowSolveRecord appended = solved.record;
    std::vector<double> again(stairs.flows.size(), -1.0);
    sim.solve_active(stairs.flows, active, again, scratch, &appended);
    EXPECT_TRUE(bits_equal(solved.rates, again)) << what;
    ASSERT_EQ(appended.num_levels(), 2 * levels) << what;
    obs::FlowSolveRecord second;
    second.active_flows = appended.active_flows;
    second.levels.assign(appended.levels.begin() + levels,
                         appended.levels.end());
    second.freezes_per_level.assign(
        appended.freezes_per_level.begin() + levels,
        appended.freezes_per_level.end());
    second.saturated.assign(
        appended.saturated.begin() +
            static_cast<std::ptrdiff_t>(solved.record.saturated.size()),
        appended.saturated.end());
    EXPECT_TRUE(records_equal(solved.record, second)) << what;
  }
}

TEST(FlowSimGolden, SelectionMatchesBothFillersOnDegradedPaperFabrics) {
  // Overlaid permutations on the paper fabrics with every channel at its
  // own capacity between 0.1x and 1.0x line rate (as on a fabric of
  // mixed-speed or degraded links): routed multi-hop sharing with many
  // distinct bottlenecks, so the sets land on both sides of the budget.
  // The three solves must agree on every one.
  std::int32_t max_levels = 0;
  for (const GoldenFabric& f : paper_fabrics()) {
    FlowSim sim(*f.topo);
    for (ChannelId ch = 0; ch < f.topo->num_channels(); ++ch)
      sim.set_capacity(ch, LinkModel{}.bandwidth *
                               (0.1 + std::fmod(0.618034 * ch, 0.9)));
    stats::Rng rng(0x3e7);
    for (const int overlays : {1, 8, 64}) {
      std::vector<Flow> flows;
      for (int o = 0; o < overlays; ++o) {
        std::vector<Flow> one = uniform_set(f, rng);
        for (Flow& flow : one) flows.push_back(std::move(flow));
      }
      const Solved solved = solve_three_ways(
          sim, flows, f.name + " x" + std::to_string(overlays));
      max_levels = std::max(max_levels, solved.record.num_levels());
    }
  }
  EXPECT_GT(max_levels, FlowSim::kRescanLevelBudget);
}

// --- saturation-epsilon regressions on all three solves ----------------------

/// Two switches, one cable, `terminals` nodes per switch (as in
/// sim_test.cpp; the epsilon regressions live on this shape).
struct Dumbbell {
  Topology topo{"dumbbell"};
  ChannelId ab = topo::kInvalidChannel;
  ChannelId ba = topo::kInvalidChannel;

  explicit Dumbbell(std::int32_t terminals = 4) {
    const SwitchId a = topo.add_switch();
    const SwitchId b = topo.add_switch();
    std::tie(ab, ba) = topo.connect(a, b);
    for (std::int32_t i = 0; i < terminals; ++i) topo.add_terminal(a);
    for (std::int32_t i = 0; i < terminals; ++i) topo.add_terminal(b);
  }

  Flow flow(NodeId src, NodeId dst, std::int64_t bytes) const {
    return Flow{{topo.terminal_up(src), ab, topo.terminal_down(dst)}, bytes};
  }
};

/// Solves `flows` three ways and asserts bitwise parity; returns the rates
/// for scenario-specific assertions.
std::vector<double> solve_all(const Dumbbell& d, double bandwidth,
                               double cable_capacity,
                               const std::vector<Flow>& flows) {
  LinkModel link;
  link.bandwidth = bandwidth;
  FlowSim sim(d.topo, link);
  sim.set_capacity(d.ab, cable_capacity);
  return solve_three_ways(sim, flows, "dumbbell").rates;
}

TEST(FlowSimGolden, SaturationEpsilonDenormalCapacityMatches) {
  const Dumbbell d(2);
  std::vector<Flow> flows;
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(1)}, 1});
  flows.push_back(
      Flow{{d.topo.terminal_up(0), d.ab, d.topo.terminal_down(2)}, 1});
  const auto rates = solve_all(d, 1.0, 1e-300, flows);
  EXPECT_DOUBLE_EQ(rates[1], 1e-300);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
}

TEST(FlowSimGolden, SaturationEpsilonFullyFrozenLoadedChannelMatches) {
  const Dumbbell d(2);
  std::vector<Flow> flows;
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(1)}, 1});
  flows.push_back(
      Flow{{d.topo.terminal_up(0), d.ab, d.topo.terminal_down(2)}, 1});
  flows.push_back(
      Flow{{d.topo.terminal_up(1), d.ab, d.topo.terminal_down(3)}, 1});
  const auto rates = solve_all(d, 1.0, 1.5, flows);
  EXPECT_DOUBLE_EQ(rates[0], 0.5);
  EXPECT_DOUBLE_EQ(rates[1], 0.5);
  EXPECT_DOUBLE_EQ(rates[2], 1.0);
}

TEST(FlowSimGolden, SaturationEpsilonNonRepresentableSharesMatch) {
  const Dumbbell d(4);
  std::vector<Flow> flows;
  for (NodeId i = 0; i < 4; ++i) flows.push_back(d.flow(i, 4 + i, 1));
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(1)}, 1});
  flows.push_back(Flow{{d.topo.terminal_up(0), d.topo.terminal_down(2)}, 1});
  const auto rates = solve_all(d, 0.3, 0.1, flows);
  for (NodeId i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(rates[i], 0.1 / 4.0);
}

}  // namespace
}  // namespace hxsim::sim
