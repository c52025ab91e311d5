// Flow-set builders for the flow-solver experiment
// (experiments/exp_flowsim_speedup.cpp): both paper fabrics routed by
// their paper engines, with the three traffic shapes the campaign layer
// solves -- uniform random permutations, mpiGraph shifts and eBB
// bisections -- plus a merged multi-permutation overlay, the congested
// many-filling-level regime the indexed filler targets.
#pragma once

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/flowsim.hpp"
#include "stats/rng.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

struct FlowFabric {
  std::string name;
  std::unique_ptr<topo::HyperX> hx;
  std::unique_ptr<topo::FatTree> ft;
  const topo::Topology* topo = nullptr;
  routing::LidSpace lids = routing::LidSpace::consecutive(1, 0);
  routing::RouteResult route;
};

inline FlowFabric flow_hyperx_fabric(bool quick) {
  FlowFabric f;
  f.name = "hyperx+dfsssp";
  f.hx = std::make_unique<topo::HyperX>(quick ? topo::small_hyperx_params()
                                              : topo::paper_hyperx_params());
  f.topo = &f.hx->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::DfssspEngine(8).compute(*f.topo, f.lids);
  return f;
}

inline FlowFabric flow_fat_tree_fabric(bool quick) {
  FlowFabric f;
  f.name = "ftree";
  f.ft = std::make_unique<topo::FatTree>(quick ? topo::small_fat_tree_params()
                                               : topo::paper_fat_tree_params());
  f.topo = &f.ft->topo();
  f.lids = routing::LidSpace::consecutive(f.topo->num_terminals(), 0);
  f.route = routing::FtreeEngine(*f.ft).compute(*f.topo, f.lids);
  return f;
}

inline sim::Flow routed_flow(const FlowFabric& f, topo::NodeId src,
                             topo::NodeId dst) {
  auto path = f.route.tables.path(*f.topo, f.lids, src, f.lids.base_lid(dst));
  return sim::Flow{std::move(path.channels), 1 << 20};
}

/// One uniform-random permutation (fixed points dropped).
inline std::vector<sim::Flow> uniform_flow_set(const FlowFabric& f,
                                               stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  const std::vector<std::int32_t> perm = rng.permutation(n);
  std::vector<sim::Flow> flows;
  for (topo::NodeId src = 0; src < n; ++src) {
    const auto dst =
        static_cast<topo::NodeId>(perm[static_cast<std::size_t>(src)]);
    if (dst != src) flows.push_back(routed_flow(f, src, dst));
  }
  return flows;
}

/// mpiGraph shift r: every node i streams to (i + r) mod N.
inline std::vector<sim::Flow> shift_flow_set(const FlowFabric& f,
                                             std::int32_t r) {
  const auto n = f.topo->num_terminals();
  std::vector<sim::Flow> flows;
  for (topo::NodeId src = 0; src < n; ++src)
    flows.push_back(routed_flow(f, src, static_cast<topo::NodeId>(
                                            (src + r) % n)));
  return flows;
}

/// eBB bisection: random halves paired across the cut, both directions.
inline std::vector<sim::Flow> ebb_flow_set(const FlowFabric& f,
                                           stats::Rng& rng) {
  const auto n = f.topo->num_terminals();
  std::vector<std::int32_t> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), 0);
  rng.shuffle(nodes);
  std::vector<sim::Flow> flows;
  for (std::int32_t i = 0; i < n / 2; ++i) {
    const auto a =
        static_cast<topo::NodeId>(nodes[static_cast<std::size_t>(i)]);
    const auto b =
        static_cast<topo::NodeId>(nodes[static_cast<std::size_t>(i + n / 2)]);
    flows.push_back(routed_flow(f, a, b));
    flows.push_back(routed_flow(f, b, a));
  }
  return flows;
}

/// `overlays` permutations overlaid into ONE flow set: heterogeneous
/// channel sharing drives the filling through many distinct levels, the
/// regime where the rescan filler's per-level full rescan is most
/// expensive.
inline std::vector<sim::Flow> merged_permutations_set(const FlowFabric& f,
                                                      stats::Rng& rng,
                                                      std::int32_t overlays) {
  std::vector<sim::Flow> flows;
  for (std::int32_t o = 0; o < overlays; ++o) {
    std::vector<sim::Flow> one = uniform_flow_set(f, rng);
    for (auto& flow : one) flows.push_back(std::move(flow));
  }
  return flows;
}

}  // namespace hxsim::bench
