// Golden VL-identity suite: the greedy virtual-lane layering (VlLayering
// over IncrementalDag) must keep producing the same lanes.
//
// The layering is order-dependent -- a path goes to the lowest lane whose
// channel dependency graph stays acyclic, in (dlid, source) order -- so
// any change to the DAG internals that altered an accept/reject decision
// would move paths between lanes.  Each case pins one FNV-1a digest over
// num_vls_used and, for every (switch, LID) entry, the LFT out-channel and
// the VL.  Covered: DFSSSP on both paper planes (18-ary 3-tree and 12x8
// HyperX), intact and with the paper's missing cables (seed 1003);
// default PARX on the paper HyperX, intact and faulted; and the three
// ablation_parx option sets on the faulted HyperX with its 28-node dense
// demand.  Routing tables are bit-identical at any thread count, so the
// engines run on their default thread pools.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "core/demand.hpp"
#include "core/parx.hpp"
#include "core/quadrant.hpp"
#include "routing/dfsssp.hpp"
#include "routing/engine.hpp"
#include "routing/lid_space.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::routing {
namespace {

constexpr std::uint64_t kFaultSeed = 1003;

/// FNV-1a over num_vls_used, then (LFT entry, VL) of every (switch, LID).
std::string route_digest(const RouteResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  add(static_cast<std::uint64_t>(r.num_vls_used));
  for (topo::SwitchId sw = 0; sw < r.tables.num_switches(); ++sw) {
    for (Lid lid = 0; lid <= r.tables.max_lid(); ++lid) {
      add(static_cast<std::uint64_t>(r.tables.next(sw, lid)));
      add(static_cast<std::uint64_t>(r.vls.vl(sw, lid)));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

RouteResult dfsssp_on(topo::Topology& topo, std::int32_t missing) {
  if (missing > 0) topo::inject_link_faults(topo, missing, kFaultSeed);
  const LidSpace lids = LidSpace::consecutive(topo.num_terminals(), 0);
  DfssspEngine engine(8);
  return engine.compute(topo, lids);
}

RouteResult parx_on(topo::HyperX& hx, bool faulted,
                    const core::DemandMatrix& demands,
                    core::ParxOptions options = {}) {
  if (faulted)
    topo::inject_link_faults(hx.topo(), topo::kPaperHyperXMissingLinks,
                             kFaultSeed);
  const LidSpace lids = core::make_parx_lid_space(hx);
  core::ParxEngine engine(hx, demands, options);
  return engine.compute(hx.topo(), lids);
}

/// ablation_parx's synthetic all-pairs demand over the first 28 nodes.
core::DemandMatrix dense_demand(std::int32_t num_nodes) {
  constexpr std::int32_t kDense = 28;
  core::DemandMatrix demands(num_nodes);
  for (topo::NodeId s = 0; s < kDense; ++s)
    for (topo::NodeId d = 0; d < kDense; ++d)
      if (s != d) demands.set(s, d, 255);
  return demands;
}

TEST(VlGolden, DfssspFatTreeIntact) {
  topo::FatTree ft(topo::paper_fat_tree_params());
  EXPECT_EQ(route_digest(dfsssp_on(ft.topo(), 0)), "416b6316053acb20");
}

TEST(VlGolden, DfssspFatTreeFaulted) {
  topo::FatTree ft(topo::paper_fat_tree_params());
  EXPECT_EQ(
      route_digest(dfsssp_on(ft.topo(), topo::kPaperFatTreeMissingLinks)),
      "66c38a775bcaf0eb");
}

TEST(VlGolden, DfssspHyperXIntact) {
  topo::HyperX hx(topo::paper_hyperx_params());
  EXPECT_EQ(route_digest(dfsssp_on(hx.topo(), 0)), "920616e0fa84695e");
}

TEST(VlGolden, DfssspHyperXFaulted) {
  topo::HyperX hx(topo::paper_hyperx_params());
  EXPECT_EQ(
      route_digest(dfsssp_on(hx.topo(), topo::kPaperHyperXMissingLinks)),
      "622b3ba212129773");
}

TEST(VlGolden, ParxIntact) {
  topo::HyperX hx(topo::paper_hyperx_params());
  EXPECT_EQ(route_digest(parx_on(hx, false, core::DemandMatrix{})),
            "5e3613699af8800a");
}

TEST(VlGolden, ParxFaulted) {
  topo::HyperX hx(topo::paper_hyperx_params());
  EXPECT_EQ(route_digest(parx_on(hx, true, core::DemandMatrix{})),
            "d89e560d4c973a6d");
}

TEST(VlGolden, AblationParxFull) {
  topo::HyperX hx(topo::paper_hyperx_params());
  const core::DemandMatrix demands = dense_demand(hx.topo().num_terminals());
  EXPECT_EQ(route_digest(parx_on(hx, true, demands)), "8ea79a3a425a2098");
}

// Same digest as ParxFaulted: an empty and an all-zero demand matrix both
// route every destination with the +1 fallback.
TEST(VlGolden, AblationParxNoDemandWeights) {
  topo::HyperX hx(topo::paper_hyperx_params());
  core::ParxOptions options;
  options.use_demand_weights = false;
  EXPECT_EQ(route_digest(parx_on(
                hx, true, core::DemandMatrix(hx.topo().num_terminals()),
                options)),
            "d89e560d4c973a6d");
}

TEST(VlGolden, AblationParxNoLinkPruning) {
  topo::HyperX hx(topo::paper_hyperx_params());
  core::ParxOptions options;
  options.use_link_pruning = false;
  const core::DemandMatrix demands = dense_demand(hx.topo().num_terminals());
  EXPECT_EQ(route_digest(parx_on(hx, true, demands, options)),
            "f28096ceb759f35f");
}

}  // namespace
}  // namespace hxsim::routing
