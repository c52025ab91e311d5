// DFSSSP: deadlock-free SSSP routing (Domke, Hoefler, Nagel [17]).
//
// Runs the SSSP balancing pass, then distributes the resulting paths over
// virtual lanes such that each lane's channel dependency graph is acyclic.
// The paper uses DFSSSP as the default HyperX routing (3 VLs suffice on the
// 12x8) and as the base algorithm PARX modifies.
//
// Paper cross-reference: Sections 2.1 and 3.2; PARX (Section 3.2.3,
// Algorithm 1) reuses assign_vls() below after routing each quadrant's
// pruned fabric per rules R1-R4 (core/quadrant.hpp), which is why PARX
// tables always verify acyclic in routing/verify.hpp's fabric audit.
// DFSSSP's VL budget is the failure mode the resilience campaign probes:
// heavy degradation can push the layering past max_vls (a thrown
// std::runtime_error, recorded as an engine-failed sample).
#pragma once

#include <memory>

#include "routing/delta.hpp"
#include "routing/engine.hpp"
#include "routing/sssp.hpp"

namespace hxsim::routing {

class DfssspEngine final : public RoutingEngine, public DeltaCapable {
 public:
  /// max_vls: hardware virtual-lane budget (paper: 8 on QDR InfiniBand).
  /// threads == 0 uses exec::default_threads(); the SSSP batch size is
  /// forwarded so results stay bit-identical across thread counts.
  explicit DfssspEngine(std::int32_t max_vls = 8, std::int32_t threads = 0,
                        std::int32_t batch = SsspEngine::kDefaultBatch)
      : max_vls_(max_vls), threads_(threads), batch_(batch) {}

  [[nodiscard]] std::string name() const override { return "dfsssp"; }
  [[nodiscard]] RouteResult compute(const topo::Topology& topo,
                                    const LidSpace& lids) override;

  // DeltaCapable.  The per-destination phase delegates to a persistent
  // tracked SsspEngine (suffix recompute, see sssp.hpp); the VL placement
  // is inherently global but cheap (paper 12x8 HyperX, 4-core Xeon,
  // Release: ~0.01 s for DFSSSP's 672 LIDs, ~0.06-0.09 s for PARX's
  // 2,688 intact/faulted; cdg.hpp has the cost model), so it simply
  // re-runs over the patched tables whenever any LFT column changed -- and
  // is skipped entirely when the update left the tables untouched
  // (identical tables => identical layering).  Plain compute() uses a
  // throwaway base engine and never disturbs the tracked state.
  [[nodiscard]] RouteResult compute_tracked(const topo::Topology& topo,
                                            const LidSpace& lids) override;
  DeltaStats update_tracked(const topo::Topology& topo, const LidSpace& lids,
                            const DeltaUpdate& update,
                            RouteResult& io) override;
  void invalidate_tracking() noexcept override {
    if (delta_base_) delta_base_->invalidate_tracking();
  }

  /// Attaches a phase-timer sink (not owned; nullptr detaches): compute()
  /// accumulates the SSSP phases ("spf_trees", "table_merge") plus the VL
  /// phases ("vl_path_extraction", "vl_placement").  Observational only.
  void set_timings(obs::PhaseTimings* timings) noexcept {
    timings_ = timings;
  }

  /// Assigns virtual lanes for every (source switch, dlid) path of an
  /// existing table set; shared with the PARX engine.  Throws
  /// std::runtime_error if the paths cannot be layered within max_vls.
  /// Path extraction runs on `threads` workers; the greedy VL placement
  /// itself stays serial in (dlid, source) order, so the layering is
  /// identical to the historical single-threaded walk.  `timings`, when
  /// given, receives the two VL phase wall-times.
  static void assign_vls(const topo::Topology& topo, const LidSpace& lids,
                         const ForwardingTables& tables, std::int32_t max_vls,
                         RouteResult& result, std::int32_t threads = 0,
                         obs::PhaseTimings* timings = nullptr);

 private:
  std::int32_t max_vls_;
  std::int32_t threads_;
  std::int32_t batch_;
  obs::PhaseTimings* timings_ = nullptr;
  /// Holds the tracked SSSP tree state across fault stages.
  std::unique_ptr<SsspEngine> delta_base_;
};

}  // namespace hxsim::routing
