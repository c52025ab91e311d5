// OpenSM SSSP routing (Hoefler, Schneider, Lumsdaine [31 in the paper]).
//
// Globally balanced shortest-path routing: each destination gets a Dijkstra
// tree over the current edge weights, and every path routed through a
// channel increments that channel's weight, steering later destinations
// away from already-loaded channels.  SSSP alone is *not* deadlock-free on
// non-tree topologies; DfssspEngine layers its paths onto virtual lanes.
//
// Parallel execution: destinations are processed in fixed-size batches.
// All trees of a batch are computed concurrently against the weight
// snapshot taken at the batch boundary; tables and weight updates are then
// applied serially in LID order.  The batch size is a constant independent
// of the thread count, so the result is *bit-identical* for any number of
// threads (weights are merely stale by at most batch-1 destinations, which
// preserves the global balancing property the tests assert).  batch == 1
// reproduces OpenSM's strictly sequential weight evolution.
//
// Paper cross-reference: Section 2.1 (routing survey) and the DFSSSP base
// pass of [17].  SSSP is what PARX's Algorithm 1 runs *inside each pruned
// per-LID fabric*: rules R1-R4 (core/quadrant.hpp, Section 3.2.3) first
// delete the quadrant's forbidden links, then this weighted-Dijkstra
// balancing routes the survivors.  Run bare on the HyperX it produces the
// CDG cycles the resilience_campaign experiment flags as "CYCLE".
#pragma once

#include "obs/phase_clock.hpp"
#include "routing/delta.hpp"
#include "routing/engine.hpp"

namespace hxsim::routing {

class SsspEngine : public RoutingEngine, public DeltaCapable {
 public:
  /// Destinations per weight snapshot; chosen small enough that the
  /// balancing quality is indistinguishable from the sequential update on
  /// the paper fabrics, large enough to feed 8-16 threads.
  static constexpr std::int32_t kDefaultBatch = 8;

  /// threads == 0 uses exec::default_threads().
  explicit SsspEngine(std::int32_t threads = 0,
                      std::int32_t batch = kDefaultBatch)
      : threads_(threads), batch_(batch) {}

  [[nodiscard]] std::string name() const override { return "sssp"; }
  [[nodiscard]] RouteResult compute(const topo::Topology& topo,
                                    const LidSpace& lids) override;

  // DeltaCapable.  Weights evolve across destinations, so an update cannot
  // recompute dirty columns in isolation: it replays the weight evolution
  // of the clean prefix from the cached trees (a serial table walk, no
  // Dijkstras), recomputes only the membership-dirty columns of the first
  // dirty batch (their weight snapshot is unchanged), and recomputes
  // everything after that batch because the weight landscape may have
  // diverged.  Post-divergence re-runs frequently reproduce the cached
  // tree; only genuinely changed columns are patched and reported.
  [[nodiscard]] RouteResult compute_tracked(const topo::Topology& topo,
                                            const LidSpace& lids) override;
  DeltaStats update_tracked(const topo::Topology& topo, const LidSpace& lids,
                            const DeltaUpdate& update,
                            RouteResult& io) override;
  void invalidate_tracking() noexcept override { track_.valid = false; }

  /// Attaches a phase-timer sink (not owned; may be nullptr to detach).
  /// compute() then accumulates wall time under "spf_trees" (parallel
  /// Dijkstra batches) and "table_merge" (serial table + weight merge).
  /// Purely observational: the RouteResult is identical either way.
  void set_timings(obs::PhaseTimings* timings) noexcept {
    timings_ = timings;
  }

 private:
  RouteResult compute_impl(const topo::Topology& topo, const LidSpace& lids,
                           TreeTrackState* track);

  std::int32_t threads_;
  std::int32_t batch_;
  obs::PhaseTimings* timings_ = nullptr;
  TreeTrackState track_;
};

}  // namespace hxsim::routing
