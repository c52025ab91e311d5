// Incremental delta-SPF rerouting (the fault-stage fast path).
//
// The resilience campaign's operational loop is "fail k cables, reroute,
// measure, repeat" -- but a stage that kills 5 cables out of ~2500 leaves
// the vast majority of destination trees untouched.  This layer makes the
// reroute incremental while staying *bit-identical* to a full recompute:
//
//  - Every tracked engine records, per destination-LID column, the SPF tree
//    it shipped plus a ChannelBitmap of the channels the tree's parent
//    structure referenced (routing/spf.hpp).  A column is dirty for a fault
//    stage iff its bitmap intersects the newly disabled channels; clean
//    columns are provably unchanged (removing unused edges cannot improve a
//    path, and the deterministic min-channel-id tie-break never switches to
//    an absent candidate), so only dirty columns re-run Dijkstra and only
//    their LFT columns are patched in place.
//  - Engines whose weights evolve across destinations (SSSP, DFSSSP's base
//    pass, PARX) additionally replay the weight contribution of the clean
//    prefix from the cached trees and recompute from the first dirty
//    column's batch onward -- the weight landscape may have diverged there,
//    so everything after is re-run; the saving is the clean prefix plus the
//    clean columns of the first dirty batch.
//  - Inherently global passes (DFSSSP/PARX virtual-lane placement) re-run
//    over the patched tables whenever any column changed; they are cheap
//    relative to the per-destination Dijkstras.
//  - Channel *re-enabling* (FaultSchedule::revert) is not coverable by
//    membership tracking -- a restored edge can improve any tree -- so any
//    update naming re-enabled channels falls back to a full recompute.
//
// DeltaRouter wraps any RoutingEngine: capable engines (detected via the
// DeltaCapable mixin) go through the incremental path, everything else
// falls back to compute().  The bit-identity of every incremental update
// with a fresh full compute is checked from outside: by the reroute_dirty
// experiment at every stage, by tests/delta_routing_test.cpp and by the
// audit's delta_identity oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "routing/engine.hpp"
#include "routing/spf.hpp"

namespace hxsim::routing {

/// One fault stage's channel-state changes, as *directed* channel ids
/// (both directions of a failed cable; topo::FaultReport::disabled_channels
/// has exactly this shape).
struct DeltaUpdate {
  std::vector<topo::ChannelId> disabled;
  /// Re-enabled channels.  Non-empty forces a full recompute (see above).
  std::vector<topo::ChannelId> enabled;
};

/// Work accounting of one incremental update.
struct DeltaStats {
  /// Destination-LID columns the engine routes.
  std::int64_t columns_total = 0;
  /// Columns whose Dijkstra was re-run (the SPF work actually done).
  std::int64_t columns_recomputed = 0;
  /// Columns whose LFT entries actually changed (<= columns_recomputed:
  /// post-divergence re-runs often reproduce the cached tree).
  std::int64_t columns_changed = 0;
  /// True when the engine fell back to a full recompute (not tracked yet,
  /// re-enabled channels, or a structural change like new Up*/Down* ranks).
  bool full_recompute = false;
  /// dlids of the changed columns, ascending in the engine's column order;
  /// empty when full_recompute (treat every column as changed then).
  std::vector<Lid> dirty_lids;

  /// Fraction of destination trees re-run through Dijkstra: the *work*
  /// the strategy spent.  Near 1.0 for the weight-evolving engines when
  /// the first dirty column is early (everything after it must re-run).
  [[nodiscard]] double recompute_fraction() const {
    return columns_total > 0 ? static_cast<double>(columns_recomputed) /
                                   static_cast<double>(columns_total)
                             : 0.0;
  }
  /// Fraction of destination trees the stage actually dirtied (LFT column
  /// changed): the machine- and strategy-independent measure of how much
  /// routing state a fault touches, and the bench's honest metric on a
  /// single-core container where wall-clock gains are modest.
  [[nodiscard]] double dirty_fraction() const {
    return columns_total > 0 ? static_cast<double>(columns_changed) /
                                   static_cast<double>(columns_total)
                             : 0.0;
  }
  /// No LFT entry changed: consumers may reuse anything derived from the
  /// previous tables (paths, flow rates, VL maps) verbatim.
  [[nodiscard]] bool tables_unchanged() const {
    return !full_recompute && columns_changed == 0;
  }
};

/// Mixin for engines that can patch their previous RouteResult in place.
/// Contract: compute_tracked() behaves exactly like compute() but snapshots
/// per-column delta state; update_tracked() then patches `io` (the result
/// the tracked state describes) to what compute() would return on the
/// changed topology -- bit-identical (see the checks named above).  Plain
/// compute() never touches the tracked state, so a full recompute between
/// updates is safe; callers that mutate the topology behind the engine's
/// back must route the change through update_tracked() or call
/// invalidate_tracking().
class DeltaCapable {
 public:
  virtual ~DeltaCapable() = default;
  [[nodiscard]] virtual RouteResult compute_tracked(const topo::Topology& topo,
                                                    const LidSpace& lids) = 0;
  virtual DeltaStats update_tracked(const topo::Topology& topo,
                                    const LidSpace& lids,
                                    const DeltaUpdate& update,
                                    RouteResult& io) = 0;
  /// Drops the tracked state; the next update_tracked() recomputes fully.
  virtual void invalidate_tracking() noexcept = 0;
};

/// Per-destination-column snapshot a tracked engine keeps.
struct TreeColumnState {
  Lid dlid = 0;
  SpfResult tree;
  ChannelBitmap member;
  /// Switches with no route in this column (summed into
  /// RouteResult::unreachable_entries when patching).
  std::int64_t unreachable = 0;
};

struct TreeTrackState {
  bool valid = false;
  /// In the engine's column (merge) order.
  std::vector<TreeColumnState> columns;

  [[nodiscard]] std::int64_t total_unreachable() const {
    std::int64_t n = 0;
    for (const TreeColumnState& c : columns) n += c.unreachable;
    return n;
  }
};

namespace delta_detail {

/// Recomputes one column's tree + membership (worker indexes per-thread
/// scratch owned by the engine's closure).
using ColumnRecompute = std::function<void(
    const TreeColumnState& col, std::int32_t worker, SpfResult& tree,
    ChannelBitmap& member)>;

/// The shared delta driver for engines whose destinations are independent
/// (updown, ftree): scans memberships against `update.disabled`, re-runs
/// the dirty columns in parallel (exec::ThreadPool), then patches changed
/// LFT columns serially in ascending column order.  Caller guarantees the
/// track state is valid and `update.enabled` is empty.
DeltaStats update_independent_columns(const topo::Topology& topo,
                                      const LidSpace& lids,
                                      const DeltaUpdate& update,
                                      RouteResult& io, TreeTrackState& track,
                                      std::int32_t threads,
                                      const ColumnRecompute& recompute);

}  // namespace delta_detail

/// Wraps an engine for the fail/reroute/measure loop.  reroute_full()
/// (re)establishes the baseline; reroute() applies one stage's DeltaUpdate
/// incrementally when the engine is DeltaCapable and falls back to a full
/// compute otherwise.  The owned RouteResult is patched in place, so
/// references from result() stay valid across stages.
class DeltaRouter {
 public:
  /// The engine is not owned.
  explicit DeltaRouter(RoutingEngine& engine);

  [[nodiscard]] bool incremental() const noexcept { return delta_ != nullptr; }
  [[nodiscard]] bool has_result() const noexcept { return has_; }
  [[nodiscard]] const RouteResult& result() const;
  [[nodiscard]] RoutingEngine& engine() const noexcept { return *engine_; }

  /// Full (re)compute; tracked when the engine is capable.
  const RouteResult& reroute_full(const topo::Topology& topo,
                                  const LidSpace& lids);

  /// Incremental update after `update`'s channels changed state on `topo`.
  /// Falls back to reroute_full() when no baseline exists or the engine is
  /// not capable.  On exception the tracked state is invalidated
  /// (the next reroute recomputes fully) and the exception rethrown.
  const RouteResult& reroute(const topo::Topology& topo, const LidSpace& lids,
                             const DeltaUpdate& update,
                             DeltaStats* stats = nullptr);

  /// Drops baseline + tracked state (e.g. after an engine failure left the
  /// patched tables half-written).
  void invalidate() noexcept;

 private:
  RoutingEngine* engine_;
  DeltaCapable* delta_;
  bool has_ = false;
  RouteResult result_;
};

}  // namespace hxsim::routing
