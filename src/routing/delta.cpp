#include "routing/delta.hpp"

#include <stdexcept>
#include <utility>

#include "exec/exec.hpp"

namespace hxsim::routing {

namespace delta_detail {

DeltaStats update_independent_columns(const topo::Topology& topo,
                                      const LidSpace& lids,
                                      const DeltaUpdate& update,
                                      RouteResult& io, TreeTrackState& track,
                                      std::int32_t threads,
                                      const ColumnRecompute& recompute) {
  DeltaStats stats;
  stats.columns_total = static_cast<std::int64_t>(track.columns.size());

  std::vector<std::size_t> dirty;
  for (std::size_t i = 0; i < track.columns.size(); ++i)
    if (track.columns[i].member.intersects(update.disabled)) dirty.push_back(i);
  stats.columns_recomputed = static_cast<std::int64_t>(dirty.size());
  if (dirty.empty()) return stats;

  // Parallel phase: per-index slots only (determinism invariant).
  std::vector<SpfResult> trees(dirty.size());
  std::vector<ChannelBitmap> members(dirty.size());
  exec::ThreadPool pool(threads);
  pool.parallel_for(static_cast<std::int64_t>(dirty.size()),
                    [&](std::int64_t j, std::int32_t worker) {
                      const auto k = static_cast<std::size_t>(j);
                      recompute(track.columns[dirty[k]], worker, trees[k],
                                members[k]);
                    });

  // Serial patch in ascending column (== LID) order.
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    TreeColumnState& col = track.columns[dirty[k]];
    const bool changed = trees[k].out_channel != col.tree.out_channel;
    col.tree = std::move(trees[k]);
    col.member = std::move(members[k]);
    if (!changed) continue;
    const LidSpace::Owner owner = lids.owner(col.dlid);
    col.unreachable =
        apply_tree_to_tables(topo, col.tree, owner.node, col.dlid, io.tables);
    stats.dirty_lids.push_back(col.dlid);
    ++stats.columns_changed;
  }
  io.unreachable_entries = track.total_unreachable();
  return stats;
}

}  // namespace delta_detail

DeltaRouter::DeltaRouter(RoutingEngine& engine)
    : engine_(&engine), delta_(dynamic_cast<DeltaCapable*>(&engine)) {}

const RouteResult& DeltaRouter::result() const {
  if (!has_) throw std::logic_error("DeltaRouter::result: no reroute yet");
  return result_;
}

const RouteResult& DeltaRouter::reroute_full(const topo::Topology& topo,
                                             const LidSpace& lids) {
  has_ = false;  // stays false if the engine throws mid-compute
  result_ = delta_ != nullptr ? delta_->compute_tracked(topo, lids)
                              : engine_->compute(topo, lids);
  has_ = true;
  return result_;
}

const RouteResult& DeltaRouter::reroute(const topo::Topology& topo,
                                        const LidSpace& lids,
                                        const DeltaUpdate& update,
                                        DeltaStats* stats) {
  DeltaStats s;
  if (delta_ == nullptr || !has_) {
    s.full_recompute = true;
    reroute_full(topo, lids);
    s.columns_total = static_cast<std::int64_t>(lids.all_lids().size());
    s.columns_recomputed = s.columns_total;
    s.columns_changed = s.columns_total;
  } else {
    has_ = false;  // the patch below may leave result_ torn on throw
    try {
      s = delta_->update_tracked(topo, lids, update, result_);
    } catch (...) {
      delta_->invalidate_tracking();
      throw;
    }
    has_ = true;
  }
  if (stats != nullptr) *stats = std::move(s);
  return result_;
}

void DeltaRouter::invalidate() noexcept {
  has_ = false;
  if (delta_ != nullptr) delta_->invalidate_tracking();
}

}  // namespace hxsim::routing
