// Channel dependency graph (CDG) machinery for deadlock-free routing.
//
// A routing function is deadlock-free on a virtual lane iff the dependency
// graph whose vertices are channels and whose edges connect consecutive
// channels of some path is acyclic (Dally & Towles [13 in the paper]).
//
//  - IncrementalDag: an online DAG with cycle rejection, implementing the
//    Pearce-Kelly dynamic topological-order algorithm.  add_edge() refuses
//    (and leaves the DAG unchanged) when the edge would close a cycle.
//  - VlLayering: greedy path-to-layer assignment used by DFSSSP and PARX --
//    a path goes to the lowest virtual lane whose CDG stays acyclic.
//  - acyclic(): batch oracle used by tests to independently verify the
//    layering (Kahn's algorithm).
//
// Cost model.  The state is adjacency only: per-node out/in lists plus the
// topological order.  A CDG node is a channel, so its out-degree is at
// most the switch radix and has_edge() is a short scan of one out-list;
// num_edges() is a counter.  An insertion that agrees with the current
// order is O(1).  Otherwise the forward search walks the affected region
// (positions between v and u), and a rejection stops at the first
// back-path to u instead of finishing the region -- rejected tries are
// most of the search work in a greedy layering.  The search stacks,
// visited lists and reorder pool are reused members and a per-search
// visit stamp replaces clearing marks, so insertions do not allocate once
// the buffers have grown.  VlLayering undoes a rejected path's edges
// newest-first, which pops each list's last slot.  On the paper 12x8
// HyperX (4-core Xeon, Release) PARX's VL placement of 2,688 LIDs takes
// ~0.06-0.09 s intact/faulted.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace hxsim::routing {

class IncrementalDag {
 public:
  explicit IncrementalDag(std::int32_t num_nodes);

  /// Adds edge u -> v unless it would create a cycle.
  /// Returns false (and changes nothing) when rejected.
  /// Adding an existing edge succeeds trivially.
  bool add_edge(std::int32_t u, std::int32_t v);

  /// Removes an edge if present (removals never create cycles).  Edges are
  /// searched from the newest, so undoing insertions newest-first (LIFO)
  /// pops the last list slot.
  void remove_edge(std::int32_t u, std::int32_t v);

  /// add_edge, remove_edge and has_edge throw std::out_of_range on a node
  /// id outside [0, num_nodes).
  [[nodiscard]] bool has_edge(std::int32_t u, std::int32_t v) const;
  [[nodiscard]] std::int64_t num_edges() const noexcept { return num_edges_; }

  /// Current topological position of a node (tests assert consistency).
  [[nodiscard]] std::int32_t order_of(std::int32_t node) const {
    return ord_[static_cast<std::size_t>(node)];
  }

 private:
  void check_range(std::int32_t u, std::int32_t v, const char* what) const;
  /// Marks `node` visited in the current search; false if it already was.
  bool visit(std::int32_t node);
  /// DFS forward from `v` over nodes with ord < ub into delta_f_; returns
  /// true as soon as the node at position ub (i.e. u) is reached.
  bool dfs_forward(std::int32_t v, std::int32_t ub);
  /// DFS backward from `u` over nodes with ord > lb into delta_b_.
  void dfs_backward(std::int32_t u, std::int32_t lb);
  /// Pearce-Kelly reorder: place delta_b_ before delta_f_ in the union of
  /// their current positions (delta_b_ is left holding both).
  void reorder();

  std::int32_t n_;
  std::int64_t num_edges_ = 0;
  std::vector<std::vector<std::int32_t>> out_;
  std::vector<std::vector<std::int32_t>> in_;
  std::vector<std::int32_t> ord_;  // node -> topological position
  // Search scratch, reused across calls: node -> stamp of the last search
  // that visited it, the current search's stamp, and the DFS buffers.
  std::vector<std::uint32_t> visited_in_;
  std::uint32_t stamp_ = 0;
  std::vector<std::int32_t> stack_;
  std::vector<std::int32_t> delta_f_;
  std::vector<std::int32_t> delta_b_;
  std::vector<std::int32_t> pool_;
};

/// Greedy assignment of paths (channel sequences) to virtual lanes.
class VlLayering {
 public:
  VlLayering(std::int32_t num_channels, std::int32_t max_layers);

  /// Places all consecutive dependencies of `channel_path` into the lowest
  /// layer that stays acyclic.  Returns the layer, or -1 if no layer fits
  /// (the paper's "PARX may exceed a VL hardware limit" case).
  std::int32_t place_path(std::span<const std::int32_t> channel_path);

  [[nodiscard]] std::int32_t layers_used() const noexcept {
    return layers_used_;
  }
  [[nodiscard]] std::int32_t max_layers() const noexcept {
    return static_cast<std::int32_t>(layers_.size());
  }
  /// Read-only view of one layer's dependency graph (tests inspect it).
  [[nodiscard]] const IncrementalDag& layer(std::int32_t index) const {
    return layers_.at(static_cast<std::size_t>(index));
  }

 private:
  std::vector<IncrementalDag> layers_;
  std::int32_t layers_used_ = 0;
  /// Dependencies the current try added to a layer, for rollback.
  std::vector<std::pair<std::int32_t, std::int32_t>> added_;
};

/// Batch acyclicity test over dependency edges (pairs u -> v).
[[nodiscard]] bool acyclic(
    std::int32_t num_nodes,
    std::span<const std::pair<std::int32_t, std::int32_t>> edges);

}  // namespace hxsim::routing
