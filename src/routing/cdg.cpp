#include "routing/cdg.hpp"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <string>

namespace hxsim::routing {

IncrementalDag::IncrementalDag(std::int32_t num_nodes)
    : n_(num_nodes),
      out_(static_cast<std::size_t>(num_nodes)),
      in_(static_cast<std::size_t>(num_nodes)),
      ord_(static_cast<std::size_t>(num_nodes)),
      visited_in_(static_cast<std::size_t>(num_nodes), 0) {
  std::iota(ord_.begin(), ord_.end(), 0);
}

void IncrementalDag::check_range(std::int32_t u, std::int32_t v,
                                 const char* what) const {
  if (u < 0 || u >= n_ || v < 0 || v >= n_)
    throw std::out_of_range(std::string(what) + ": node out of range");
}

bool IncrementalDag::has_edge(std::int32_t u, std::int32_t v) const {
  check_range(u, v, "IncrementalDag::has_edge");
  const auto& outs = out_[static_cast<std::size_t>(u)];
  return std::find(outs.begin(), outs.end(), v) != outs.end();
}

bool IncrementalDag::visit(std::int32_t node) {
  std::uint32_t& seen = visited_in_[static_cast<std::size_t>(node)];
  if (seen == stamp_) return false;
  seen = stamp_;
  return true;
}

bool IncrementalDag::dfs_forward(std::int32_t v, std::int32_t ub) {
  // Iterative DFS; nodes beyond position ub cannot participate in a cycle
  // with the new edge.  Reaching position ub itself means reaching u: the
  // edge is rejected and the rest of the region need not be walked.
  delta_f_.assign(1, v);
  stack_.assign(1, v);
  visit(v);
  while (!stack_.empty()) {
    const std::int32_t w = stack_.back();
    stack_.pop_back();
    for (std::int32_t next : out_[static_cast<std::size_t>(w)]) {
      const std::int32_t pos = ord_[static_cast<std::size_t>(next)];
      if (pos == ub) return true;  // cycle: u reachable from v
      if (pos > ub || !visit(next)) continue;
      delta_f_.push_back(next);
      stack_.push_back(next);
    }
  }
  return false;
}

void IncrementalDag::dfs_backward(std::int32_t u, std::int32_t lb) {
  delta_b_.assign(1, u);
  stack_.assign(1, u);
  visit(u);
  while (!stack_.empty()) {
    const std::int32_t w = stack_.back();
    stack_.pop_back();
    for (std::int32_t prev : in_[static_cast<std::size_t>(w)]) {
      const std::int32_t pos = ord_[static_cast<std::size_t>(prev)];
      if (pos < lb || !visit(prev)) continue;
      delta_b_.push_back(prev);
      stack_.push_back(prev);
    }
  }
}

void IncrementalDag::reorder() {
  auto by_position = [this](std::int32_t a, std::int32_t b) {
    return ord_[static_cast<std::size_t>(a)] < ord_[static_cast<std::size_t>(b)];
  };
  std::sort(delta_b_.begin(), delta_b_.end(), by_position);
  std::sort(delta_f_.begin(), delta_f_.end(), by_position);
  // delta_b_ then delta_f_, each keeping its relative order, take over the
  // sorted union of their positions.
  delta_b_.insert(delta_b_.end(), delta_f_.begin(), delta_f_.end());
  pool_.clear();
  for (std::int32_t node : delta_b_)
    pool_.push_back(ord_[static_cast<std::size_t>(node)]);
  std::sort(pool_.begin(), pool_.end());
  for (std::size_t i = 0; i < delta_b_.size(); ++i)
    ord_[static_cast<std::size_t>(delta_b_[i])] = pool_[i];
}

bool IncrementalDag::add_edge(std::int32_t u, std::int32_t v) {
  check_range(u, v, "IncrementalDag::add_edge");
  if (u == v) return false;  // a self-loop is a cycle
  if (has_edge(u, v)) return true;

  const std::int32_t lb = ord_[static_cast<std::size_t>(v)];
  const std::int32_t ub = ord_[static_cast<std::size_t>(u)];
  if (lb < ub) {
    // Pearce-Kelly: search the affected region [lb, ub] under a fresh
    // visit stamp (both searches share it: their regions are disjoint
    // unless there is a cycle, and then the backward one never runs).
    if (++stamp_ == 0) {  // wrapped: forget every old stamp
      std::fill(visited_in_.begin(), visited_in_.end(), 0);
      stamp_ = 1;
    }
    if (dfs_forward(v, ub)) return false;
    dfs_backward(u, lb);
    reorder();
  }
  out_[static_cast<std::size_t>(u)].push_back(v);
  in_[static_cast<std::size_t>(v)].push_back(u);
  ++num_edges_;
  return true;
}

void IncrementalDag::remove_edge(std::int32_t u, std::int32_t v) {
  check_range(u, v, "IncrementalDag::remove_edge");
  auto& outs = out_[static_cast<std::size_t>(u)];
  const auto out_it = std::find(outs.rbegin(), outs.rend(), v);
  if (out_it == outs.rend()) return;
  outs.erase(std::next(out_it).base());
  auto& ins = in_[static_cast<std::size_t>(v)];
  ins.erase(std::next(std::find(ins.rbegin(), ins.rend(), u)).base());
  --num_edges_;
}

VlLayering::VlLayering(std::int32_t num_channels, std::int32_t max_layers) {
  if (max_layers < 1)
    throw std::invalid_argument("VlLayering: need at least one layer");
  layers_.reserve(static_cast<std::size_t>(max_layers));
  for (std::int32_t i = 0; i < max_layers; ++i)
    layers_.emplace_back(num_channels);
}

std::int32_t VlLayering::place_path(
    std::span<const std::int32_t> channel_path) {
  if (channel_path.size() < 2) {
    // No switch-to-switch dependency; any layer works, use the first.
    layers_used_ = std::max(layers_used_, 1);
    return 0;
  }
  for (std::int32_t layer = 0; layer < max_layers(); ++layer) {
    IncrementalDag& dag = layers_[static_cast<std::size_t>(layer)];
    added_.clear();
    bool ok = true;
    for (std::size_t i = 0; i + 1 < channel_path.size(); ++i) {
      const std::int32_t a = channel_path[i];
      const std::int32_t b = channel_path[i + 1];
      if (dag.has_edge(a, b)) continue;
      if (!dag.add_edge(a, b)) {
        ok = false;
        break;
      }
      added_.emplace_back(a, b);
    }
    if (ok) {
      layers_used_ = std::max(layers_used_, layer + 1);
      return layer;
    }
    // Newest first: each removal finds its edge in the last list slot.
    for (auto it = added_.rbegin(); it != added_.rend(); ++it)
      dag.remove_edge(it->first, it->second);
  }
  return -1;
}

bool acyclic(std::int32_t num_nodes,
             std::span<const std::pair<std::int32_t, std::int32_t>> edges) {
  std::vector<std::vector<std::int32_t>> out(
      static_cast<std::size_t>(num_nodes));
  std::vector<std::int32_t> indegree(static_cast<std::size_t>(num_nodes), 0);
  for (const auto& [u, v] : edges) {
    out[static_cast<std::size_t>(u)].push_back(v);
    ++indegree[static_cast<std::size_t>(v)];
  }
  std::vector<std::int32_t> ready;
  for (std::int32_t i = 0; i < num_nodes; ++i)
    if (indegree[static_cast<std::size_t>(i)] == 0) ready.push_back(i);
  std::int64_t processed = 0;
  while (!ready.empty()) {
    const std::int32_t u = ready.back();
    ready.pop_back();
    ++processed;
    for (std::int32_t v : out[static_cast<std::size_t>(u)])
      if (--indegree[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  }
  return processed == num_nodes;
}

}  // namespace hxsim::routing
