// Cluster = topology + routing + LID space + PML: one "machine plane".
// Transport = cluster + placement: executes MPI-level communication
// schedules and reports wall time.
//
// Execution model (documented in DESIGN.md):
//  - a Schedule is a list of rounds; messages within a round start
//    concurrently, rounds are separated by dependency barriers (this is how
//    binomial trees, dissemination barriers, ring steps etc. behave);
//  - per-message software cost: PML overhead, serialized per endpoint (the
//    k-th concurrent message of a rank starts k overheads late);
//  - network cost: max-min fair share of the routed path's channels
//    (fixed-rate round model) plus per-hop latency;
//  - PARX/bfo picks the destination LID per Table 1 and message size, with
//    reachability fallback across the four LIDs (faulty fabrics).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mpi/placement.hpp"
#include "mpi/pml.hpp"
#include "mpi/profile.hpp"
#include "routing/engine.hpp"
#include "sim/flowsim.hpp"
#include "sim/net_message.hpp"
#include "stats/rng.hpp"

namespace hxsim::mpi {

/// One MPI point-to-point message between ranks.
struct RankMsg {
  std::int32_t src_rank = -1;
  std::int32_t dst_rank = -1;
  std::int64_t bytes = 0;
};

/// Messages that start concurrently.
using Round = std::vector<RankMsg>;
/// Dependency-ordered rounds.
using Schedule = std::vector<Round>;

class Cluster {
 public:
  /// The topology must outlive the cluster; routing results are owned.
  Cluster(const topo::Topology& topo, routing::LidSpace lids,
          routing::RouteResult route, PmlConfig pml,
          sim::LinkModel link = {});

  [[nodiscard]] const topo::Topology& topo() const noexcept { return *topo_; }
  [[nodiscard]] const routing::LidSpace& lids() const noexcept { return lids_; }
  [[nodiscard]] const routing::RouteResult& route() const noexcept {
    return route_;
  }
  [[nodiscard]] const PmlConfig& pml() const noexcept { return pml_; }
  [[nodiscard]] const sim::LinkModel& link() const noexcept { return link_; }
  [[nodiscard]] std::int32_t num_nodes() const noexcept {
    return topo_->num_terminals();
  }

  /// Destination LID for a (src, dst, size) message: Table 1 on bfo with a
  /// quadrant-grouped LMC=2 space, LID0 otherwise.  Falls back across the
  /// node's LIDs when the preferred one is unreachable; kInvalidLid if no
  /// LID routes.
  [[nodiscard]] routing::Lid select_dlid(topo::NodeId src, topo::NodeId dst,
                                         std::int64_t bytes,
                                         stats::Rng& rng) const;

  /// Fully routed network message (empty path for src == dst);
  /// std::nullopt when unroutable.
  [[nodiscard]] std::optional<sim::NetMessage> route_message(
      topo::NodeId src, topo::NodeId dst, std::int64_t bytes,
      stats::Rng& rng) const;

 private:
  const topo::Topology* topo_;
  routing::LidSpace lids_;
  routing::RouteResult route_;
  PmlConfig pml_;
  sim::LinkModel link_;
  bool parx_selection_ = false;
};

class Transport {
 public:
  /// The cluster must outlive the transport.
  Transport(const Cluster& cluster, Placement placement, std::uint64_t seed);

  [[nodiscard]] const Placement& placement() const noexcept {
    return placement_;
  }

  /// Executes the schedule; returns total time [s].
  /// Throws std::runtime_error if any message is unroutable.
  [[nodiscard]] double execute(const Schedule& schedule);

  /// Per-round completion times (diagnostics / tests).
  [[nodiscard]] std::vector<double> execute_rounds(const Schedule& schedule);

  /// Records the schedule's rank-pair byte counts (the IB-profiler stand-in;
  /// no simulation involved).
  static void accumulate(const Schedule& schedule, CommProfile& profile);

 private:
  [[nodiscard]] double round_time(const Round& round);

  const Cluster* cluster_;
  Placement placement_;
  stats::Rng rng_;
  sim::FlowSim flows_;
};

}  // namespace hxsim::mpi
