// NetMessage: one routed message of an MPI transport round, as
// mpi::Cluster::route_message returns it.  The transport solves a round's
// paths with FlowSim.
#pragma once

#include <cstdint>
#include <vector>

#include "topo/topology.hpp"

namespace hxsim::sim {

struct NetMessage {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  std::int64_t bytes = 0;
  /// Routed path (terminal-up ... switch-terminal); empty for self-sends.
  std::vector<topo::ChannelId> path;
  std::int8_t vl = 0;
};

}  // namespace hxsim::sim
