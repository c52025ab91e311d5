// Helpers the packet engine (sim/pktsim.cpp) shares with the reference
// engine of the audit library (audit/reference_pktsim.cpp).  Both engines
// validate through the same functions, so they throw identically, and
// derive their rng streams and retry backoff through the same functions,
// so they draw identically.  Internal: not part of the public sim API.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/online.hpp"
#include "sim/pktsim.hpp"
#include "topo/topology.hpp"

namespace hxsim::sim::detail {

/// Throws std::invalid_argument unless `config` is simulable on `topo`:
/// VL count and buffer depth in range, a finite positive link bandwidth, a
/// finite non-negative hop latency, an MTU of at least one byte, an
/// adaptive router whose max_hops() fits the VL budget, and a valid
/// online config (validate_online).
void validate_config(const topo::Topology& topo, const PktSimConfig& config);

/// Throws std::invalid_argument, naming message `m`, unless `msg` can be
/// injected under `config`: VL in range, src/dst terminals of `topo`,
/// non-negative bytes, a finite non-negative inject time, a router for a
/// path-less message (adaptive or the online epochs' tables), and a static
/// path that is connected and runs from the source's terminal-up to the
/// destination's terminal-down channel.
void validate_message(const topo::Topology& topo, const PktSimConfig& config,
                      std::size_t m, const PktMessage& msg);

/// Seed for the engine-owned adaptive-candidate rng.  Replication 0 maps
/// to the router's base seed unchanged, so a plain run reproduces the
/// historical ValiantRouter stream bit-for-bit; every other replication
/// gets an independent golden-ratio-offset stream derived from its index
/// alone, which is what makes randomized routers replicable under
/// run_batch (no shared mutable state, no order dependence).
[[nodiscard]] std::uint64_t candidate_rng_seed(const PktSimConfig& config,
                                               std::uint64_t replication);

/// Seed for the engine-owned retry-jitter rng, derived exactly like the
/// adaptive-candidate seed from PktRetryConfig::seed, so retransmission
/// timelines are bit-identical across run_batch thread counts and across
/// engines.
[[nodiscard]] std::uint64_t retry_rng_seed(const PktSimConfig& config,
                                           std::uint64_t replication);

/// Exponential backoff with seeded jitter before retry attempt `attempt`
/// (1-based): base * 2^(attempt-1) * (1 + jitter * u).  `u` is drawn by
/// the caller in event order so both engines consume the stream
/// identically.
[[nodiscard]] double backoff_delay(const PktRetryConfig& retry,
                                   std::int32_t attempt, double u);

}  // namespace hxsim::sim::detail
