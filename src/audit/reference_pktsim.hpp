// The reference packet engine: the seed implementation of sim::PktSim,
// kept as an oracle for the production engine.
//
// Type-erased callbacks on a binary-heap EventQueue, per-VL std::deques
// and one Packet record per segment -- the same simulation as sim::PktSim
// written the straightforward way.  The production engine mirrors its
// control flow handler for handler, so every Result field (and every
// obs::PktTrace counter) must agree bit for bit; the golden suite, the
// fuzz-audit oracles and the pktsim_speedup / online_resilience
// experiments hold the two to that.  Config and message validation, the
// rng-seed derivations and the retry backoff come from the helpers both
// engines share (sim/pktsim_internal.hpp), so both throw and draw
// identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <span>
#include <vector>

#include "sim/pktsim.hpp"
#include "topo/topology.hpp"

namespace hxsim::audit {

/// A time-ordered queue of type-erased callbacks: the reference engine's
/// discrete-event core.  Events at equal timestamps run in scheduling
/// order (a monotone sequence number breaks ties), the same contract as
/// sim::FlatEventHeap, which is what lets the two engines pop identical
/// event sequences.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Schedules `cb` at absolute time `when` (must be >= now()).
  void schedule(double when, Callback cb);

  /// Convenience: schedule at now() + delay.
  void schedule_in(double delay, Callback cb) {
    schedule(now_ + delay, std::move(cb));
  }

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }

  /// Pops and runs the earliest event; returns false when idle.
  bool run_one();

  /// Runs until the queue drains or `max_events` fire; returns events run.
  std::size_t run(std::size_t max_events = SIZE_MAX);

 private:
  struct Entry {
    double when;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
};

/// Runs `messages` on the reference engine with sim::PktSim::run's inputs
/// and semantics: `config` is validated exactly as the PktSim constructor
/// validates it, `config.trace` (when set) is reset and filled, and
/// `replication` picks the adaptive-candidate and retry-jitter streams, so
/// reference_run(topo, config, msgs, n, i) must equal PktSim(topo,
/// config).run(msgs, n, i) -- and run_batch replication i -- bit for bit.
[[nodiscard]] sim::PktSim::Result reference_run(
    const topo::Topology& topo, const sim::PktSimConfig& config,
    std::span<const sim::PktMessage> messages,
    std::size_t max_events = SIZE_MAX, std::uint64_t replication = 0);

}  // namespace hxsim::audit
