// Online-fault resilience campaign: fault mid-run, measure the transient.
//
// The offline campaign (workloads/resilience.hpp) answers "how good is the
// fabric after the reroute"; this one answers the operator's harder
// question: how much traffic dies *between* the fault and the repaired
// tables reaching every switch, and how much of it end-host retry wins
// back.  One seeded link-fault stage is planned, timed mid-run, and the
// packet engine replays the same message set through a ladder of arms:
//
//   baseline        intact fabric, epoch-0 tables only
//   static-reroute  repaired tables installed from t = 0 (the envelope an
//                   offline reroute would achieve) plus the timed faults
//   delay sweep     epoch 0 -> epoch 1 with a per-switch propagation delay
//                   after the fault instant, retry off and retry on
//   adaptive        path-less DAL/PARX escape routing through the faults
//
// Arm construction and arm execution are split: plan_online_resilience
// computes both epochs, the timed fault feed, the traffic and one
// PktOnlineConfig per arm into an owning plan, and
// run_online_resilience_campaign replays the plan on the packet engine.
// The plan also carries what the online_resilience experiment needs to
// check the layer's contracts from outside: the traffic pinned to its
// epoch-0 static paths (the inert-config off switch), the retry probe
// arm and its replication traffic (run_batch thread-count invariance),
// and every arm's PktSimConfig, which it replays on the audit library's
// reference engine.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/pkt_trace.hpp"
#include "routing/engine.hpp"
#include "routing/lid_space.hpp"
#include "routing/verify.hpp"
#include "sim/pktsim.hpp"
#include "topo/topology.hpp"

namespace hxsim::workloads {

/// One arm's outcome on the packet engine.
struct OnlineResilienceRow {
  std::string arm;
  /// Per-switch install delay of the repaired tables after the fault [s];
  /// 0 for arms outside the sweep.
  double propagation_delay = 0.0;
  bool faulted = false;
  bool retry = false;
  bool adaptive = false;
  bool deadlock = false;
  double makespan = 0.0;  // last delivered completion (end_time if none)
  std::int64_t messages = 0;
  std::int64_t messages_delivered = 0;
  std::int64_t messages_abandoned = 0;
  std::int64_t packets_total = 0;
  std::int64_t packets_delivered = 0;
  std::int64_t packets_dropped = 0;
  /// Indexed by obs::PktDropCause.
  std::array<std::int64_t, obs::kNumPktDropCauses> dropped_by_cause{};
  std::int64_t retries = 0;
  /// Delivered fraction of offered bytes (a message counts only when its
  /// final attempt fully arrived).
  double delivered_fraction = 0.0;
  /// delivered_fraction normalised by the baseline arm's: the campaign's
  /// goodput-retention metric.
  double retention = 0.0;
  /// Extra time the transient cost: makespan minus the baseline's, >= 0.
  double recovery_time = 0.0;
};

struct OnlineResilienceReport {
  /// One row per plan arm, in plan order.
  std::vector<OnlineResilienceRow> rows;
  /// The engine's full Result per plan arm, in plan order.
  std::vector<sim::PktSim::Result> results;
  /// min over sweep delays of (retention with retry - retention without):
  /// the claims-registry contract that retransmission never loses goodput.
  double retry_retention_gain = 0.0;
};

struct OnlineResilienceOptions {
  /// Cables cut by the single timed fault stage (seeded draw).
  std::int32_t links_failed = 6;
  std::uint64_t fault_seed = 1;
  /// Simulation time the cables die [s]; placed mid-injection-window.
  double fault_time = 10e-6;
  /// Per-switch install delays swept for the repaired epoch [s].
  std::vector<double> propagation_delays = {0.0, 5e-6, 20e-6, 50e-6};
  std::int32_t messages = 96;
  std::int64_t bytes = 8 * 1024;
  /// Inject times are spread evenly over [0, inject_window).
  double inject_window = 20e-6;
  std::uint64_t traffic_seed = 1;
  /// Retry model of the retry-on arms (`enabled` is set per arm).
  sim::PktRetryConfig retry{/*enabled=*/false, /*timeout=*/50e-6,
                            /*backoff_base=*/5e-6, /*jitter=*/0.5,
                            /*max_retries=*/6, /*seed=*/1};
  std::int32_t num_vls = 8;
  std::int32_t ttl_hops = 64;
  /// Worker count of the reroutes (and of the experiment's run_batch
  /// thread-identity check, compared against 1 worker).
  std::int32_t threads = 0;
  std::size_t max_events = SIZE_MAX;
};

/// One arm of the ladder: its online layer (and, for the adaptive arm,
/// its router), replayed over the plan's path-less traffic.
struct OnlineArm {
  std::string name;
  /// See OnlineResilienceRow::propagation_delay.
  double propagation_delay = 0.0;
  bool faulted = false;
  bool retry = false;
  sim::PktOnlineConfig online;
  const sim::AdaptiveRouter* adaptive = nullptr;
};

/// Everything the campaign replays, owned.  Arms point into the epochs
/// (heap-held, so the plan may be moved) and into the caller's LidSpace,
/// which must outlive the plan.
struct OnlineResiliencePlan {
  /// Epoch 0 (the intact fabric's tables) and epoch 1 (the repaired
  /// tables, computed on the faulted fabric).  reroute_and_verify throws
  /// on blackhole columns, so both censuses record zero.
  std::unique_ptr<const routing::RerouteOutcome> epoch0;
  std::unique_ptr<const routing::RerouteOutcome> epoch1;
  std::int32_t cables_failed = 0;
  std::int32_t num_vls = 8;
  /// The seeded path-less traffic every arm replays.
  std::vector<sim::PktMessage> messages;
  /// The same traffic pinned to its epoch-0 static paths and VLs: the
  /// off-switch probe (an inert online config must change no result bit).
  std::vector<sim::PktMessage> static_messages;
  /// baseline, static-reroute, the delay sweep (retry off, then on, per
  /// delay), and adaptive-escape when a router was given.
  std::vector<OnlineArm> arms;
  /// The retry-on sweep arm with the longest stale window, and four more
  /// seeded traffic sets: the run_batch thread-count invariance probe.
  std::size_t retry_probe_arm = 0;
  std::vector<std::vector<sim::PktMessage>> probe_traffic;

  /// The PktSimConfig `arm` runs under (online points into the arm).
  [[nodiscard]] sim::PktSimConfig config(const OnlineArm& arm) const;
};

/// Plans the campaign on `topo` with `engine` computing both epochs (the
/// fabric is faulted only inside a ScheduleRevertGuard scope and returned
/// intact).  `adaptive`, when non-null, adds the adaptive-escape arm.
/// Throws if either epoch ships blackhole columns (reroute_and_verify) or
/// the fault stage disabled nothing.
[[nodiscard]] OnlineResiliencePlan plan_online_resilience(
    topo::Topology& topo, routing::RoutingEngine& engine,
    const routing::LidSpace& lids, const sim::AdaptiveRouter* adaptive,
    const OnlineResilienceOptions& options = {});

/// Runs every plan arm on the packet engine (options.max_events per run)
/// and normalises retention and recovery time against the baseline arm.
[[nodiscard]] OnlineResilienceReport run_online_resilience_campaign(
    const topo::Topology& topo, const OnlineResiliencePlan& plan,
    const OnlineResilienceOptions& options = {});

}  // namespace hxsim::workloads
