#include "workloads/online_resilience.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>

#include "routing/verify.hpp"
#include "sim/online.hpp"
#include "stats/rng.hpp"
#include "topo/fault_injector.hpp"

namespace hxsim::workloads {

namespace {

/// Seeded path-less message set: uniform random pairs (self-sends
/// redrawn), inject times spread evenly over the window.
std::vector<sim::PktMessage> build_messages(
    const topo::Topology& topo, const OnlineResilienceOptions& options,
    std::uint64_t seed) {
  stats::Rng rng(seed);
  const auto n = static_cast<std::uint64_t>(topo.num_terminals());
  const double spacing =
      options.inject_window / static_cast<double>(options.messages);
  std::vector<sim::PktMessage> messages;
  messages.reserve(static_cast<std::size_t>(options.messages));
  for (std::int32_t i = 0; i < options.messages; ++i) {
    sim::PktMessage m;
    m.src = static_cast<topo::NodeId>(rng.next_below(n));
    do {
      m.dst = static_cast<topo::NodeId>(rng.next_below(n));
    } while (m.dst == m.src);
    m.bytes = options.bytes;
    m.inject_time = spacing * static_cast<double>(i);
    messages.push_back(std::move(m));
  }
  return messages;
}

OnlineResilienceRow make_row(const OnlineArm& arm,
                             std::span<const sim::PktMessage> messages,
                             const sim::PktSim::Result& r) {
  OnlineResilienceRow row;
  row.arm = arm.name;
  row.propagation_delay = arm.propagation_delay;
  row.faulted = arm.faulted;
  row.retry = arm.retry;
  row.adaptive = arm.adaptive != nullptr;
  row.deadlock = r.deadlock;
  row.messages = static_cast<std::int64_t>(messages.size());
  row.packets_total = r.packets_total;
  row.packets_delivered = r.packets_delivered;
  row.packets_dropped = r.packets_dropped;
  row.dropped_by_cause = r.dropped_by_cause;
  row.retries = r.retries;
  row.messages_abandoned = r.messages_abandoned;

  std::int64_t offered_bytes = 0;
  std::int64_t delivered_bytes = 0;
  double last = 0.0;
  for (std::size_t m = 0; m < messages.size(); ++m) {
    offered_bytes += messages[m].bytes;
    const bool delivered =
        r.message_status.empty()
            ? !std::isnan(r.completion[m])
            : r.message_status[m] == sim::PktMessageStatus::kDelivered;
    if (!delivered) continue;
    ++row.messages_delivered;
    delivered_bytes += messages[m].bytes;
    last = std::max(last, r.completion[m]);
  }
  row.makespan = row.messages_delivered > 0 ? last : r.end_time;
  row.delivered_fraction =
      offered_bytes > 0 ? static_cast<double>(delivered_bytes) /
                              static_cast<double>(offered_bytes)
                        : 1.0;
  return row;
}

}  // namespace

sim::PktSimConfig OnlineResiliencePlan::config(const OnlineArm& arm) const {
  sim::PktSimConfig config;
  config.num_vls = num_vls;
  config.adaptive = arm.adaptive;
  config.online = &arm.online;
  return config;
}

OnlineResiliencePlan plan_online_resilience(
    topo::Topology& topo, routing::RoutingEngine& engine,
    const routing::LidSpace& lids, const sim::AdaptiveRouter* adaptive,
    const OnlineResilienceOptions& options) {
  if (options.messages < 1)
    throw std::invalid_argument("online campaign: need at least one message");
  if (!(options.inject_window > 0.0))
    throw std::invalid_argument("online campaign: inject_window must be > 0");
  if (options.propagation_delays.empty())
    throw std::invalid_argument(
        "online campaign: need at least one propagation delay");

  OnlineResiliencePlan plan;
  plan.num_vls = options.num_vls;

  // Epoch 0: the intact fabric's tables.  reroute_and_verify throws on any
  // blackhole column.
  plan.epoch0 = std::make_unique<const routing::RerouteOutcome>(
      routing::reroute_and_verify(engine, topo, lids, options.threads));
  const routing::RerouteOutcome& e0 = *plan.epoch0;

  // One seeded link-fault stage, timed mid-run.
  topo::FaultSchedule::Options fault_options;
  fault_options.stages = 1;
  fault_options.links_per_stage = options.links_failed;
  fault_options.seed = options.fault_seed;
  topo::FaultSchedule schedule = topo::FaultSchedule::plan(topo, fault_options);
  schedule.set_stage_time(0, options.fault_time);
  const std::vector<sim::PktTimedFault> feed = sim::timed_faults(topo, schedule);
  if (feed.empty())
    throw std::runtime_error("online campaign: fault stage disabled nothing");

  // Epoch 1: the repaired tables, computed on the faulted fabric inside a
  // revert guard -- however reroute_and_verify exits (including its
  // blackhole-column throw), the shared fabric is restored intact before
  // any packet run sees it.
  {
    const topo::ScheduleRevertGuard revert_guard(topo, schedule);
    const topo::FaultReport applied = schedule.apply_stage(topo, 0);
    plan.cables_failed =
        static_cast<std::int32_t>(applied.disabled_links.size());
    plan.epoch1 = std::make_unique<const routing::RerouteOutcome>(
        routing::reroute_and_verify(engine, topo, lids, options.threads));
  }

  plan.messages = build_messages(topo, options, options.traffic_seed);

  // The off-switch probe: the same traffic pinned to its epoch-0 static
  // paths.
  plan.static_messages = plan.messages;
  for (sim::PktMessage& m : plan.static_messages) {
    auto path = e0.route.tables.path(topo, lids, m.src, lids.base_lid(m.dst));
    if (!path.ok)
      throw std::runtime_error("online campaign: intact fabric lost a path");
    m.path = std::move(path.channels);
    m.vl = e0.route.vls.vl(topo.attach_switch(m.src), lids.base_lid(m.dst));
  }

  sim::PktRoutingEpoch epoch0;
  epoch0.tables = &e0.route.tables;
  epoch0.vls = &e0.route.vls;
  sim::PktRoutingEpoch epoch1_from_start;
  epoch1_from_start.tables = &plan.epoch1->route.tables;
  epoch1_from_start.vls = &plan.epoch1->route.vls;

  const auto add_arm = [&](std::string name, sim::PktOnlineConfig online,
                           double delay, bool faulted, bool retry) {
    OnlineArm arm;
    arm.name = std::move(name);
    arm.propagation_delay = delay;
    arm.faulted = faulted;
    arm.retry = retry;
    arm.online = std::move(online);
    arm.online.lids = &lids;
    arm.online.ttl_hops = options.ttl_hops;
    plan.arms.push_back(std::move(arm));
  };

  // Baseline: intact fabric, epoch-0 tables, no faults.
  sim::PktOnlineConfig baseline_cfg;
  baseline_cfg.epochs = {epoch0};
  add_arm("baseline", std::move(baseline_cfg), 0.0, false, false);

  // Static-reroute envelope: the repaired tables installed from t = 0.
  // Epoch 1 never forwards onto a cut cable, so only packets physically on
  // a dying wire can be lost -- the best any offline reroute could do.
  sim::PktOnlineConfig envelope_cfg;
  envelope_cfg.faults = feed;
  envelope_cfg.epochs = {epoch1_from_start};
  add_arm("static-reroute", std::move(envelope_cfg), 0.0, true, false);

  // Propagation-delay sweep: epoch 0 everywhere, epoch 1 installed
  // per-switch at fault_time + delay; with and without end-host retry.
  const auto nsw = static_cast<std::size_t>(topo.num_switches());
  for (const double delay : options.propagation_delays) {
    sim::PktRoutingEpoch epoch1 = epoch1_from_start;
    epoch1.install_time.assign(nsw, options.fault_time + delay);
    sim::PktOnlineConfig cfg;
    cfg.faults = feed;
    cfg.epochs = {epoch0, epoch1};
    add_arm("delay-sweep", cfg, delay, true, false);
    cfg.retry = options.retry;
    cfg.retry.enabled = true;
    add_arm("delay-sweep", std::move(cfg), delay, true, true);
  }
  // The last retry-on sweep arm has the longest stale window.
  plan.retry_probe_arm = plan.arms.size() - 1;
  for (std::uint64_t r = 0; r < 4; ++r)
    plan.probe_traffic.push_back(
        build_messages(topo, options, options.traffic_seed + 1 + r));

  // Adaptive escape: per-hop DAL/PARX routing through the same faults.
  if (adaptive != nullptr) {
    OnlineArm arm;
    arm.name = "adaptive-escape";
    arm.faulted = true;
    arm.retry = true;
    arm.adaptive = adaptive;
    arm.online.faults = feed;
    arm.online.retry = options.retry;
    arm.online.retry.enabled = true;
    plan.arms.push_back(std::move(arm));
  }
  return plan;
}

OnlineResilienceReport run_online_resilience_campaign(
    const topo::Topology& topo, const OnlineResiliencePlan& plan,
    const OnlineResilienceOptions& options) {
  OnlineResilienceReport report;
  for (const OnlineArm& arm : plan.arms) {
    sim::PktSim sim(topo, plan.config(arm));
    report.results.push_back(sim.run(plan.messages, options.max_events));
    report.rows.push_back(make_row(arm, plan.messages, report.results.back()));
  }

  // Normalise the goodput-retention column against the baseline arm.
  const OnlineResilienceRow& baseline = report.rows.front();
  const double baseline_fraction = baseline.delivered_fraction;
  const double baseline_makespan = baseline.makespan;
  for (OnlineResilienceRow& row : report.rows) {
    row.retention = baseline_fraction > 0.0
                        ? row.delivered_fraction / baseline_fraction
                        : 0.0;
    row.recovery_time = std::max(0.0, row.makespan - baseline_makespan);
  }

  // Retry never loses goodput: retry-on minus retry-off retention at every
  // sweep delay (each retry-on sweep arm directly follows its retry-off
  // twin).
  report.retry_retention_gain = 1.0;
  for (std::size_t i = 1; i < report.rows.size(); ++i) {
    const OnlineResilienceRow& on = report.rows[i];
    const OnlineResilienceRow& off = report.rows[i - 1];
    if (on.arm != "delay-sweep" || !on.retry) continue;
    const double gain =
        baseline_fraction > 0.0
            ? (on.delivered_fraction - off.delivered_fraction) /
                  baseline_fraction
            : 0.0;
    report.retry_retention_gain = std::min(report.retry_retention_gain, gain);
  }
  return report;
}

}  // namespace hxsim::workloads
