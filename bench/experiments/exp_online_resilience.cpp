// Repo-level experiment: the online fault layer, as claims.  One timed
// cable-fault stage on the HyperX/DFSSSP fabric, the repaired tables
// installed per switch after each sweep delay.  The claims bind to the
// off-switch bit-identity (an inert PktOnlineConfig changes nothing), the
// engine identity (every campaign arm replayed on the audit library's
// reference engine agrees bit for bit, run_batch is thread-count
// invariant with retry on, and neither epoch ships a blackhole column)
// and the retry retention gain (end-host retransmission never loses
// delivered goodput against the same transient).
#include <cstdio>
#include <string>
#include <vector>

#include "audit/oracles.hpp"
#include "audit/reference_pktsim.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "sim/adaptive.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"
#include "topo/hyperx.hpp"
#include "workloads/online_resilience.hpp"

namespace hxsim::bench {

namespace {

report::ResultSet run(const report::Options& options) {
  const BenchArgs args = to_bench_args(options);
  report::ResultSet rs;

  topo::HyperX hx(workloads::system_hyperx_params(args.quick));
  routing::LidSpace lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine dfsssp(8);
  const sim::DalRouter dal(hx);

  workloads::OnlineResilienceOptions opt;
  opt.links_failed = args.quick ? 4 : 8;
  opt.fault_seed = args.seed;
  opt.traffic_seed = args.seed;
  opt.messages = args.quick ? 64 : 192;
  opt.propagation_delays =
      args.quick ? std::vector<double>{0.0, 10e-6, 50e-6}
                 : std::vector<double>{0.0, 5e-6, 20e-6, 50e-6};
  opt.threads = args.threads;

  std::printf("== Online faults, %s / dfsssp: %d cables die at t = %.1f us "
              "==\n\n",
              hx.topo().name().c_str(), opt.links_failed,
              opt.fault_time * 1e6);

  const workloads::OnlineResiliencePlan plan =
      workloads::plan_online_resilience(hx.topo(), dfsssp, lids, &dal, opt);
  const workloads::OnlineResilienceReport report =
      workloads::run_online_resilience_campaign(hx.topo(), plan, opt);

  const std::vector<std::string> header{
      "arm", "delay [us]", "retry", "delivered", "in-flight", "blackhole",
      "ttl", "retries", "retention", "recovery [us]"};
  stats::TextTable table(header);
  report::ResultTable& out = rs.table("retention", header);
  for (const auto& row : report.rows) {
    const std::vector<std::string> cells{
        row.arm,
        stats::format_fixed(row.propagation_delay * 1e6, 1),
        row.retry ? "on" : "off",
        std::to_string(row.messages_delivered) + "/" +
            std::to_string(row.messages),
        std::to_string(row.dropped_by_cause[static_cast<std::size_t>(
            obs::PktDropCause::kInFlight)]),
        std::to_string(row.dropped_by_cause[static_cast<std::size_t>(
            obs::PktDropCause::kBlackhole)]),
        std::to_string(row.dropped_by_cause[static_cast<std::size_t>(
            obs::PktDropCause::kTtl)]),
        std::to_string(row.retries),
        stats::format_fixed(row.retention, 3),
        stats::format_fixed(row.recovery_time * 1e6, 1)};
    table.add_row(cells);
    out.add_row(cells);
  }
  std::printf("%s\n", table.to_string().c_str());

  // Off switch: the traffic pinned to its static paths runs bit-identically
  // with an inert attached config and with online = nullptr, on both
  // engines.
  const sim::PktOnlineConfig inert;  // active() == false
  sim::PktSimConfig bare_cfg;
  bare_cfg.num_vls = opt.num_vls;
  sim::PktSimConfig inert_cfg = bare_cfg;
  inert_cfg.online = &inert;
  const auto inert_run = sim::PktSim(hx.topo(), inert_cfg)
                             .run(plan.static_messages, opt.max_events);
  const auto bare_run = sim::PktSim(hx.topo(), bare_cfg)
                            .run(plan.static_messages, opt.max_events);
  const bool nofault_identical =
      audit::check_pkt_results_equal(inert_run, bare_run).pass;

  // Engine identity: the off-switch pair and every campaign arm replayed
  // on the reference engine.
  const auto matches_reference = [&](const sim::PktSim::Result& typed,
                                     const sim::PktSimConfig& cfg,
                                     const std::vector<sim::PktMessage>& msgs) {
    return audit::check_pkt_results_equal(
               typed, audit::reference_run(hx.topo(), cfg, msgs,
                                           opt.max_events))
        .pass;
  };
  bool engines_identical =
      matches_reference(inert_run, inert_cfg, plan.static_messages) &&
      matches_reference(bare_run, bare_cfg, plan.static_messages);
  for (std::size_t i = 0; i < plan.arms.size(); ++i)
    engines_identical =
        engines_identical &&
        matches_reference(report.results[i], plan.config(plan.arms[i]),
                          plan.messages);

  // Thread-count invariance of the retry jitter stream: the retry probe
  // arm through run_batch at one worker and at opt.threads workers.
  sim::PktSim probe(hx.topo(), plan.config(plan.arms[plan.retry_probe_arm]));
  const auto serial =
      probe.run_batch(plan.probe_traffic, 1, {}, opt.max_events);
  const auto fanned = probe.run_batch(
      plan.probe_traffic, opt.threads > 0 ? opt.threads : 4, {},
      opt.max_events);
  const bool contracts_hold =
      engines_identical &&
      audit::check_pkt_batches_equal(serial, fanned).pass &&
      plan.epoch0->census.blackhole_entries == 0 &&
      plan.epoch1->census.blackhole_entries == 0;
  rs.set("nofault_identical", nofault_identical ? 1.0 : 0.0);
  rs.set("engines_identical", contracts_hold ? 1.0 : 0.0);
  rs.set("retry_retention_gain", report.retry_retention_gain);
  rs.set("cables_failed", static_cast<double>(plan.cables_failed));

  std::printf("inert online config bit-identical: %s\n",
              nofault_identical ? "yes" : "NO (BUG)");
  std::printf("typed == reference / thread-invariant / no blackhole "
              "columns: %s\n",
              contracts_hold ? "yes" : "NO (BUG)");
  std::printf("retry retention gain (min over delays): %+.3f\n",
              report.retry_retention_gain);
  return rs;
}

}  // namespace

report::Experiment online_resilience_experiment() {
  return {"online_resilience",
          "Mid-run link faults: stale-table transient, epoch propagation "
          "and end-host retry",
          "repo (online-fault contract)", run};
}

}  // namespace hxsim::bench
