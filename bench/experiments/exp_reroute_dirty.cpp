// Repo-level experiment: the incremental-reroute contract, as claims.
// A seeded cable-attrition schedule runs on both paper planes, and every
// routing engine is rerouted twice per stage: once from scratch
// (engine.compute on the degraded fabric) and once through
// routing::DeltaRouter, which recomputes only the destination trees whose
// previous SPF tree used a channel the stage disabled.  The HyperX arms
// end with a whole dim-0 plane cut (the resilience campaign's bulk-damage
// stage).
//
// The schedule models the operational attrition cadence the incremental
// path exists for -- a few cables at a time, the way the paper's fabric
// accumulated its 197 cable faults over months.  (Whole-switch stages at
// paper scale disable ~70 channel directions at once and dirty every
// destination tree; the resilience campaign exercises that regime.)
//
// Machine-checked surface: delta tables bit-identical to the full
// recompute at every stage of every arm, and aggregate dirty-tree
// fractions (LFT columns changed / total over the cable stages) below 1.0
// -- incrementality saved work.  The per-stage table keeps the
// deterministic counters; wall times go to stdout only.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parx.hpp"
#include "experiments/experiments.hpp"
#include "routing/delta.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"

namespace hxsim::bench {

namespace {

const std::vector<std::string> kStageHeader{
    "fabric / engine", "stage",          "dirty frac",
    "recompute frac",  "cols total",     "cols recomputed",
    "cols changed",    "full recompute", "delta == full"};

struct Arm {
  std::string label;
  topo::Topology& topo;
  routing::RoutingEngine& engine;
  routing::LidSpace lids;
  std::span<const topo::FaultStage> extra_stages;
};

struct ArmResult {
  double dirty = 1.0;      // aggregate changed-tree fraction
  double recompute = 1.0;  // aggregate Dijkstra fraction
  bool identical = true;
};

/// Runs one arm's schedule (plus its extra stages), appending one row per
/// stage to `stages` and printing the stage's full/delta wall times.
/// Aggregates cover the scheduled cable stages only.
ArmResult run_arm(const Arm& arm, const topo::FaultSchedule::Options& opt,
                  report::ResultTable& stages) {
  topo::FaultSchedule schedule = topo::FaultSchedule::plan(arm.topo, opt);
  for (const topo::FaultStage& stage : arm.extra_stages)
    schedule.append_stage(stage);
  routing::DeltaRouter router(arm.engine);
  ArmResult out;
  std::int64_t changed = 0;
  std::int64_t recomputed = 0;
  std::int64_t total = 0;
  for (std::int32_t stage = 0; stage <= schedule.num_stages(); ++stage) {
    routing::DeltaUpdate update;
    if (stage > 0) {
      topo::FaultReport report = schedule.apply_stage(arm.topo, stage - 1);
      update.disabled = std::move(report.disabled_channels);
    }
    PhaseClock clock;
    const routing::RouteResult full = arm.engine.compute(arm.topo, arm.lids);
    const double full_ms = clock.lap() * 1e3;
    routing::DeltaStats stats;
    const routing::RouteResult& delta =
        stage == 0 ? router.reroute_full(arm.topo, arm.lids)
                   : router.reroute(arm.topo, arm.lids, update, &stats);
    const double delta_ms = clock.lap() * 1e3;
    const bool identical = delta == full;
    out.identical = out.identical && identical;
    if (stage > 0 && stage <= opt.stages) {
      changed += stats.full_recompute ? stats.columns_total
                                      : stats.columns_changed;
      recomputed += stats.columns_recomputed;
      total += stats.columns_total;
    }
    stages.add_row(
        {arm.label, std::to_string(stage),
         report::format_metric(stage == 0 ? 1.0 : stats.dirty_fraction()),
         report::format_metric(stage == 0 ? 1.0 : stats.recompute_fraction()),
         std::to_string(stats.columns_total),
         std::to_string(stats.columns_recomputed),
         std::to_string(stats.columns_changed),
         stats.full_recompute ? "yes" : "no", identical ? "yes" : "NO"});
    std::printf("%-20s stage %d: full %s ms, delta %s ms\n",
                arm.label.c_str(), stage,
                stats::format_fixed(full_ms, 2).c_str(),
                stats::format_fixed(delta_ms, 2).c_str());
  }
  schedule.revert(arm.topo);
  if (total > 0) {
    out.dirty = static_cast<double>(changed) / static_cast<double>(total);
    out.recompute =
        static_cast<double>(recomputed) / static_cast<double>(total);
  }
  return out;
}

report::ResultSet run(const report::Options& options) {
  const BenchArgs args = to_bench_args(options);
  report::ResultSet rs;
  topo::FatTree ft(workloads::system_fat_tree_params(args.quick));
  topo::HyperX hx(workloads::system_hyperx_params(args.quick));

  topo::FaultSchedule::Options opt;
  opt.stages = args.quick ? 3 : 5;
  opt.links_per_stage = args.quick ? 2 : 3;
  opt.switches_per_stage = 0;  // cable attrition
  opt.seed = args.seed;

  std::printf("== Incremental reroute savings (%d stages x %d cables, "
              "HyperX arms then a dim-0 plane cut) ==\n\n",
              opt.stages, opt.links_per_stage);
  const std::vector<std::string> header{"fabric / engine", "agg dirty frac",
                                        "agg recompute frac",
                                        "delta == full"};
  stats::TextTable table(header);
  // Filled locally and moved in at the end: rs.table() hands out
  // references into a vector the second call may reallocate.
  report::ResultTable dirty_out{"dirty", header, {}};
  report::ResultTable stages_out{"stages", kStageHeader, {}};

  const routing::LidSpace ft_lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  const routing::LidSpace hx_lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  const routing::LidSpace parx_lids = core::make_parx_lid_space(hx);
  std::vector<topo::FaultStage> plane_cut(1);
  plane_cut[0].events.push_back(topo::hyperx_plane_fault(hx, 0, 0));

  routing::FtreeEngine ft_ftree(ft);
  routing::UpDownEngine ft_updown;
  routing::SsspEngine ft_sssp;
  routing::DfssspEngine ft_dfsssp(8);
  routing::UpDownEngine hx_updown;
  routing::SsspEngine hx_sssp;
  routing::DfssspEngine hx_dfsssp(8);
  core::ParxEngine hx_parx(hx);
  std::vector<Arm> arms;
  arms.push_back({"fat-tree / ftree", ft.topo(), ft_ftree, ft_lids, {}});
  arms.push_back({"fat-tree / updown", ft.topo(), ft_updown, ft_lids, {}});
  arms.push_back({"fat-tree / sssp", ft.topo(), ft_sssp, ft_lids, {}});
  arms.push_back({"fat-tree / dfsssp", ft.topo(), ft_dfsssp, ft_lids, {}});
  arms.push_back({"hyperx / updown", hx.topo(), hx_updown, hx_lids,
                  plane_cut});
  arms.push_back({"hyperx / sssp", hx.topo(), hx_sssp, hx_lids, plane_cut});
  arms.push_back({"hyperx / dfsssp", hx.topo(), hx_dfsssp, hx_lids,
                  plane_cut});
  arms.push_back({"hyperx / parx", hx.topo(), hx_parx, parx_lids,
                  plane_cut});
  // The headline arms that carry per-arm metrics, by index into `arms`.
  const std::pair<const char*, std::size_t> metric_arms[] = {
      {"ftree", 0}, {"updown", 1}, {"hx_dfsssp", 6}};

  std::vector<ArmResult> results;
  bool all_identical = true;
  double max_dirty = 0.0;
  for (const Arm& arm : arms) {
    const ArmResult r = run_arm(arm, opt, stages_out);
    results.push_back(r);
    all_identical = all_identical && r.identical;
    max_dirty = std::max(max_dirty, r.dirty);
    const std::vector<std::string> row{
        arm.label, stats::format_fixed(r.dirty, 4),
        stats::format_fixed(r.recompute, 4), r.identical ? "yes" : "NO"};
    table.add_row(row);
    dirty_out.add_row(row);
  }
  for (const auto& [key, i] : metric_arms) {
    rs.set(std::string(key) + "_dirty_fraction", results[i].dirty);
    rs.set(std::string(key) + "_recompute_fraction", results[i].recompute);
  }
  rs.set("delta_identical", all_identical ? 1.0 : 0.0);
  rs.set("max_dirty_fraction", max_dirty);
  rs.tables.push_back(std::move(dirty_out));
  rs.tables.push_back(std::move(stages_out));
  const report::ResultTable& stage_rows = rs.tables.back();
  stats::TextTable stage_table(stage_rows.columns);
  for (const std::vector<std::string>& row : stage_rows.rows)
    stage_table.add_row(row);
  std::printf("\n%s\n%s\n", stage_table.to_string().c_str(),
              table.to_string().c_str());
  std::printf("delta tables bit-identical to full recompute: %s\n",
              all_identical ? "yes" : "NO (BUG)");
  std::printf("\nReading: `dirty frac` is columns changed / columns total "
              "-- the routing state the fault stage actually touched; "
              "`recompute frac` is the Dijkstra work the delta strategy "
              "spent (near 1.0 for the weight-evolving engines, whose "
              "columns downstream of the first dirty one must re-run); "
              "the per-stage `full` / `delta` ms lines time a "
              "from-scratch and an incremental reroute (machine-dependent; the dirty fraction "
              "is the signal to track).\n");
  return rs;
}

}  // namespace

report::Experiment reroute_dirty_experiment() {
  return {"reroute_dirty",
          "Incremental reroute dirty fractions and delta identity",
          "repo (delta-SPF contract)", run};
}

}  // namespace hxsim::bench
