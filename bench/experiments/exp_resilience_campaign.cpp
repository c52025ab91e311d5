// Degraded-fabric resilience campaign (paper §2.3 and footnote 7
// generalised): both paper planes are degraded in seeded stages -- random
// cable faults, whole-switch failures, and a final HyperX plane fault --
// and after every stage each routing engine is re-run, its tables are
// audited (per-VL CDG acyclicity, all-pairs path census) and delivered
// throughput is measured on uniform-random traffic with the max-min flow
// solver.  Full mode additionally sweeps the HyperX/DFSSSP combination over
// the mpiGraph-shift and eBB-bisection patterns.
//
// The per-(fabric, engine, stage) series is the `series` table; `summary`
// condenses it per engine for the docs.  The claims bind to the two
// properties the campaign exists to guarantee: every retention envelope is
// monotone, and DFSSSP's CDG stays acyclic at every fault rate.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/parx.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "routing/sssp.hpp"
#include "routing/updown.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/fault_injector.hpp"
#include "topo/hyperx.hpp"
#include "workloads/resilience.hpp"

namespace hxsim::bench {

namespace {

const std::vector<std::string> kSeriesHeader{
    "fabric / engine", "stage", "cables", "switches", "reach",
    "lost pairs", "hops", "inflation", "throughput", "retention", "CDG",
    "VLs"};

/// Appends every sample to `out` (full precision) and prints them.
void record_series(const obs::DegradationSeries& series,
                   report::ResultTable& out) {
  stats::TextTable table(kSeriesHeader);
  for (const obs::DegradationSample& s : series.samples()) {
    const std::vector<std::string> row{
        s.fabric + " / " + s.engine,
        std::to_string(s.stage),
        std::to_string(s.cables_failed),
        std::to_string(s.switches_failed),
        report::format_metric(s.reachability),
        std::to_string(s.lost_pairs),
        report::format_metric(s.mean_switch_hops),
        report::format_metric(s.hop_inflation),
        report::format_metric(s.throughput),
        report::format_metric(s.retention),
        s.engine_failed ? "fail" : (s.cdg_acyclic ? "acyclic" : "CYCLE"),
        std::to_string(s.vls_used)};
    table.add_row(row);
    out.add_row(row);
  }
  std::printf("%s", table.to_string().c_str());
}

/// One row per engine: intact and post-schedule throughput, the retention
/// envelope after the scheduled stages and after any appended extra stage,
/// the final reachability and the CDG verdict over every stage.
void summarize(const obs::DegradationSeries& series,
               std::int32_t scheduled_stages, report::ResultTable& out) {
  std::vector<std::string> engines;
  for (const obs::DegradationSample& s : series.samples())
    if (s.stage == 0) engines.push_back(s.engine);
  for (const std::string& engine : engines) {
    const obs::DegradationSample* intact = nullptr;
    const obs::DegradationSample* scheduled = nullptr;
    const obs::DegradationSample* last = nullptr;
    bool acyclic = true;
    std::int32_t vls = 0;
    for (const obs::DegradationSample& s : series.samples()) {
      if (s.engine != engine) continue;
      if (s.stage == 0) intact = &s;
      if (s.stage == scheduled_stages) scheduled = &s;
      last = &s;
      acyclic = acyclic && s.cdg_acyclic && !s.engine_failed;
      vls = std::max(vls, s.vls_used);
    }
    out.add_row({last->fabric + " / " + engine,
                 stats::format_fixed(intact->throughput, 3),
                 stats::format_fixed(scheduled->throughput, 3),
                 stats::format_fixed(scheduled->retention, 3),
                 last->stage > scheduled_stages
                     ? stats::format_fixed(last->retention, 3)
                     : "-",
                 stats::format_fixed(last->reachability, 4),
                 acyclic ? "acyclic" : "CYCLE", std::to_string(vls)});
  }
}

report::ResultSet run(const report::Options& options) {
  const BenchArgs args = to_bench_args(options);
  const bool quick = args.quick;
  report::ResultSet rs;

  topo::FatTree ft(workloads::system_fat_tree_params(quick));
  topo::HyperX hx(workloads::system_hyperx_params(quick));

  workloads::ResilienceOptions opt;
  opt.schedule.stages = quick ? 3 : 5;
  opt.schedule.switches_per_stage = 1;
  opt.schedule.seed = args.seed;
  opt.traffic_samples = quick ? 4 : 8;
  opt.traffic_seed = args.seed;
  opt.threads = args.threads;

  // Filled locally and moved in at the end: rs.table() hands out
  // references into a vector the second call may reallocate.
  report::ResultTable series_out{"series", kSeriesHeader, {}};
  report::ResultTable summary_out{
      "summary",
      {"fabric / engine", "intact thr.", "faulted thr.", "retention",
       "+ plane cut", "reach", "CDG", "VLs"},
      {}};
  bool monotone = true;
  bool dfsssp_safe = true;
  const auto record = [&](const obs::DegradationSeries& series) {
    record_series(series, series_out);
    summarize(series, opt.schedule.stages, summary_out);
    monotone = monotone && series.retention_monotone();
  };

  // --- fat-tree plane: the paper lost 197 of its 2662 tree links ---------
  {
    workloads::ResilienceOptions ft_opt = opt;
    ft_opt.schedule.links_per_stage = quick ? 4 : 40;  // ~paper scale overall
    const routing::LidSpace lids =
        routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
    routing::FtreeEngine ftree(ft);
    routing::UpDownEngine updown;
    routing::SsspEngine sssp;
    routing::DfssspEngine dfsssp(8);
    std::vector<workloads::ResilienceEngine> engines;
    engines.push_back({"ftree", &ftree, lids});
    engines.push_back({"updown", &updown, lids});
    engines.push_back({"sssp", &sssp, lids});
    engines.push_back({"dfsssp", &dfsssp, lids});

    std::printf("== %s: %d stages x (%d links + %d switch) per stage ==\n",
                ft.topo().name().c_str(), ft_opt.schedule.stages,
                ft_opt.schedule.links_per_stage,
                ft_opt.schedule.switches_per_stage);
    const auto series = workloads::run_resilience_campaign(
        ft.topo(), ft.topo().name(), engines, ft_opt);
    record(series);
    dfsssp_safe = dfsssp_safe && series.all_acyclic("dfsssp");
  }

  // --- HyperX plane: random cables + switches, then a whole plane fault --
  {
    workloads::ResilienceOptions hx_opt = opt;
    hx_opt.schedule.links_per_stage = quick ? 2 : 5;  // 15 = paper count
    const routing::LidSpace lids =
        routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
    routing::UpDownEngine updown;
    routing::SsspEngine sssp;
    routing::DfssspEngine dfsssp(8);
    const routing::LidSpace parx_lids = core::make_parx_lid_space(hx);
    core::ParxEngine parx(hx);
    std::vector<workloads::ResilienceEngine> engines;
    engines.push_back({"updown", &updown, lids});
    engines.push_back({"sssp", &sssp, lids});
    engines.push_back({"dfsssp", &dfsssp, lids});
    engines.push_back({"parx", &parx, parx_lids});

    // Final stage: one lattice column loses its entire row cabling (a cut
    // AOC bundle).  In 2-D that isolates the column -- its terminals become
    // footnote-7 lost LIDs and reachability drops by ~1/S_1.
    std::vector<topo::FaultStage> extra(1);
    extra[0].events.push_back(topo::hyperx_plane_fault(hx, 0, 0));

    std::printf("\n== %s: %d stages x (%d links + %d switch), then plane "
                "fault dim 0 coord 0 ==\n",
                hx.topo().name().c_str(), hx_opt.schedule.stages,
                hx_opt.schedule.links_per_stage,
                hx_opt.schedule.switches_per_stage);
    const auto series = workloads::run_resilience_campaign(
        hx.topo(), hx.topo().name(), engines, hx_opt, extra);
    record(series);
    dfsssp_safe = dfsssp_safe && series.all_acyclic("dfsssp");
  }

  // --- full mode: HyperX/DFSSSP across the other two traffic patterns ----
  if (!quick) {
    const routing::LidSpace lids =
        routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
    for (const auto traffic : {workloads::ResilienceTraffic::kMpiGraphShift,
                               workloads::ResilienceTraffic::kEbbBisection}) {
      workloads::ResilienceOptions t_opt = opt;
      t_opt.schedule.links_per_stage = 5;
      t_opt.traffic = traffic;
      routing::DfssspEngine dfsssp(8);
      std::vector<workloads::ResilienceEngine> engines;
      engines.push_back(
          {std::string("dfsssp-") + workloads::to_string(traffic), &dfsssp,
           lids});
      std::printf("\n== %s traffic, HyperX/DFSSSP ==\n",
                  workloads::to_string(traffic));
      record(workloads::run_resilience_campaign(hx.topo(), hx.topo().name(),
                                                engines, t_opt));
    }
  }

  stats::TextTable summary(summary_out.columns);
  for (const std::vector<std::string>& row : summary_out.rows)
    summary.add_row(row);
  std::printf("\n%s", summary.to_string().c_str());
  rs.tables.push_back(std::move(series_out));
  rs.tables.push_back(std::move(summary_out));
  rs.set("retention_monotone", monotone ? 1.0 : 0.0);
  rs.set("dfsssp_acyclic", dfsssp_safe ? 1.0 : 0.0);
  std::printf("\nretention envelopes monotone: %s\n",
              monotone ? "yes" : "NO (BUG)");
  std::printf("DFSSSP deadlock-free at every fault rate: %s\n",
              dfsssp_safe ? "yes" : "NO (BUG)");
  std::printf("\nReading: `retention` is the worst-so-far fraction of the "
              "intact fabric's delivered bandwidth (operator guarantee); "
              "`reach` < 1 is footnote 7's lost-LID effect; SSSP showing "
              "CYCLE on the HyperX is why DFSSSP exists.\n");
  return rs;
}

}  // namespace

report::Experiment resilience_campaign_experiment() {
  return {"resilience_campaign",
          "Degraded-fabric campaign: reachability, retention and CDG audit "
          "per fault stage",
          "SS2.3 / footnote 7", run};
}

}  // namespace hxsim::bench
