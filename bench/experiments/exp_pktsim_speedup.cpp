// Repo-level experiment: the typed packet engine, as claims.  The audit
// library's reference engine vs the typed engine on the shift workloads of
// both fabrics, the congested hotspot regime the rewrite targets, and DAL
// adaptive routing on uniform traffic; every typed result must be bitwise
// identical to the reference, the committed claims gate the single-thread
// speedup staying at or above parity, and run_batch must return the same
// results at 1 and N threads.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "audit/oracles.hpp"
#include "audit/reference_pktsim.hpp"
#include "exec/exec.hpp"
#include "experiments/experiments.hpp"
#include "routing/dfsssp.hpp"
#include "routing/ftree.hpp"
#include "sim/adaptive.hpp"
#include "sim/pktsim.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"
#include "topo/fat_tree.hpp"
#include "topo/hyperx.hpp"
#include "workloads/pkt_sweep.hpp"

namespace hxsim::bench {

namespace {

struct EngineTiming {
  double seconds = 0.0;
  double events_per_sec = 0.0;
  sim::PktSim::Result result;
};

/// Times `reps` calls of `run_once` after one warm-up call; the last result
/// is kept for the identity check.
template <typename Run>
EngineTiming time_engine(std::int32_t reps, Run run_once) {
  (void)run_once();  // warm-up: sizes scratch, touches pages
  EngineTiming t;
  PhaseClock clock;
  for (std::int32_t r = 0; r < reps; ++r) t.result = run_once();
  t.seconds = clock.lap() / reps;
  if (t.seconds > 0.0)
    t.events_per_sec =
        static_cast<double>(t.result.events_executed) / t.seconds;
  return t;
}

report::ResultSet run(const report::Options& options) {
  const BenchArgs args = to_bench_args(options);
  report::ResultSet rs;
  const std::int32_t reps = args.quick ? 2 : std::max(args.reps, 1);

  const topo::HyperX hx(args.quick ? topo::small_hyperx_params()
                                   : topo::paper_hyperx_params());
  const auto hx_lids =
      routing::LidSpace::consecutive(hx.topo().num_terminals(), 0);
  routing::DfssspEngine dfsssp(8);
  const auto hx_route = dfsssp.compute(hx.topo(), hx_lids);
  const sim::DalRouter dal(hx);

  const topo::FatTree ft(args.quick ? topo::small_fat_tree_params()
                                    : topo::paper_fat_tree_params());
  const auto ft_lids =
      routing::LidSpace::consecutive(ft.topo().num_terminals(), 0);
  routing::FtreeEngine ftree(ft);
  const auto ft_route = ftree.compute(ft.topo(), ft_lids);

  const std::int64_t bytes = args.quick ? 16 * 1024 : 64 * 1024;
  const workloads::PktRoutingArm hx_static{"dfsssp", &hx_route, &hx_lids,
                                           nullptr};
  const workloads::PktRoutingArm ft_static{"ftree", &ft_route, &ft_lids,
                                           nullptr};
  const workloads::PktRoutingArm hx_dal{"dal", nullptr, nullptr, &dal};

  workloads::PktPatternSpec shift;
  shift.pattern = workloads::PktPattern::kShift;
  shift.shift = 1;
  shift.bytes = bytes;
  workloads::PktPatternSpec hotspot;
  hotspot.pattern = workloads::PktPattern::kHotspot;
  hotspot.messages = args.quick ? 64 : 256;
  hotspot.bytes = bytes;
  workloads::PktPatternSpec uniform;
  uniform.pattern = workloads::PktPattern::kUniformRandom;
  uniform.messages = args.quick ? 128 : 512;
  uniform.bytes = bytes;

  struct Phase {
    const char* key;
    const char* label;
    const topo::Topology& topo;
    const workloads::PktRoutingArm& arm;
    const workloads::PktPatternSpec& spec;
  };
  // The DAL row is the only adaptive one: per-hop candidate choice is
  // where the two engines' tie-breaks must agree.
  const std::vector<Phase> phases{
      {"hx_shift", "hyperx dfsssp shift", hx.topo(), hx_static, shift},
      {"ft_shift", "ftree shift", ft.topo(), ft_static, shift},
      {"hx_hotspot", "hyperx dfsssp hotspot", hx.topo(), hx_static,
       hotspot},
      {"hx_dal_uniform", "hyperx dal uniform", hx.topo(), hx_dal, uniform},
  };

  std::printf("== Typed vs reference packet engine (single thread, %d reps) "
              "==\n\n", reps);
  stats::TextTable table({"workload", "events", "ref Mev/s", "typed Mev/s",
                          "speedup", "bit-identical"});
  report::ResultTable& out =
      rs.table("speedup", {"workload", "events", "ref Mev/s", "typed Mev/s",
                           "speedup", "bit-identical"});
  bool all_identical = true;
  double min_speedup = 0.0;
  for (const Phase& phase : phases) {
    const auto msgs =
        build_pkt_messages(phase.topo, phase.arm, phase.spec, args.seed);
    sim::PktSimConfig cfg;
    cfg.adaptive = phase.arm.adaptive;
    const EngineTiming ref = time_engine(
        reps, [&] { return audit::reference_run(phase.topo, cfg, msgs); });
    sim::PktSim typed_sim(phase.topo, cfg);
    const EngineTiming typed =
        time_engine(reps, [&] { return typed_sim.run(msgs); });
    const bool identical =
        audit::check_pkt_results_equal(ref.result, typed.result).pass &&
        !ref.result.deadlock && !ref.result.truncated;
    all_identical = all_identical && identical;
    const double speedup =
        typed.seconds > 0.0 ? ref.seconds / typed.seconds : 0.0;
    min_speedup = min_speedup > 0.0 ? std::min(min_speedup, speedup)
                                    : speedup;
    const std::vector<std::string> row{
        phase.label,
        std::to_string(typed.result.events_executed),
        stats::format_fixed(ref.events_per_sec / 1e6, 2),
        stats::format_fixed(typed.events_per_sec / 1e6, 2),
        stats::format_fixed(speedup, 2) + "x",
        identical ? "yes" : "NO"};
    table.add_row(row);
    out.add_row(row);
    rs.set(std::string(phase.key) + "_speedup", speedup);
    rs.set(std::string(phase.key) + "_typed_events_per_sec",
           typed.events_per_sec);
  }
  rs.set("typed_min_speedup", min_speedup);
  rs.set("typed_identical", all_identical ? 1.0 : 0.0);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("typed engine bit-identical to reference: %s\n",
              all_identical ? "yes" : "NO (BUG)");

  // Replication: run_batch of seeded DAL uniform sets at 1 and N workers
  // must return bitwise the same Results.
  std::vector<std::vector<sim::PktMessage>> replications;
  for (std::uint64_t seed = 1; seed <= (args.quick ? 8u : 16u); ++seed)
    replications.push_back(
        build_pkt_messages(hx.topo(), hx_dal, uniform, seed));
  sim::PktSimConfig dal_cfg;
  dal_cfg.adaptive = &dal;
  sim::PktSim batch_sim(hx.topo(), dal_cfg);
  const std::int32_t batch_threads = std::max(2, exec::default_threads());
  const bool batch_identical =
      audit::check_pkt_batches_equal(batch_sim.run_batch(replications, 1),
                                     batch_sim.run_batch(replications,
                                                         batch_threads))
          .pass;
  rs.set("batch_identical", batch_identical ? 1.0 : 0.0);
  std::printf("run_batch 1 vs %d threads bit-identical: %s\n", batch_threads,
              batch_identical ? "yes" : "NO (BUG)");
  return rs;
}

}  // namespace

report::Experiment pktsim_speedup_experiment() {
  return {"pktsim_speedup",
          "Typed packet engine speedup and bitwise identity vs reference",
          "repo (typed-engine contract)", run};
}

}  // namespace hxsim::bench
