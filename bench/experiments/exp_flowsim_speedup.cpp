// Repo-level experiment: the max-min flow solver's two fillers and the
// solve that picks between them, as claims.
//
// FlowSim::solve_active runs the linear rescan under
// FlowSim::kRescanLevelBudget filling levels and restarts on the indexed
// filler when the budget runs out.  This experiment times both named
// fillers and the selecting solve, single thread, on two regimes of the
// paper fabrics:
//  - few-level sets, the shapes the figures solve (mpiGraph shifts,
//    uniform permutations, eBB bisections): they must stay under the
//    budget, where the rescan's branch-predictable sweep wins;
//  - merged overlays of several permutations, the congested regime with
//    hundreds of distinct levels: at full scale they must cross the
//    budget, and there the indexed filler must be at or above the
//    rescan's throughput (wall-clock; understated on a single-core box).
// Every rate vector and FlowSolveRecord of the three solves must be
// bitwise identical at any scale, and solve_batch must return the same
// rates at 1 and N threads.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "exec/exec.hpp"
#include "experiments/experiments.hpp"
#include "experiments/flow_workloads.hpp"
#include "obs/flow_trace.hpp"
#include "sim/flowsim.hpp"
#include "stats/table.hpp"
#include "stats/units.hpp"

namespace hxsim::bench {

namespace {

bool rates_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool records_equal(const obs::FlowSolveRecord& a,
                   const obs::FlowSolveRecord& b) {
  return a.active_flows == b.active_flows &&
         a.levels.size() == b.levels.size() &&
         (a.levels.empty() ||
          std::memcmp(a.levels.data(), b.levels.data(),
                      a.levels.size() * sizeof(double)) == 0) &&
         a.freezes_per_level == b.freezes_per_level &&
         a.saturated == b.saturated;
}

/// solve_active, solve_rescan and solve_indexed share this signature.
using Solve = void (sim::FlowSim::*)(std::span<const sim::Flow>,
                                     std::span<const char>, std::span<double>,
                                     sim::FlowSim::SolveScratch&,
                                     obs::FlowSolveRecord*) const;

struct SolveTiming {
  double seconds = 0.0;
  double freezes_per_sec = 0.0;
  std::vector<std::vector<double>> rates;
  std::vector<obs::FlowSolveRecord> records;  // the traced warm-up solves
};

/// Times `reps` warm passes of `solve` over all `sets` on one caller-owned
/// scratch; a traced untimed pass first warms the scratch and records
/// each set's FlowSolveRecord.
SolveTiming time_solve(const sim::FlowSim& solver, Solve solve,
                       const std::vector<std::vector<sim::Flow>>& sets,
                       std::int32_t reps) {
  sim::FlowSim::SolveScratch scratch;
  SolveTiming t;
  std::int64_t freezes = 0;
  t.rates.resize(sets.size());
  t.records.resize(sets.size());
  std::vector<std::vector<char>> active(sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    active[i].assign(sets[i].size(), 1);
    t.rates[i].assign(sets[i].size(), 0.0);
    (solver.*solve)(sets[i], active[i], t.rates[i], scratch, &t.records[i]);
    freezes += static_cast<std::int64_t>(sets[i].size());
  }
  PhaseClock clock;
  for (std::int32_t r = 0; r < reps; ++r)
    for (std::size_t i = 0; i < sets.size(); ++i)
      (solver.*solve)(sets[i], active[i], t.rates[i], scratch, nullptr);
  t.seconds = clock.lap() / reps;
  if (t.seconds > 0.0)
    t.freezes_per_sec = static_cast<double>(freezes) / t.seconds;
  return t;
}

struct Phase {
  const char* key;
  const char* label;
  bool merged;  // congested regime: expected over the level budget
  const topo::Topology* topo;
  std::vector<std::vector<sim::Flow>> sets;
};

report::ResultSet run(const report::Options& options) {
  const BenchArgs args = to_bench_args(options);
  report::ResultSet rs;
  const std::int32_t reps = args.quick ? 2 : std::max(args.reps, 3);
  const std::int32_t batch_threads = std::max(2, exec::default_threads());

  const FlowFabric hx = flow_hyperx_fabric(args.quick);
  const FlowFabric ft = flow_fat_tree_fabric(args.quick);
  stats::Rng rng(args.seed);
  const std::int32_t samples = args.quick ? 2 : 4;

  std::vector<Phase> phases;
  {
    Phase p{"hx_merged", "hyperx merged perms x8", true, hx.topo, {}};
    for (std::int32_t s = 0; s < samples / 2 + 1; ++s)
      p.sets.push_back(merged_permutations_set(hx, rng, 8));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"hx_merged_ebb", "hyperx merged eBB x8", true, hx.topo, {}};
    std::vector<sim::Flow> merged;
    for (std::int32_t s = 0; s < 8; ++s) {
      std::vector<sim::Flow> one = ebb_flow_set(hx, rng);
      for (auto& flow : one) merged.push_back(std::move(flow));
    }
    p.sets.push_back(std::move(merged));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"ft_merged", "ftree merged perms x8", true, ft.topo, {}};
    for (std::int32_t s = 0; s < samples / 2 + 1; ++s)
      p.sets.push_back(merged_permutations_set(ft, rng, 8));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"hx_shift", "hyperx mpiGraph shifts", false, hx.topo, {}};
    for (const std::int32_t r : {1, 7, hx.topo->num_terminals() / 2})
      p.sets.push_back(shift_flow_set(hx, r));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"hx_uniform", "hyperx uniform perms", false, hx.topo, {}};
    for (std::int32_t s = 0; s < samples; ++s)
      p.sets.push_back(uniform_flow_set(hx, rng));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"hx_ebb", "hyperx eBB", false, hx.topo, {}};
    for (std::int32_t s = 0; s < samples; ++s)
      p.sets.push_back(ebb_flow_set(hx, rng));
    phases.push_back(std::move(p));
  }
  {
    Phase p{"ft_uniform", "ftree uniform perms", false, ft.topo, {}};
    for (std::int32_t s = 0; s < samples; ++s)
      p.sets.push_back(uniform_flow_set(ft, rng));
    phases.push_back(std::move(p));
  }

  std::printf("== Max-min fillers and the selecting solve (single thread, "
              "%d reps, rescan level budget %d) ==\n\n",
              reps, sim::FlowSim::kRescanLevelBudget);
  const std::vector<std::string> columns{
      "workload",     "flows",         "levels",      "filler",
      "rescan Mfz/s", "indexed Mfz/s", "solve Mfz/s", "indexed speedup",
      "bit-identical"};
  stats::TextTable table(columns);
  report::ResultTable& out = rs.table("speedup", columns);
  bool all_identical = true;
  bool batch_identical = true;
  double min_speedup = 0.0;
  std::int32_t few_level_max = 0;
  std::int32_t merged_min = 0;
  for (const Phase& phase : phases) {
    const sim::FlowSim solver(*phase.topo);
    const SolveTiming rescan =
        time_solve(solver, &sim::FlowSim::solve_rescan, phase.sets, reps);
    const SolveTiming indexed =
        time_solve(solver, &sim::FlowSim::solve_indexed, phase.sets, reps);
    const SolveTiming selecting =
        time_solve(solver, &sim::FlowSim::solve_active, phase.sets, reps);
    const auto batch1 = solver.solve_batch(phase.sets, 1);
    const auto batch_n = solver.solve_batch(phase.sets, batch_threads);

    bool identical = true;
    std::int64_t flows = 0;
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    for (std::size_t i = 0; i < phase.sets.size(); ++i) {
      flows += static_cast<std::int64_t>(phase.sets[i].size());
      identical = identical &&
                  rates_equal(rescan.rates[i], indexed.rates[i]) &&
                  rates_equal(rescan.rates[i], selecting.rates[i]) &&
                  records_equal(rescan.records[i], indexed.records[i]) &&
                  records_equal(rescan.records[i], selecting.records[i]);
      batch_identical = batch_identical &&
                        rates_equal(selecting.rates[i], batch1[i]) &&
                        rates_equal(batch1[i], batch_n[i]);
      const std::int32_t levels = rescan.records[i].num_levels();
      lo = i == 0 ? levels : std::min(lo, levels);
      hi = std::max(hi, levels);
    }
    all_identical = all_identical && identical;
    const double speedup =
        indexed.seconds > 0.0 ? rescan.seconds / indexed.seconds : 0.0;
    if (phase.merged) {
      min_speedup = min_speedup > 0.0 ? std::min(min_speedup, speedup)
                                      : speedup;
      merged_min = merged_min > 0 ? std::min(merged_min, lo) : lo;
      rs.set(std::string(phase.key) + "_speedup", speedup);
      rs.set(std::string(phase.key) + "_indexed_freezes_per_sec",
             indexed.freezes_per_sec);
    } else {
      few_level_max = std::max(few_level_max, hi);
    }
    const auto budget = sim::FlowSim::kRescanLevelBudget;
    // The filler the selecting solve finishes on.
    const char* filler = hi <= budget  ? "rescan"
                         : lo > budget ? "indexed"
                                       : "both";
    const std::vector<std::string> row{
        phase.label,
        std::to_string(flows),
        lo == hi ? std::to_string(lo)
                 : std::to_string(lo) + "-" + std::to_string(hi),
        filler,
        stats::format_fixed(rescan.freezes_per_sec / 1e6, 2),
        stats::format_fixed(indexed.freezes_per_sec / 1e6, 2),
        stats::format_fixed(selecting.freezes_per_sec / 1e6, 2),
        stats::format_fixed(speedup, 2) + "x",
        identical ? "yes" : "NO"};
    table.add_row(row);
    out.add_row(row);
  }
  rs.set("indexed_min_speedup", min_speedup);
  rs.set("indexed_identical", all_identical ? 1.0 : 0.0);
  rs.set("batch_identical", batch_identical ? 1.0 : 0.0);
  rs.set("few_level_max_levels", few_level_max);
  rs.set("merged_min_levels", merged_min);
  rs.set("few_level_under_budget",
         few_level_max <= sim::FlowSim::kRescanLevelBudget ? 1.0 : 0.0);
  rs.set("merged_over_budget",
         merged_min > sim::FlowSim::kRescanLevelBudget ? 1.0 : 0.0);
  std::printf("%s\n", table.to_string().c_str());
  std::printf("selecting solve, rescan and indexed fillers bit-identical: "
              "%s\n",
              all_identical ? "yes" : "NO (BUG)");
  std::printf("solve_batch 1 vs %d threads bit-identical: %s\n",
              batch_threads, batch_identical ? "yes" : "NO (BUG)");
  return rs;
}

}  // namespace

report::Experiment flowsim_speedup_experiment() {
  return {"flowsim_speedup",
          "Max-min fillers: rescan vs indexed, the level-budget selection "
          "and bitwise identity",
          "repo (flow-solver contract)", run};
}

}  // namespace hxsim::bench
