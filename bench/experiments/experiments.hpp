// Registry of the paper-figure experiments (bench/experiments/exp_*.cpp).
//
// Each figure/table bench's measurement core lives here as a registered
// report::Experiment; the bench binary itself is a thin main() that runs
// its experiment through run_experiment_main(), and bench/repro_pipeline
// runs all of them in one process, folds the ResultSets into REPRO.json,
// checks the committed claims/ tables and regenerates EXPERIMENTS.md.
//
// Experiments print the same human-readable stdout the standalone benches
// always did *and* fill a structured ResultSet (metrics the claims bind
// to, tables the renderer embeds in the docs).
#pragma once

#include "bench_common.hpp"
#include "report/experiment.hpp"

namespace hxsim::bench {

/// BenchArgs view of the pipeline options, so extracted bench bodies keep
/// their `args.*` spelling and the bench:: helpers (place, reps_for,
/// CsvSink, write_trace) unchanged.  Applies Options.threads to the exec
/// layer, exactly as BenchArgs::parse does.
[[nodiscard]] BenchArgs to_bench_args(const report::Options& options);

/// Inverse adapter for the thin bench mains.
[[nodiscard]] report::Options to_options(const BenchArgs& args);

/// One lazily built PaperSystem per scale, shared by every experiment in
/// the process (building the 972-switch tree's routings costs seconds;
/// the pipeline would otherwise pay it 10+ times).
[[nodiscard]] const workloads::PaperSystem& shared_system(bool small_scale);

// One factory per experiment; ids equal the bench binary names.
report::Experiment fig1_mpigraph_experiment();
report::Experiment table1_rules_experiment();
report::Experiment fig4_collectives_experiment();
report::Experiment fig5a_baidu_allreduce_experiment();
report::Experiment fig5b_barrier_experiment();
report::Experiment fig5c_ebb_experiment();
report::Experiment fig6_apps_experiment();
report::Experiment fig6_x500_experiment();
report::Experiment fig7_capacity_experiment();
report::Experiment threshold_calibration_experiment();
report::Experiment topology_properties_experiment();
report::Experiment ablation_parx_experiment();
report::Experiment adaptive_routing_experiment();
report::Experiment uniform_random_throughput_experiment();
report::Experiment topology_comparison_experiment();
report::Experiment taper_study_experiment();
// Repo-level experiments (claims about this implementation, not the
// paper): incremental-reroute savings, typed packet-engine speedup,
// indexed flow-solver speedup and the online-fault contract.
report::Experiment reroute_dirty_experiment();
report::Experiment pktsim_speedup_experiment();
report::Experiment flowsim_speedup_experiment();
report::Experiment online_resilience_experiment();
// The degraded-fabric campaign (§2.3 / footnote 7 generalised).
report::Experiment resilience_campaign_experiment();

/// Registers every experiment above.
void register_all_experiments(report::Registry& registry);

/// Process-wide registry, populated once on first use.
[[nodiscard]] report::Registry& global_registry();

/// Thin-main entry point: parses the standard bench CLI, runs `id` from
/// the global registry (stdout output unchanged from the pre-registry
/// binaries), discards the ResultSet.  Returns the process exit code.
int run_experiment_main(const char* id, int argc, char** argv);

}  // namespace hxsim::bench
