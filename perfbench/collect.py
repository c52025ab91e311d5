#!/usr/bin/env python3
"""Records the benchmark baseline: perfbench/BASELINE.json.

    python3 perfbench/collect.py [--runs 10] [--first-seed 1] \
        [--workloads imb_sweep,proxy_apps,pkt_sweep] [--seconds <run_seconds>] \
        [--out perfbench/BASELINE.json]

Runs run.py --trace 0 once per seed (--runs seeds from --first-seed) on each
workload, then one --trace 1 run at the first seed.  For each end-to-end
metric it stores the median, the quartiles (statistics.quantiles, n=4) and
the spread (q3 - q1) / median, next to the machine fingerprint, the traced
run's per-layer table and the predictions of which layer metric should
move which end-to-end metric on which workload.  Prints the spreads as it
goes; exits non-zero if any run fails.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# (layer metrics, how measured, end-to-end metric they should move, workloads)
PREDICTIONS = [
    ("topo.build_s routing.ftree_s routing.sssp_s routing.dfsssp_s routing.parx_s",
     "topology constructors and RoutingEngine::compute calls", "setup_s", "all"),
    ("mpi.execute_s mpi.schedules mpi.rounds mpi.messages mpi.cell_s_max",
     "Transport::execute", "run_s, ops_per_s", "imb_sweep, proxy_apps"),
    ("mpi.route_s mpi.route_calls",
     "traced replay through Cluster::route_message", "run_s", "imb_sweep, proxy_apps"),
    ("flowsim.solve_s flowsim.solves flowsim.flows_per_solve flowsim.levels_p50 flowsim.levels_p99",
     "traced replay through FlowSim::fair_rates with a FlowSolveTrace",
     "run_s", "imb_sweep, proxy_apps"),
    ("mpi.self_s", "execute - route - solve (per-round hash maps, path copies)",
     "run_s", "imb_sweep, proxy_apps"),
    ("mpi.distinct_round_frac routing.distinct_path_frac",
     "exact full-key sets in the replay; bound the share of solves and walks a "
     "round memo or path table can skip", "run_s, ops_per_s; the memo or table "
     "itself shows in peak_rss_mb", "imb_sweep, proxy_apps"),
    ("pktsim.events pktsim.packets pktsim.ns_per_event pktsim.events_per_s "
     "pktsim.arm_s.dfsssp pktsim.arm_s.dal pktsim.arm_s.ftree",
     "run_pkt_sweep per arm", "run_s, ops_per_s", "pkt_sweep only"),
    ("exec.threads exec.cpu_util exec.speedup",
     "getrusage and a 1-thread traced pass", "run_s: the benchmark already fans "
     "MPI cells and packet replications over nproc workers, so only a change "
     "that cuts per-call allocation or contention (cpu_util below 1) should "
     "move it", "all"),
    ("(any MPI or flow-solver change)", "pkt_sweep bypasses mpi and FlowSim",
     "no move", "pkt_sweep"),
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    fp = next((json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("fingerprint ")), {})
    return json.loads(lines[-1]), fp


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "n": len(values), "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in BENCHMARK["workloads"]))
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--no-trace", action="store_true")
    ap.add_argument("--out", default=str(BENCH_DIR / "BASELINE.json"))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}

    baseline = {"runs_per_workload": args.runs, "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                "run_seconds": args.seconds, "workloads": {}, "predictions": [
                    {"layer_metrics": a, "measured": b, "moves": c, "workloads": d}
                    for a, b, c, d in PREDICTIONS]}
    for workload in args.workloads.split(","):
        values = {}
        for i in range(args.runs):
            result, fp = run(workload, args.first_seed + i, args.seconds, 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            baseline.setdefault("fingerprint", fp)
        entry = {"end_to_end": {name: summary(v) for name, v in values.items()}}
        for name, s in entry["end_to_end"].items():
            print("%-11s %-12s median %-12.6g spread %.4f (bound %s)"
                  % (workload, name, s["median"], s["spread"], bounds.get(name)), flush=True)
        if not args.no_trace:
            traced, _ = run(workload, args.first_seed, args.seconds, 1)
            entry["per_layer_seed%d" % args.first_seed] = {
                name: m["value"] for name, m in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    pathlib.Path(args.out).write_text(json.dumps(baseline, indent=1) + "\n")


if __name__ == "__main__":
    main()
