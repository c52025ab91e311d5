#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload imb_sweep|proxy_apps|pkt_sweep \
        --seed <n> --seconds <s> --trace 0|1

Run it from the repository root.  It builds the hxsim libraries and the
hxbench measuring binary from source (Release, into $CARGO_TARGET_DIR or
.bench_build), runs the workload in a fresh process, checks the simulated
outputs and prints each metric by name and unit.  The last stdout line is
one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and a
traced process and reports the per-layer metrics.  The exit code is 0 only
when every operation succeeded and every digest matched.  A fingerprint of
the machine and the full hxbench output are written to
<build dir>/records/.  README.md in this directory explains the workloads.
"""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
EXPECTED = BENCH_DIR / "expected.json"
RUN_TIMEOUT_S = 170

# Workloads, metric names and units, in print order, as BENCHMARK.json
# declares them.
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(bdir):
    """Configures and builds hxbench (incrementally); returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(bdir), "--target", "hxbench", "-j", jobs]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build failed: " + " ".join(cmd))
    return bdir / "hxbench"


def hxbench(binary, args):
    """Runs one hxbench process; returns (parsed last line, wall seconds)."""
    t0 = time.monotonic()
    proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    if proc.stderr:
        log(proc.stderr.rstrip())
    if proc.returncode != 0:
        raise RuntimeError("hxbench exited with %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def source_digest():
    """sha256 over the library sources and the benchmark's own files."""
    h = hashlib.sha256()
    for base in (BENCH_DIR.parent / "src", BENCH_DIR):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py", ".json"):
                h.update(str(p.relative_to(BENCH_DIR.parent)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR.parent,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(result, load_avg):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "hardware_threads": result["hardware_threads"],
        "cpu_model": cpu_model(),
        "compiler": result["compiler"],
        "build_type": result["build_type"],
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "load_avg_start": load_avg,
        "probe_start_s": result["probe_start_s"],
        "probe_end_s": result["probe_end_s"],
    }


def check(workload, seed, result, expected, problems):
    """Appends every correctness failure of one hxbench result; returns how
    many of its operations failed.  A digest that differs from the recorded
    one fails every operation it covers."""
    failed = result["failed"]
    if failed > 0:
        problems.append("%d of %d operations failed" % (failed, result["attempted"]))
    if result["digest_mismatches"] > 0:
        problems.append("%d digest mismatches between passes or the replay"
                        % result["digest_mismatches"])
    want = expected.get(workload, {})
    if "fabric_digest" in want and result["fabric_digest"] != want["fabric_digest"]:
        problems.append("fabric digest %s != recorded %s"
                        % (result["fabric_digest"], want["fabric_digest"]))
        failed = result["attempted"]
    if seed == expected.get("default_seed") and "result_digest" in want \
            and result["digest"] != want["result_digest"]:
        problems.append("result digest %s != recorded %s for seed %d"
                        % (result["digest"], want["result_digest"], seed))
        failed = result["attempted"]
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", default=str(EXPECTED),
                    help="recorded digests to check against")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    load_avg = list(os.getloadavg())
    bdir = build_dir()
    binary = build(bdir)
    expected = json.loads(pathlib.Path(args.expected).read_text())
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    problems = []
    if args.trace == 0:
        result, _ = hxbench(binary, common + ["--seconds", str(args.seconds)])
        failed = check(args.workload, args.seed, result, expected, problems)
        metrics = {name: result[name] for name in END_TO_END}
        units = END_TO_END
        attempted = result["attempted"]
    else:
        # Untraced and traced process on the same inputs; their digests
        # must agree and their wall-time difference is the tracing overhead.
        once = ["--setup-reps", "1"]
        plain, plain_wall = hxbench(binary, common + once + ["--seconds", "0", "--passes", "1"])
        result, traced_wall = hxbench(binary, common + once + ["--traced"])
        failed = check(args.workload, args.seed, plain, expected, problems)
        traced_failed = check(args.workload, args.seed, result, expected, problems)
        if plain["digest"] != result["digest"]:
            problems.append("traced digest %s != untraced %s" % (result["digest"], plain["digest"]))
            traced_failed = result["attempted"]
        failed += traced_failed
        layers = result["layers"]
        layers["trace.overhead_s"] = traced_wall - plain_wall
        layers["host.probe_s"] = result["probe_start_s"]
        metrics = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
        attempted = plain["attempted"] + result["attempted"]

    fp = fingerprint(result, load_avg)
    correct = not problems
    for p in problems:
        print("FAIL %s: %s" % (args.workload, p))
    print("fingerprint %s" % json.dumps(fp, sort_keys=True))
    print("%-28s %s" % ("result_digest", result["digest"]))
    print("%-28s %.6g" % ("failed_frac", failed / max(1, attempted)))
    for name, unit in units.items():
        print("%-28s %-14.6g %s" % (name, metrics[name], unit))

    records = bdir / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps({"fingerprint": fp, "hxbench": result, "problems": problems}, indent=1))

    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as ex:
        log("perfbench: %s" % ex)
        sys.exit(2)
