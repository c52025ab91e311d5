#!/usr/bin/env python3
"""Self-tests of the benchmark's correctness gate.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root; builds hxbench first (as run.py does).
"""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

BINARY = run.build(run.build_dir())
ONE_PASS = ["--seconds", "0", "--passes", "1", "--setup-reps", "1"]


def hxbench(*args):
    result, _ = run.hxbench(BINARY, list(args))
    return result


def run_py(*args):
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py")] + list(args),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class DigestGate(unittest.TestCase):
    def test_recorded_digest_passes_and_corrupted_one_fails(self):
        common = ["--workload", "pkt_sweep", "--seed", "1", "--seconds", "0"]
        code, good = run_py(*common)
        self.assertEqual(code, 0)
        self.assertTrue(good["correct"])

        expected = json.loads(run.EXPECTED.read_text())
        digest = expected["pkt_sweep"]["result_digest"]
        expected["pkt_sweep"]["result_digest"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            corrupted = pathlib.Path(tmp) / "expected.json"
            corrupted.write_text(json.dumps(expected))
            code, bad = run_py(*common, "--expected", str(corrupted))
        self.assertNotEqual(code, 0)
        self.assertFalse(bad["correct"])
        # A wrong digest fails every operation it covers.
        self.assertEqual(bad["failed"], bad["attempted"])

    def test_pkt_sweep_digest_is_thread_count_invariant(self):
        nproc = len(os.sched_getaffinity(0))
        one = hxbench("--workload", "pkt_sweep", "--seed", "3", "--threads", "1", *ONE_PASS)
        many = hxbench("--workload", "pkt_sweep", "--seed", "3", "--threads", str(nproc), *ONE_PASS)
        self.assertEqual(one["failed"], 0)
        self.assertEqual(one["digest"], many["digest"])

    def test_seed_changes_inputs_but_not_fabric(self):
        for workload in ("imb_sweep", "pkt_sweep"):
            a = hxbench("--workload", workload, "--seed", "1", *ONE_PASS)
            b = hxbench("--workload", workload, "--seed", "2", *ONE_PASS)
            self.assertNotEqual(a["digest"], b["digest"], workload)
            self.assertEqual(a["fabric_digest"], b["fabric_digest"], workload)


if __name__ == "__main__":
    unittest.main(verbosity=2)
