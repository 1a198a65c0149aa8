#!/usr/bin/env python3
"""The replay benchmark's own tests, on the small mode of every workload.

    python3 perfbench/selftest.py [--workload NAME ...]

Run it from the repository root. For each workload it runs run.py --small
(seed 1 twice and seed 2 once, untraced; seed 1 twice, traced) and checks:

  * every run is correct, with nothing failed, and reports every metric
    BENCHMARK.json names for its mode (run.py refuses otherwise);
  * the deterministic metrics -- wa, sim_*, read_amp, mapping_ram_kb and
    core.classifier_f1 -- are bit-identical across the two seed-1 runs;
  * the simulated results change under seed 2.

Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("phftl_train", "base_gc", "tiered_mixed")
DETERMINISTIC = ("wa", "sim_bw_mb_s", "sim_p50_us", "sim_p99_us", "read_amp",
                 "mapping_ram_kb")
DETERMINISTIC_TRACED = ("core.classifier_f1", "ftl.gc_rounds",
                        "flash.programs", "device.timed_requests")
SEED_SENSITIVE = ("wa", "sim_p99_us")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "0", "--trace",
           str(trace), "--small"]
    done = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if done.returncode != 0 or not result:
        sys.stderr.write(done.stdout + done.stderr)
        return None
    return result


def values(result, names):
    return {n: result["metrics"][n]["value"] for n in names}


def check_workload(workload):
    errors = []
    a = run(workload, 1, 0)
    b = run(workload, 1, 0)
    c = run(workload, 2, 0)
    ta = run(workload, 1, 1)
    tb = run(workload, 1, 1)
    if None in (a, b, c, ta, tb):
        return ["a run failed or printed no result"]
    for r in (a, b, c, ta, tb):
        if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
            errors.append(f"incorrect run: correct={r['correct']} "
                          f"failed={r['failed']} attempted={r['attempted']}")
    if values(a, DETERMINISTIC) != values(b, DETERMINISTIC):
        errors.append("seed 1 end-to-end runs differ: "
                      f"{values(a, DETERMINISTIC)} vs {values(b, DETERMINISTIC)}")
    if values(ta, DETERMINISTIC_TRACED) != values(tb, DETERMINISTIC_TRACED):
        errors.append("seed 1 traced runs differ: "
                      f"{values(ta, DETERMINISTIC_TRACED)} vs "
                      f"{values(tb, DETERMINISTIC_TRACED)}")
    for name in SEED_SENSITIVE:
        if values(a, [name]) == values(c, [name]):
            errors.append(f"{name} did not change under seed 2")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    failures = 0
    for workload in args.workload or WORKLOADS:
        errors = check_workload(workload)
        print(f"{'ok  ' if not errors else 'FAIL'} {workload}")
        for e in errors:
            print(f"     {e}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
