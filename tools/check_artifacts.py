#!/usr/bin/env python3
"""Regenerate every committed bench artifact and require it unchanged.

Usage: ``python3 tools/check_artifacts.py BUILD_DIR``

Every artifact below is workload-deterministic, so a fresh run must
reproduce the committed file exactly, on any box and under any ``--jobs``:

- each ``BENCH_fig5_*.json``, from ``bench_fig5 --out`` at the
  ``PHFTL_DRIVE_WRITES`` its own ``drive_writes`` names;
- ``BENCH_mapping.json``, ``BENCH_gc_latency.json`` and
  ``BENCH_lifetime.json``, from their benches' defaults.

Each bench runs at its default job count (one per usable CPU) and writes
into a temporary directory. The regenerated file must have the committed file's
keys and equal scalars; list-valued keys are compared element by element.
At the first difference the script prints the artifact, the key, the index
and both elements, and exits 1. ``BENCH_kernels.json`` holds timings and is
not checked.

Stdlib only; no third-party imports.
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Artifact -> the bench that writes it; each runs at its defaults.
FIXED = (
    ("BENCH_mapping.json", "bench_mapping"),
    ("BENCH_gc_latency.json", "bench_gc_latency"),
    ("BENCH_lifetime.json", "bench_lifetime"),
)


def first_difference(got, exp):
    """The first difference between two artifacts, as text, or None."""
    if got.keys() != exp.keys():
        return f"keys {sorted(got)} regenerated, {sorted(exp)} committed"
    for key, want in exp.items():
        have = got[key]
        if isinstance(want, list) and isinstance(have, list):
            for i, (h, w) in enumerate(zip(have, want)):
                if h != w:
                    return (f"{key}[{i}]:\n  regenerated {json.dumps(h)}\n"
                            f"  committed   {json.dumps(w)}")
            if len(have) != len(want):
                return (f"{key}: {len(have)} elements regenerated, "
                        f"{len(want)} committed")
        elif have != want:
            return (f"{key}: regenerated {json.dumps(have)}, "
                    f"committed {json.dumps(want)}")
    return None


def main():
    if len(sys.argv) != 2:
        print("usage: check_artifacts.py BUILD_DIR", file=sys.stderr)
        return 2
    bench_dir = os.path.join(sys.argv[1], "bench")
    # The caller's scale and metrics directory must not reach the benches.
    env = {k: v for k, v in os.environ.items()
           if k not in ("PHFTL_DRIVE_WRITES", "PHFTL_METRICS_DIR")}

    runs = []  # (artifact, bench, extra environment)
    fig5 = sorted(glob.glob(os.path.join(REPO, "BENCH_fig5_*.json")))
    if not fig5:
        print("no committed BENCH_fig5_*.json", file=sys.stderr)
        return 1
    for path in fig5:
        with open(path, encoding="utf-8") as f:
            drive_writes = json.load(f)["drive_writes"]
        runs.append((os.path.basename(path), "bench_fig5",
                     {"PHFTL_DRIVE_WRITES": repr(drive_writes)}))
    runs += [(artifact, bench, {}) for artifact, bench in FIXED]

    with tempfile.TemporaryDirectory() as tmp:
        for artifact, bench, extra in runs:
            out = os.path.join(tmp, artifact)
            start = time.monotonic()
            proc = subprocess.run(
                [os.path.join(bench_dir, bench), "--out", out],
                env={**env, **extra}, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                print(f"{artifact}: {bench} exited {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            with open(out, encoding="utf-8") as f:
                got = json.load(f)
            with open(os.path.join(REPO, artifact), encoding="utf-8") as f:
                exp = json.load(f)
            diff = first_difference(got, exp)
            if diff:
                print(f"{artifact} differs at {diff}", file=sys.stderr)
                return 1
            print(f"{artifact}: reproduced by {bench} "
                  f"({time.monotonic() - start:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
