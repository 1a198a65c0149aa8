#!/usr/bin/env python3
"""Build and run the replay benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--small]

Run it from the repository root. It configures and builds perfbench/ (a
CMake project that compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs the workload
once, single-threaded, in one process. Build output goes to stderr. The
benchmark's own report goes to stdout, followed by one `env:` line and, as
the last line, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set; the traced run also writes its spans as a
chrome://tracing file under the build directory. The exit code is 0 only
when the run completed and every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("phftl_train", "base_gc", "tiered_mixed")
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configure once, then an incremental build (a no-op when current)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no simulator sources under {os.path.join(ROOT, 'src')}")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "-j", "4",
                  "--target", "perfbench_replay"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, check=False)
        except OSError as e:
            fail(f"cannot run {cmd[0]}: {e}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench_replay")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def source_digest():
    """sha256 over src/ and perfbench/ file contents: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="short trace, one replay (the benchmark's own tests)")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must not be negative")

    wanted = expected_metrics(args.trace)
    bdir = build_dir()
    binary = build(bdir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    if args.trace:
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        suffix = "-small" if args.small else ""
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}{suffix}.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(done.stdout, end="")
        fail(f"{args.workload} exited {done.returncode} without a result")
    print("\n".join(lines[:-1]))

    metrics = result["metrics"]
    if sorted(metrics) != sorted(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}")
    env = dict(result["env"], git_commit=git_commit(),
               source_sha256=source_digest())
    print("env: " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": bool(result["correct"]) and done.returncode == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: metrics[name] for name in wanted},
    }))
    return 0 if done.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
