#!/usr/bin/env python3
"""Builds and runs the ACOUSTIC benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (which compiles the src/ libraries it
links) into .bench_build/perfbench in Release mode; later runs only
check that the build is current. The benchmark binary then runs the
workload, and its last line of standard output is the result JSON.
Build output goes to standard error. A traced run (--trace 1) also writes
.bench_build/perfbench/traces/<workload>-seed<N>.json (Chrome trace).

Exit codes: 0 result printed; 1 build or run failure; 2 bad arguments or
no repository sources next to this directory; 3 the binary refused to
report (not an optimized, sanitizer-free build); 128 + N stopped by signal
N (SIGTERM, SIGINT or SIGHUP), after killing the build or the benchmark
binary and everything it started.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("resnet18-cold-eval", "cifar-warm-eval", "cifar-stream-train")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Terminated(Exception):
    """Raised in place of dying on SIGTERM, SIGINT or SIGHUP."""


def on_signal(signum, _frame):
    raise Terminated(signum)


def run_child(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code.

    On a timeout or a signal the whole group (make and compilers too) is
    killed and the child reaped before the exception propagates, so no
    process outlives this script.
    """
    child = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return child.wait(timeout=timeout)
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()


def source_digest(root):
    """SHA-256 over the paths and bytes of the benchmarked sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root):
    if not (root / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "acoustic_perfbench"])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            code = run_child(cmd, max(1.0, deadline - time.monotonic()),
                             stdout=sys.stderr, stderr=sys.stderr)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(1, f"build step {cmd[:2]} failed: {err}")
        if code != 0:
            fail(1, f"build step {' '.join(cmd[:3])} exited {code}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**32:
        fail(2, "--seed must fit in 32 bits")
    if not 1 <= args.seconds <= 600:
        fail(2, "--seconds must be in [1, 600]")

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail(2, f"no ACOUSTIC sources under {root / 'src'}")
    build_dir = root / ".bench_build" / "perfbench"
    build(root, build_dir)

    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "acoustic_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-file",
           str(trace_dir / f"{args.workload}-seed{args.seed}.json"),
           "--git-sha", git_sha(root),
           "--source-digest", source_digest(root)]
    sys.stdout.flush()
    try:
        code = run_child(cmd, RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(1, f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, on_signal)
    try:
        main()
    except Terminated as stop:
        fail(128 + stop.args[0], f"stopped by signal {stop.args[0]}")
