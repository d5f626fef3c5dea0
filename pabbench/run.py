#!/usr/bin/env python3
"""Run one PAB benchmark workload and print its result.

    python3 pabbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 pabbench/run.py --test

Run from the repository root.  The first call configures and builds the
benchmark package (pabbench/CMakeLists.txt, which compiles ../src) into
.bench_build/pabbench; later calls rebuild only what changed.  Build output
goes to stderr; stdout carries the run's `#` header lines and, as its last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 prints the end-to-end metrics (pabbench).  --trace 1 first runs
the untraced binary for --seconds to get the reference throughput, then the
traced binary (pabbench_traced), which prints every per-layer metric and the
tracing overhead against that reference.

--test builds and runs the benchmark's own tests (pabbench_tests and
test_tools.py).
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pabbench")
WORKLOADS = ("uplink_waveform", "field_deploy", "timeline_energy")
BUILD_TYPE = "RelWithDebInfo"
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170  # all benchmark processes of one run, build excluded


def fail(message):
    print("pabbench: " + message, file=sys.stderr)
    sys.exit(1)


_children = []  # process groups still running


def _kill(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _stop_children(signum, _frame):
    for proc in list(_children):
        _kill(proc)
    sys.exit(128 + signum)


def run_group(cmd, timeout, stdout):
    """Runs `cmd` in its own process group.  On timeout, or when this script
    is told to stop, kills the whole group (a build's compiler processes too)
    and waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    _children.append(proc)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill(proc)
        fail("%s did not finish within %.0f s" % (os.path.basename(cmd[0]), timeout))
    finally:
        _children.remove(proc)
    return proc.returncode, out


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to pabbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        try:
            code, _ = run_group(cmd, BUILD_TIMEOUT_S, sys.stderr)
        except OSError as err:
            fail("build step failed: %s" % err)
        if code != 0:
            fail("build step failed: " + " ".join(cmd))


def git_sha():
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_binary(name, args, deadline):
    """Runs one benchmark binary; returns (stdout lines, parsed last line)."""
    cmd = [os.path.join(BUILD_DIR, name)] + args
    try:
        code, out = run_group(cmd, max(1.0, deadline - time.monotonic()),
                              subprocess.PIPE)
    except OSError as err:
        fail("%s did not start: %s" % (name, err))
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        fail("%s exited with code %d" % (name, code))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % name)
    return lines, result


def main():
    signal.signal(signal.SIGTERM, _stop_children)
    signal.signal(signal.SIGINT, _stop_children)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.test:
        build(["pabbench_tests"])
        code = subprocess.run([os.path.join(BUILD_DIR, "pabbench_tests")]).returncode
        tools = subprocess.run([sys.executable, os.path.join(HERE, "test_tools.py")])
        sys.exit(1 if code != 0 or tools.returncode != 0 else 0)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build(["pabbench", "pabbench_traced"])
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds), "--git-sha", git_sha()]
    if args.trace == 0:
        lines, _ = run_binary("pabbench", common, deadline)
    else:
        # Reference throughput of the untraced binary: one set-up, no minimum
        # trial count, so it measures for --seconds like the traced run.
        _, untraced = run_binary("pabbench", common + ["--setups", "1",
                                                       "--min-trials", "0"],
                                 deadline)
        tps = untraced["metrics"]["trials_per_s"]["value"]
        lines, _ = run_binary("pabbench_traced",
                              common + ["--min-trials", "0",
                                        "--untraced-tps", repr(tps)],
                              deadline)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
