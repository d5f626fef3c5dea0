#!/usr/bin/env python3
"""Repeat workloads and report how steady their metrics are.

    python3 pabbench/steady.py --workload uplink_waveform [--workload ...]
        [--runs 10] [--seconds 10] [--first-seed 1] [--trace 0] [--out FILE]

Runs run.py --runs times per workload, each with its own seed (first-seed,
first-seed + 1, ...), and prints for every metric the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median.  A metric
whose spread exceeds its bound in BENCHMARK.json is flagged; so is a run
that reports correct = false, and a failed-trial share that differs between
runs.  Exit code 1 when anything is flagged.  --out writes a result file
that diff.py reads.
"""
import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction

import results

WORKLOADS = ("uplink_waveform", "field_deploy", "timeline_energy")


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(results.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=results.ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("steady: run failed: " + " ".join(cmd))
    header = [line for line in lines if line.startswith("#")]
    return header, json.loads(lines[-1])


def steady(workload, runs, seconds, first_seed, trace, specs):
    """Runs one workload; returns (result-file entry, list of flags)."""
    seeds = list(range(first_seed, first_seed + runs))
    values, units, shares, flags, header = {}, {}, [], [], []
    for seed in seeds:
        header, out = run_once(workload, seed, seconds, trace)
        if not out["correct"]:
            flags.append("seed %d: correct = false" % seed)
        shares.append(Fraction(out["failed"], out["attempted"]))
        for name, m in out["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    if len(set(shares)) > 1:
        flags.append("failed share differs between runs: %s" %
                     sorted({str(s) for s in shares}))
    metrics = {}
    print("\n%s: %d runs, seeds %d..%d, %g s each, failed share %s" %
          (workload, runs, seeds[0], seeds[-1], seconds, shares[0]))
    print("  %-40s %-6s %14s %14s %14s %8s %8s" %
          ("metric", "unit", "median", "q1", "q3", "spread", "bound"))
    for name, vals in values.items():
        s = dict(results.summarize(vals), unit=units[name])
        metrics[name] = s
        bound = specs.get(name, {}).get("bound")
        mark = ""
        if bound is not None and s["spread"] > bound:
            mark = "  SPREAD ABOVE BOUND"
            if name != "setup_s":
                flags.append("%s: spread %.4f above bound %.4f" %
                             (name, s["spread"], bound))
        elif bound is not None and s["spread"] > bound / 3:
            mark = "  (above a third of the bound)"
        print("  %-40s %-6s %14.6g %14.6g %14.6g %7.2f%% %8s%s" %
              (name, s["unit"], s["median"], s["q1"], s["q3"],
               100 * s["spread"], "-" if bound is None else "%.1f%%" % (100 * bound),
               mark))
    entry = {"runs": runs, "seeds": seeds, "seconds": seconds, "trace": trace,
             "failed_share": [str(s) for s in shares], "metrics": metrics}
    return entry, header, flags


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write a result file for diff.py")
    args = parser.parse_args()
    workloads = WORKLOADS if "all" in args.workload else args.workload
    specs = results.metric_specs()
    doc, flags = {"header": [], "workloads": {}}, []
    for w in workloads:
        entry, header, f = steady(w, args.runs, args.seconds, args.first_seed,
                                  args.trace, specs)
        doc["workloads"][w] = entry
        doc["header"] = header
        flags += ["%s: %s" % (w, x) for x in f]
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
    for x in flags:
        print("FLAG " + x)
    sys.exit(1 if flags else 0)


if __name__ == "__main__":
    main()
