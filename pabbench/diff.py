#!/usr/bin/env python3
"""Compare two benchmark results, metric by metric.

    python3 pabbench/diff.py BASE NEW

BASE and NEW are result files (steady.py --out).  For each workload and
metric present in both, prints the base value, the new value, the ratio
new / base and the base it is taken against, and whether the change is
better or worse by the metric's direction in BENCHMARK.json.  An
end-to-end metric that got worse by more than its bound is marked BEYOND
BOUND (exit code 1).
"""
import sys

import results


def compare(base, new, specs):
    """Rows (workload, metric, base, new, ratio, verdict) and whether any
    end-to-end metric got worse beyond its bound."""
    rows, beyond = [], False
    for workload in sorted(set(base) & set(new)):
        for name in base[workload]:
            if name not in new[workload]:
                continue
            b = base[workload][name]["median"]
            n = new[workload][name]["median"]
            ratio = n / b if b != 0 else float("nan")
            spec = specs.get(name, {})
            better = spec.get("better")
            if b == n or better is None or b == 0:
                verdict = "same" if b == n else ""
            else:
                improved = (n > b) == (better == "higher")
                verdict = "better" if improved else "worse"
                bound = spec.get("bound")
                worse_by = (b - n) / abs(b) if better == "higher" else (n - b) / abs(b)
                if not improved and bound is not None and worse_by > bound:
                    verdict += " BEYOND BOUND"
                    beyond = True
            rows.append((workload, name, b, n, ratio, verdict))
    return rows, beyond


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    base_path, new_path = sys.argv[1], sys.argv[2]
    rows, beyond = compare(results.load(base_path), results.load(new_path),
                           results.metric_specs())
    print("base: %s\nnew:  %s\nratio = new / base" % (base_path, new_path))
    print("%-16s %-40s %14s %14s %9s  %s" %
          ("workload", "metric", "base", "new", "ratio", ""))
    for workload, name, b, n, ratio, verdict in rows:
        print("%-16s %-40s %14.6g %14.6g %9.4f  %s" %
              (workload, name, b, n, ratio, verdict))
    sys.exit(1 if beyond else 0)


if __name__ == "__main__":
    main()
