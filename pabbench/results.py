"""Shared helpers of the benchmark's tools: metric specs and run statistics.

A *result file* (written by steady.py --out, read by diff.py) is JSON:

    {"header": ["# pabbench ...", ...],
     "workloads": {"<workload>": {
         "runs": N, "seeds": [...], "failed_share": [...],
         "metrics": {"<metric>": {"unit": "ms", "median": x, "q1": x, "q3": x,
                                  "spread": x, "values": [...]}}}}}
"""
import json
import os
import statistics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def metric_specs():
    """name -> {"unit", "better", "bound" (None for per-layer metrics)}."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {}
    for m in bench["end_to_end"]:
        specs[m["name"]] = {"unit": m["unit"], "better": m["better"],
                            "bound": m["bound"]}
    for m in bench["per_layer"]:
        specs[m["name"]] = {"unit": m["unit"], "better": m["better"],
                            "bound": None}
    return specs


def summarize(values):
    """Median, quartiles and quartile spread (as statistics.quantiles gives
    them, n=4) of one metric's values over several runs."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med != 0 else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": list(values)}


def load(path):
    """A result file as {workload: {metric: summary}}."""
    with open(path) as f:
        doc = json.load(f)
    return {w: body["metrics"] for w, body in doc["workloads"].items()}
