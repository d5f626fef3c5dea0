#!/usr/bin/env python3
"""Tests of the benchmark's Python tools (results.py, diff.py).

    python3 pabbench/test_tools.py
"""
import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import diff  # noqa: E402
import results  # noqa: E402

SPECS = {
    "trials_per_s": {"unit": "1/s", "better": "higher", "bound": 0.05},
    "trial_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.05},
    "phy.demod_ms": {"unit": "ms", "better": "lower", "bound": None},
}


def one(value, unit="ms"):
    return dict(results.summarize([value]), unit=unit)


class MetricNamesTest(unittest.TestCase):
    def test_programs_print_every_benchmark_metric(self):
        src = os.path.join(results.HERE, "src")
        text = ""
        for name in ("main.cpp", "probes.cpp"):
            with open(os.path.join(src, name)) as f:
                text += f.read()
        for name, spec in results.metric_specs().items():
            self.assertTrue('"%s"' % name in text, name)
            self.assertTrue('"%s"' % spec["unit"] in text, name)


class SummarizeTest(unittest.TestCase):
    def test_quartiles_follow_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.1, 9.9, 10.4, 10.0, 9.8, 10.3]
        s = results.summarize(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(s["median"], statistics.median(values))
        self.assertEqual((s["q1"], s["q3"]), (q1, q3))
        self.assertAlmostEqual(s["spread"], (q3 - q1) / s["median"])

    def test_single_value_has_no_spread(self):
        self.assertEqual(results.summarize([3.0])["spread"], 0.0)


class LoadTest(unittest.TestCase):
    def test_result_file(self):
        doc = {"workloads": {"uplink_waveform": {"metrics": {
            "trial_p50_ms": one(17.0)}}}}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
        try:
            loaded = results.load(f.name)
        finally:
            os.unlink(f.name)
        self.assertEqual(loaded["uplink_waveform"]["trial_p50_ms"]["median"], 17.0)


class DiffTest(unittest.TestCase):
    def rows(self, base, new):
        rows, beyond = diff.compare({"w": base}, {"w": new}, SPECS)
        return {r[1]: r for r in rows}, beyond

    def test_ratio_is_new_over_base(self):
        rows, _ = self.rows({"trials_per_s": one(40.0, "1/s")},
                            {"trials_per_s": one(50.0, "1/s")})
        self.assertAlmostEqual(rows["trials_per_s"][4], 1.25)
        self.assertEqual(rows["trials_per_s"][5], "better")

    def test_direction_decides_worse(self):
        rows, beyond = self.rows({"trial_p50_ms": one(10.0)},
                                 {"trial_p50_ms": one(10.2)})
        self.assertEqual(rows["trial_p50_ms"][5], "worse")
        self.assertFalse(beyond)

    def test_beyond_bound(self):
        rows, beyond = self.rows({"trials_per_s": one(40.0, "1/s")},
                                 {"trials_per_s": one(37.0, "1/s")})
        self.assertIn("BEYOND BOUND", rows["trials_per_s"][5])
        self.assertTrue(beyond)

    def test_per_layer_metrics_have_no_bound(self):
        rows, beyond = self.rows({"phy.demod_ms": one(5.0)},
                                 {"phy.demod_ms": one(9.0)})
        self.assertEqual(rows["phy.demod_ms"][5], "worse")
        self.assertFalse(beyond)

    def test_only_shared_metrics_compare(self):
        rows, _ = self.rows({"trials_per_s": one(1.0, "1/s")},
                            {"trial_p50_ms": one(1.0)})
        self.assertEqual(rows, {})


if __name__ == "__main__":
    unittest.main()
