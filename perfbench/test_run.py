"""Unit tests of the result-line schema in run.py.

    python3 -m unittest discover -s perfbench
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (the module under test sits beside this file)

# A result line exactly as the benchmark binary prints it.
RUST_LINE = (
    '{"correct": true, "attempted": 14, "failed": 0, "metrics": {'
    '"setup_s": {"value": 0.031682929, "unit": "s"}, '
    '"wall_s": {"value": 10.828536667999998, "unit": "s"}, '
    '"chip_s_max": {"value": 1.394904417, "unit": "s"}, '
    '"tiny": {"value": 1.25e-7, "unit": "s"}, '
    '"peak_rss_mb": {"value": 75.03125, "unit": "MB"}, '
    '"error_ratio": {"value": 0.0, "unit": "ratio"}}}'
)
WANTED = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class ResultSchema(unittest.TestCase):
    def test_round_trip_keeps_exactly_the_declared_metrics(self):
        result, everything = run.parse_result(RUST_LINE, WANTED)
        self.assertEqual(list(result), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(list(result["metrics"]), list(WANTED))
        self.assertEqual(result["metrics"]["wall_s"]["value"], 10.828536667999998)
        self.assertIn("chip_s_max", everything)
        line = run.format_result(result)
        again, _ = run.parse_result(line, WANTED)
        self.assertEqual(again, result)
        self.assertEqual(json.loads(line), result)

    def test_every_digit_survives(self):
        result, _ = run.parse_result(RUST_LINE, {"tiny": "s"})
        self.assertEqual(result["metrics"]["tiny"]["value"], 1.25e-7)
        self.assertIn("1.25e-07", run.format_result(result))

    def test_missing_or_misdeclared_metric_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.parse_result(RUST_LINE, {"latency_p50_ms": "ms"})
        with self.assertRaises(run.BenchError):
            run.parse_result(RUST_LINE, {"wall_s": "ms"})

    def test_names_units_and_keys_are_checked(self):
        for bad_name in ["", ".x", "_x", "a b", "a/b", "x" * 65]:
            self.assertIsNone(run.NAME.match(bad_name), bad_name)
        for good_name in ["wall_s", "linalg.factor_ms", "0x", "a-b"]:
            self.assertIsNotNone(run.NAME.match(good_name), good_name)
        for bad_unit in ["", "m s", "u" * 17]:
            self.assertIsNone(run.UNIT.match(bad_unit), bad_unit)
        bad_lines = [
            "not json",
            '{"correct": true, "attempted": 1, "failed": 0}',
            '{"correct": 1, "attempted": 1, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}',
            '{"correct": true, "attempted": 1, "failed": 2, "metrics": {}}',
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"a b": {"value": 1, "unit": "s"}}}',
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": "1", "unit": "s"}}}',
            '{"correct": true, "attempted": 1, "failed": 0, "metrics": {"x": {"value": NaN, "unit": "s"}}}',
            '{"correct": true, "attempted": 1, "failed": 0, "extra": 1, "metrics": {}}',
        ]
        for line in bad_lines:
            with self.assertRaises(run.BenchError, msg=line):
                run.parse_result(line, {})

    def test_declared_follows_the_mode(self):
        spec = {
            "end_to_end": [{"name": "wall_s", "unit": "s"}],
            "per_layer": [{"name": "lambda.ms", "unit": "ms"}],
        }
        self.assertEqual(run.declared(spec, False), {"wall_s": "s"})
        self.assertEqual(run.declared(spec, True), {"lambda.ms": "ms"})

    def test_the_repository_spec_is_well_formed(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertIsNotNone(run.NAME.match(name), name)
        self.assertIn("setup_s", [m["name"] for m in spec["end_to_end"]])
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
