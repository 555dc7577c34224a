"""Unit tests for compare.py on toy results: python3 perfbench/test_compare.py"""

import json
import os
import tempfile
import unittest

import compare

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}
RATE = {"name": "verdicts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
BENCHMARK = {"end_to_end": [WALL, RATE]}


def write_runs(directory, workload, walls, failed=0):
    os.makedirs(directory, exist_ok=True)
    for i, wall in enumerate(walls):
        result = {
            "correct": True,
            "attempted": 10,
            "failed": failed,
            "metrics": {
                "wall_s": {"value": wall, "unit": "s"},
                "verdicts_per_s": {"value": 10 / wall, "unit": "1/s"},
            },
        }
        with open(os.path.join(directory, f"{workload}-{i:02}.txt"), "w", encoding="utf-8") as f:
            f.write(f"# perfbench workload={workload} seed={i}\n# wall_s {wall} s\n")
            f.write(json.dumps(result) + "\n")


def run(parent, change, claims=(), change_failed=0):
    with tempfile.TemporaryDirectory() as tmp:
        write_runs(os.path.join(tmp, "p"), "table1", parent)
        write_runs(os.path.join(tmp, "c"), "table1", change, change_failed)
        runs_p = compare.load_runs(os.path.join(tmp, "p"))
        runs_c = compare.load_runs(os.path.join(tmp, "c"))
    *lines, code = compare.compare(runs_p, runs_c, BENCHMARK, set(claims))
    verdicts = {line.split()[0]: line for line in lines[1:]}
    return verdicts, code


STEADY = [2.00, 2.01, 1.99, 2.02, 1.98, 2.00, 2.01, 1.99, 2.00, 2.01]


class CompareTest(unittest.TestCase):
    def test_claim_met_with_nine_of_ten_wins(self):
        faster = [w * 0.8 for w in STEADY]
        faster[3] = 2.5  # one lost pair
        verdicts, code = run(STEADY, faster, claims=[("table1", "wall_s")])
        self.assertIn("wins 9/10", verdicts["wall_s"])
        self.assertTrue(verdicts["wall_s"].endswith("claim met"))
        self.assertEqual(code, 0)

    def test_claim_not_met_with_eight_wins(self):
        faster = [w * 0.8 for w in STEADY]
        faster[3] = faster[4] = 2.5
        verdicts, code = run(STEADY, faster, claims=[("table1", "wall_s")])
        self.assertTrue(verdicts["wall_s"].endswith("claim not met"))
        self.assertEqual(code, 1)

    def test_claim_not_met_when_more_runs_fail(self):
        faster = [w * 0.8 for w in STEADY]
        verdicts, _ = run(STEADY, faster, claims=[("table1", "wall_s")], change_failed=1)
        self.assertTrue(verdicts["wall_s"].endswith("claim not met"))

    def test_claim_not_met_within_parent_spread(self):
        noisy = [1.0, 3.0] * 5
        better = [w - 0.01 for w in noisy]
        verdicts, _ = run(noisy, better, claims=[("table1", "wall_s")])
        self.assertTrue(verdicts["wall_s"].endswith("claim not met"))

    def test_regression_beyond_the_bound(self):
        verdicts, code = run(STEADY, [w * 1.2 for w in STEADY])
        self.assertTrue(verdicts["wall_s"].endswith("regressed"))
        self.assertTrue(verdicts["verdicts_per_s"].endswith("regressed"))
        self.assertEqual(code, 1)

    def test_small_slowdown_is_no_worse(self):
        verdicts, code = run(STEADY, [w * 1.03 for w in STEADY])
        self.assertTrue(verdicts["wall_s"].endswith("no worse"))
        self.assertEqual(code, 0)

    def test_wide_spread_is_unresolved_unless_every_run_is_better(self):
        noisy = [1.0, 3.0] * 5
        verdicts, _ = run(noisy, noisy)
        self.assertTrue(verdicts["wall_s"].endswith("unresolved"))
        verdicts, _ = run(noisy, [0.5] * 10)
        self.assertTrue(verdicts["wall_s"].endswith("no worse"))


if __name__ == "__main__":
    unittest.main()
