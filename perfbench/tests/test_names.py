"""Keeps BENCHMARK.json and the metrics the benchmark emits in step.

Run through `python3 perfbench/run.py --selftest`.  Every benchmark run
passes its result through run.py's check_result, which refuses any metric
name or unit that BENCHMARK.json does not list; these tests check that
guard and the names BENCHMARK.json lists.
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
import run  # noqa: E402  (perfbench/run.py)

NAME = r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"
UNIT = r"^[A-Za-z0-9_/%.-]{1,16}$"


def result(metrics):
    return {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {n: {"value": 1.0, "unit": u} for n, u in metrics.items()}}


class MetricNames(unittest.TestCase):
    def test_names_and_units_are_well_formed(self):
        s = run.spec()
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in s[k]]
        names += [w["name"] for w in s["workloads"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)), "a name is reused")
        for k in ("end_to_end", "per_layer"):
            for m in s[k]:
                self.assertRegex(m["unit"], UNIT)

    def test_result_must_list_exactly_the_promised_metrics(self):
        for trace in (0, 1):
            want = run.expected_metrics(trace)
            run.check_result(result(want), trace)  # accepted
            name = next(iter(want))
            for bad in ({**want, "not listed": "s"},
                        {k: v for k, v in want.items() if k != name},
                        {**want, name: want[name] + "x"}):
                with self.assertRaises(RuntimeError):
                    run.check_result(result(bad), trace)

    def test_setup_time_has_the_largest_bound(self):
        e2e = run.spec()["end_to_end"]
        setup = next(m for m in e2e if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e))
        self.assertTrue(all(0 < m["bound"] <= 0.25 for m in e2e))


if __name__ == "__main__":
    unittest.main()
