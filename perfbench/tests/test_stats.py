"""Percentile rule and closed-loop accounting of perfbench/stats.py.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402


def row(**kw):
    base = {"ok": True, "first": False, "round": 0, "wall_s": 1.0,
            "advance_s": 0.5, "lups": 1_000_000, "reg": {}, "op": "jacobi",
            "variant": "baseline", "traced": False}
    base.update(kw)
    return base


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile([3.0], 90), 3.0)
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)

    def test_p90_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail(list(range(100)))[0], 90)
        self.assertEqual(stats.tail(list(range(100)))[2], 10)
        # 99 samples: only 9 beyond p90, so the p75 is the highest reportable
        self.assertEqual(stats.tail(list(range(99)))[0], 75)
        self.assertEqual(stats.tail(list(range(40)))[0], 75)
        self.assertEqual(stats.tail(list(range(39)))[0], 50)
        self.assertIsNone(stats.tail(list(range(19))))

    def test_never_reports_a_tail_from_fewer_than_ten_beyond(self):
        for n in range(1, 400):
            t = stats.tail([float(i) for i in range(n)])
            if t is not None:
                self.assertGreaterEqual(t[2], 10)
                self.assertEqual(t[2], sum(1 for v in range(n) if v > t[1]))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class ClosedLoop(unittest.TestCase):
    def test_sequential_requests_do_not_overlap(self):
        self.assertEqual(stats.check_closed_loop([(0.0, 1.0), (1.0, 0.5), (2.0, 0.1)]), 0)

    def test_overlap_is_counted(self):
        self.assertEqual(stats.check_closed_loop([(0.0, 1.0), (0.5, 1.0), (3.0, 1.0)]), 1)

    def test_accounting_counts_failures_against_attempts(self):
        rows = [row(), row(ok=False), row(), row()]
        acct = stats.accounting(rows)
        self.assertEqual(acct["attempted"], 4)
        self.assertEqual(acct["failed"], 1)
        self.assertAlmostEqual(acct["failed_frac"], 0.25)

    def test_mlups_sums_updates_over_advance_seconds(self):
        rows = [row(lups=2_000_000, advance_s=1.0), row(lups=1_000_000, advance_s=2.0)]
        self.assertAlmostEqual(stats.mlups(rows), 1.0)

    def test_keyed_rate_is_the_geomean_of_per_key_medians(self):
        rows = [row(variant="baseline", advance_s=1.0),   # 1 MLUP/s
                row(variant="baseline", advance_s=1.0),
                row(variant="baseline", advance_s=100.0),  # outlier, damped
                row(variant="pipelined", advance_s=0.25),  # 4 MLUP/s
                row(variant="pipelined", advance_s=0.25)]
        self.assertAlmostEqual(stats.keyed_rate(rows), 2.0)

    def test_every_key_moves_the_keyed_rate(self):
        # Five keys, three requests each: a change in any one key moves the
        # metric by the same factor, the key in the middle or not.
        variants = ("wavefront", "pipelined", "baseline", "compressed", "auto")
        rates = (400.0, 1300.0, 1500.0, 1700.0, 1700.0)
        def rows(scale_key):
            out = []
            for v, r in zip(variants, rates):
                r = r * (2.0 if v == scale_key else 1.0)
                out += [row(variant=v, lups=int(r * 1e6), advance_s=1.0)] * 3
            return out
        base = stats.keyed_rate(rows(None))
        for v in variants:
            self.assertAlmostEqual(stats.keyed_rate(rows(v)) / base, 2 ** 0.2)

    def test_keyed_wall_uses_each_keys_median_request(self):
        rows = [row(variant="baseline", wall_s=9.0, first=True),
                row(variant="baseline", wall_s=1.0), row(variant="baseline", wall_s=1.0),
                row(variant="pipelined", wall_s=16.0, first=True),
                row(variant="pipelined", wall_s=4.0), row(variant="pipelined", wall_s=4.0)]
        self.assertAlmostEqual(stats.keyed_wall(rows), 2.0)

    def test_tracing_overhead_compares_within_a_key(self):
        # Traced requests of the slow key and untraced ones of the fast key
        # must not read as overhead: only same-key pairs count.
        rows = [row(variant="wavefront", advance_s=4.0, traced=True),
                row(variant="wavefront", advance_s=4.0),
                row(variant="baseline", advance_s=1.0, traced=True),
                row(variant="baseline", advance_s=0.5),
                row(variant="baseline", advance_s=0.5),
                row(variant="pipelined", advance_s=1.0)]  # untraced only
        self.assertAlmostEqual(stats.tracing_overhead(rows), 1.0 - 0.5 ** 0.5)
        self.assertEqual(stats.tracing_overhead([row()]), 0.0)

    def test_setup_is_the_median_round_of_first_request_costs(self):
        rows = [
            row(round=0, first=True, wall_s=3.0, advance_s=1.0),   # 2.0
            row(round=0, first=False, wall_s=9.0, advance_s=1.0),  # not first
            row(round=1, first=True, wall_s=5.0, advance_s=1.0),   # 4.0
            row(round=1, first=True, wall_s=2.0, advance_s=1.0),   # + 1.0
            row(round=2, first=True, wall_s=4.0, advance_s=1.0),   # 3.0
        ]
        self.assertAlmostEqual(stats.setup_seconds(rows, load_s=0.5), 3.5)


if __name__ == "__main__":
    unittest.main()
