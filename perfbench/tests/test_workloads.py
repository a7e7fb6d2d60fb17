"""Seeded request generators: determinism, sizes and request mix.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402

LLC = 300 * 1024 ** 2  # the measurement host's L3
SECONDS = 40


def requests(doc):
    return [c for c in doc["cases"] if not c["name"].startswith("ladder/")]


class SameSeedSameRequests(unittest.TestCase):
    def test_every_workload_is_a_function_of_its_seed(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                a = json.dumps(workloads.generate(name, 7, LLC, SECONDS))
                b = json.dumps(workloads.generate(name, 7, LLC, SECONDS))
                self.assertEqual(a, b)

    def test_seeds_change_the_request_order(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                def order(seed):
                    return [(c["operator"], c["variant"], c["n"], c["steps"])
                            for c in requests(workloads.generate(name, seed, LLC, SECONDS))]
                self.assertNotEqual(order(1), order(2))


class OutOfCache(unittest.TestCase):
    def test_ooc_workloads_are_at_least_4x_the_llc(self):
        for llc in (8 * 1024 ** 2, LLC, 1024 ** 3):
            with self.subTest(llc=llc):
                ooc = requests(workloads.ooc_jacobi(1, llc, SECONDS))
                n = ooc[0]["n"]
                self.assertGreaterEqual(workloads.jacobi_working_set(n), 4 * llc)
                lbm = requests(workloads.lbm_cavity(1, llc, SECONDS))
                n = lbm[0]["n"]
                self.assertGreaterEqual(workloads.lbm_aa_working_set(n), 4 * llc)

    def test_sizes_on_the_measurement_host(self):
        self.assertEqual(requests(workloads.ooc_jacobi(1, LLC, SECONDS))[0]["n"], 432)
        self.assertEqual(requests(workloads.lbm_cavity(1, LLC, SECONDS))[0]["n"], 204)
        # 1.29 GB of two grids = 4.1x the 300 MiB LLC
        self.assertAlmostEqual(workloads.jacobi_working_set(432) / LLC, 4.1, places=1)


class RequestMix(unittest.TestCase):
    def test_ooc_rounds_cycle_all_variants_one_engine_each(self):
        doc = workloads.ooc_jacobi(3, LLC, SECONDS)
        round0 = [c for c in requests(doc) if c["name"].startswith("r0/")]
        self.assertEqual(sorted({c["variant"] for c in round0}), sorted(workloads.VARIANTS))
        self.assertEqual(len(round0), len(workloads.VARIANTS) * workloads.OOC_REQUESTS_PER_KEY)

    def test_every_workload_names_a_ladder_problem(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                ladder = [c for c in workloads.generate(name, 1, LLC, SECONDS)["cases"]
                          if c["name"].startswith("ladder/")]
                self.assertEqual(len(ladder), 1)

    def test_lbm_cavity_runs_both_storages_under_both_schedules(self):
        round0 = [c for c in requests(workloads.lbm_cavity(2, LLC, SECONDS))
                  if c["name"].startswith("r0/")]
        keys = {(c["operator"], c["variant"]) for c in round0}
        self.assertEqual(keys, {(op, v) for op in ("lbm", "lbm:aa")
                                for v in ("baseline", "pipelined")})
        self.assertEqual(len(round0), 4 * workloads.LBM_REQUESTS_PER_KEY)

    def test_only_the_rounds_the_window_holds(self):
        def rounds(name, seconds):
            return len({c["name"].split("/")[0]
                        for c in requests(workloads.generate(name, 1, LLC, seconds))})
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                self.assertEqual(rounds(name, 1), 1)  # always one whole round
                self.assertEqual(rounds(name, SECONDS), 1)
                self.assertEqual(rounds(name, 4 * workloads.MIN_ROUND_S), 4)

    def test_at_most_four_threads(self):
        for name in workloads.GENERATORS:
            for c in workloads.generate(name, 1, LLC, SECONDS)["cases"]:
                self.assertLessEqual(c["threads"], 4)


if __name__ == "__main__":
    unittest.main()
