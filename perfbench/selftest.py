"""Self-tests of the benchmark's reference computations.

    python3 perfbench/selftest.py        (from the root of a checkout)
"""

from __future__ import annotations

import itertools
import math
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import reference as ref  # noqa: E402


def brute_force_w1(a, b) -> float:
    """Min over all perfect matchings of equal-size sets (tiny sets only)."""
    a = np.asarray(a, dtype=np.float64).reshape(len(a), -1)
    b = np.asarray(b, dtype=np.float64).reshape(len(b), -1)
    return min(float(np.mean(np.linalg.norm(a - b[list(p)], axis=1)))
               for p in itertools.permutations(range(len(a))))


class QuantileW1(unittest.TestCase):
    def test_unequal_sizes_match_replicated_brute_force(self):
        # replicating every point of a set L/n times keeps its measure, so
        # W1 of the replicated equal-size sets is the unequal-size W1
        rng = np.random.default_rng(1)
        for n, m in [(1, 1), (1, 3), (2, 3), (3, 2), (2, 4), (3, 6), (5, 1)]:
            for _ in range(5):
                a = rng.normal(size=n)
                b = rng.normal(0.4, 1.3, size=m)
                common = math.lcm(n, m)
                want = brute_force_w1(np.repeat(a, common // n),
                                      np.repeat(b, common // m))
                self.assertAlmostEqual(ref.w1_quantile_1d(a, b), want, places=12)

    def test_translation_and_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=37)
        self.assertAlmostEqual(ref.w1_quantile_1d(a, a + 0.25), 0.25, places=12)
        b = rng.normal(size=11)
        self.assertEqual(ref.w1_quantile_1d(a, b), ref.w1_quantile_1d(b, a))


class SlicedBound(unittest.TestCase):
    def test_at_or_below_exact(self):
        from gradshift import transport as tp
        rng = np.random.default_rng(3)
        for d in (1, 2, 3):
            for n in (2, 5, 40):
                a = rng.normal(size=(n, d))
                b = rng.normal(0.3, 1.1, size=(n, d))
                exact = tp.w1_exact(a, b).distance
                self.assertLessEqual(ref.sliced_lower_bound(a, b), exact + 1e-12)
                cost, col = ref.optimal_matching(a, b)
                self.assertAlmostEqual(cost, exact, places=10)
                self.assertAlmostEqual(ref.matching_cost(a, b, col), cost,
                                       places=12)
                if n <= 5:
                    self.assertAlmostEqual(brute_force_w1(a, b), exact,
                                           places=10)

    def test_reaches_the_mean_shift_of_a_translation(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(50, 2))
        shift = np.array([0.3, -0.4])
        self.assertAlmostEqual(ref.sliced_lower_bound(a, a + shift), 0.5,
                               places=12)


class CheckpointReader(unittest.TestCase):
    def test_reads_what_save_checkpoint_wrote(self):
        from gradshift import cli
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(3, 4)), rng.normal(size=7),
                  rng.normal(size=(1, 2))]
        digest = bytes(range(32))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            cli.save_checkpoint(path, cli.Checkpoint(arrays, 4, 9, digest))
            version, got, got_digest = ref.read_checkpoint(path)
        self.assertEqual(version, 1)
        self.assertEqual(got_digest, digest)
        self.assertEqual(list(got[0]), [4.0, 9.0])
        self.assertEqual(len(got), 1 + len(arrays))
        for want, have in zip(arrays, got[1:]):
            self.assertEqual(want.shape, have.shape)
            self.assertTrue(np.array_equal(want, have))

    def test_rejects_a_truncated_file(self):
        from gradshift import cli
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "x.ckpt"
            cli.save_checkpoint(path, cli.Checkpoint([np.ones(3)], 0, 0,
                                                     bytes(32)))
            path.write_bytes(path.read_bytes()[:-1])
            with self.assertRaises(ValueError):
                ref.read_checkpoint(path)


class BoundTerms(unittest.TestCase):
    def test_special_values(self):
        # ln(1/delta) = 1/8 makes sqrt(8 ln(1/delta)) = 1, so e1 = 3(1 + M)/T;
        # vc + ln(2/delta) = 2n makes the vc term 1/T
        delta = math.exp(-1 / 8)
        n = 9
        vc = 2 * n - math.log(2 / delta)
        b = ref.bound_terms(T=4, n=n, M=2.0, rho=0.5, Delta=0.1, delta=delta,
                            vc=vc, rseq_c=3.0, c_online=6.0)
        p = b["parts"]
        self.assertAlmostEqual(b["e1"], 9 / 4, places=12)
        self.assertAlmostEqual(p["e2_vc"], 1 / 4, places=12)
        self.assertAlmostEqual(p["e2_online"], 1.0, places=12)
        self.assertAlmostEqual(p["rseq"], 3 / math.sqrt(27), places=12)
        self.assertAlmostEqual(p["e3_drift"], 0.6, places=12)
        self.assertAlmostEqual(b["total"], b["e1"] + b["e2"] + b["e3"], places=12)

    def test_scaling_in_T(self):
        kw = dict(n=100, M=1.0, rho=1.0, Delta=0.01, delta=0.1, vc=10.0,
                  rseq_c=1.0, c_online=1.0)
        for T in (2, 5, 17, 200):
            b = ref.bound_terms(T=T, **kw)["parts"]
            self.assertAlmostEqual(b["e1_decay"] * T, 3.0, places=12)
            self.assertAlmostEqual(b["e3_drift"] / T, 0.03, places=12)
            self.assertAlmostEqual(b["e2_online"] * math.sqrt(T), 0.1,
                                   places=12)
            self.assertAlmostEqual(b["rseq"] * math.sqrt(100 * (T - 1)), 1.0,
                                   places=12)

    def test_rademacher_enumeration(self):
        # E|e1| = 1, E|e1 + e2| = 1, E|e1 + e2 + e3| = 3/2
        self.assertEqual(ref.mean_abs_rademacher_sum(1), 1.0)
        self.assertEqual(ref.mean_abs_rademacher_sum(2), 0.5)
        self.assertEqual(ref.mean_abs_rademacher_sum(3), 0.5)


if __name__ == "__main__":
    unittest.main()
