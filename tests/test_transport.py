import itertools
import math

import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import transport as tp


def brute_force_w1(A, B):
    """Exhaustive matching enumeration; exact for n <= 6."""
    A = np.atleast_2d(A.T).T if A.ndim == 1 else A
    n = A.shape[0]
    C = tp.cost_matrix(A, B)
    best = math.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(C[i, perm[i]] for i in range(n)))
    return best / n


class TestW1Exact:
    def test_single_pair(self):
        assert tp.w1_exact([[0.0]], [[1.0]]).distance == 1.0

    def test_identical_sets(self):
        x = dc.rng_normal(0, (20, 3))
        assert tp.w1_exact(x, x).distance == 0.0

    def test_two_point_crossing(self):
        # straight matching costs (1+1)/2 = 1; crossed costs sqrt(2)
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[0.0, 1.0], [1.0, 1.0]])
        assert abs(tp.w1_exact(a, b).distance - 1.0) < 1e-12

    def test_vs_brute_force(self):
        for trial in range(30):
            seed = dc.substream(17, trial)
            n = 2 + trial % 5
            d = 1 + trial % 3
            a = dc.rng_normal(dc.substream(seed, 0), (n, d))
            b = dc.rng_normal(dc.substream(seed, 1), (n, d), 0.5, 1.2)
            got = tp.w1_exact(a, b).distance
            assert abs(got - brute_force_w1(a, b)) < 1e-9

    def test_vs_sorted_1d(self):
        for trial in range(30):
            seed = dc.substream(23, trial)
            a = dc.rng_normal(dc.substream(seed, 0), (32,))
            b = dc.rng_normal(dc.substream(seed, 1), (32,), 1.0, 0.5)
            assert abs(tp.w1_exact(a, b).distance
                       - tp.w1_sorted_1d(a, b).distance) < 1e-9

    def test_symmetry(self):
        a = dc.rng_normal(1, (24, 2))
        b = dc.rng_normal(2, (24, 2), 0.3, 1.0)
        assert abs(tp.w1_exact(a, b).distance - tp.w1_exact(b, a).distance) < 1e-9

    def test_triangle_inequality(self):
        for trial in range(20):
            s = dc.substream(31, trial)
            a = dc.rng_normal(dc.substream(s, 0), (16, 2))
            b = dc.rng_normal(dc.substream(s, 1), (16, 2), 0.5, 1.5)
            c = dc.rng_normal(dc.substream(s, 2), (16, 2), -0.5, 0.7)
            ab = tp.w1_exact(a, b).distance
            bc = tp.w1_exact(b, c).distance
            ac = tp.w1_exact(a, c).distance
            assert ac <= ab + bc + 1e-9

    def test_coupling_marginals(self):
        a = dc.rng_normal(3, (10, 2))
        b = dc.rng_normal(4, (10, 2))
        res = tp.w1_exact(a, b)
        assert np.allclose(res.coupling.sum(axis=0), 0.1, atol=1e-6)
        assert np.allclose(res.coupling.sum(axis=1), 0.1, atol=1e-6)
        assert abs((res.coupling * tp.cost_matrix(a, b)).sum() - res.distance) < 1e-9

    def test_unequal_sizes_error(self):
        with pytest.raises(ValueError, match="resample_to_equal"):
            tp.w1_exact(np.zeros((3, 1)), np.zeros((4, 1)))

    def test_guard(self):
        with pytest.raises(ValueError, match="sinkhorn"):
            tp.w1_exact(np.zeros((5000, 1)), np.zeros((5000, 1)))


class TestSorted1d:
    def test_example(self):
        res = tp.w1_sorted_1d([0.0, 1.0], [1.0, 2.0])
        assert res.distance == 1.0
        assert res.coupling is None

    def test_identical(self):
        x = dc.rng_normal(5, (40,))
        assert tp.w1_sorted_1d(x, x).distance == 0.0

    def test_monotone_in_p(self):
        # sorted-pairing W1 <= W2 on 1-D instances
        for trial in range(100):
            s = dc.substream(41, trial)
            a = dc.rng_normal(dc.substream(s, 0), (24,))
            b = dc.rng_normal(dc.substream(s, 1), (24,), 0.4, 1.3)
            w1 = tp.wp_sorted_1d(a, b, 1).distance
            w2 = tp.wp_sorted_1d(a, b, 2).distance
            assert w1 <= w2 + 1e-12


class TestSinkhorn:
    def test_identical_small_epsilon(self):
        x = dc.rng_normal(7, (16, 2))
        res = tp.sinkhorn(x, x, epsilon=1e-3, max_iters=20000, tol=1e-8)
        assert res.distance <= 1e-3 * math.log(16) + 1e-6

    def test_close_to_exact(self):
        a = dc.rng_normal(8, (50, 2), 0.0, 1.0)
        b = dc.rng_normal(9, (50, 2), 1.0, 1.0)
        C = tp.cost_matrix(a, b)
        eps = 0.005 * float(C.mean())
        res = tp.sinkhorn(a, b, eps, max_iters=100000, tol=1e-6)
        exact = tp.w1_exact(a, b).distance
        assert res.converged
        assert abs(res.distance - exact) / exact <= 0.05

    def test_marginals_uniform(self):
        a = dc.rng_normal(10, (20, 2))
        b = dc.rng_normal(11, (20, 2), 0.5, 1.0)
        res = tp.sinkhorn(a, b, 0.05, tol=1e-7)
        assert res.converged
        assert np.abs(res.coupling.sum(axis=0) - 1 / 20).sum() < 1e-6
        assert np.abs(res.coupling.sum(axis=1) - 1 / 20).sum() < 1e-6

    def test_nonconvergence_flagged(self):
        a = dc.rng_normal(12, (12, 2))
        b = dc.rng_normal(13, (12, 2), 2.0, 1.0)
        res = tp.sinkhorn(a, b, 0.001, max_iters=2, tol=1e-12)
        assert not res.converged
        assert res.iterations == 2

    def test_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            tp.sinkhorn(np.zeros((2, 1)), np.zeros((2, 1)), 0.0)


class TestResample:
    def test_equal_passthrough(self):
        a = dc.rng_normal(0, (5, 2))
        b = dc.rng_normal(1, (5, 2))
        ra, rb = tp.resample_to_equal(a, b, 0)
        assert ra is a and rb is b

    def test_down_to_smaller(self):
        a = dc.rng_normal(2, (10, 2))
        b = dc.rng_normal(3, (4, 2))
        ra, rb = tp.resample_to_equal(a, b, 7)
        assert ra.shape == (4, 2) and rb.shape == (4, 2)
        rows_a = {tuple(r) for r in a}
        assert all(tuple(r) in rows_a for r in ra)
        ra2, _ = tp.resample_to_equal(a, b, 7)
        assert np.array_equal(ra, ra2)


class TestClassConditionalDelta:
    def test_zero_drift_small(self):
        seq = dom.make_shifting_gaussians(3, 2000, shift_per_step=0.0,
                                          class_means=[[-2.0], [2.0]],
                                          sigma=0.5, seed=21)
        est = tp.class_conditional_delta(seq, estimator="exact")
        assert est.delta_hat <= 0.1

    def test_translation_recovered(self):
        seq = dom.make_shifting_gaussians(3, 2000, shift_per_step=0.3,
                                          class_means=[[-2.0], [2.0]],
                                          sigma=0.5, seed=22)
        est = tp.class_conditional_delta(seq, estimator="exact")
        assert abs(est.delta_hat - 0.3) < 0.05
        for v in est.per_step:
            assert abs(v - 0.3) < 0.05

    def test_identical_batches_zero(self):
        base = dom.make_shifting_gaussians(2, 64, shift_per_step=0.0, seed=3)
        d0 = base.domains[0]
        clones = [dom.DomainBatch(t, d0.features.copy(), d0.labels.copy(), d0.k)
                  for t in range(3)]
        seq = dom.DomainSequence(clones, {})
        est = tp.class_conditional_delta(seq, estimator="exact")
        assert est.delta_hat == 0.0

    def test_missing_class_named(self):
        b0 = dom.DomainBatch(0, np.zeros((4, 2)), np.array([0, 0, 1, 1]), 2)
        b1 = dom.DomainBatch(1, np.ones((4, 2)), np.array([0, 0, 0, 0]), 2)
        seq = dom.DomainSequence([b0, b1], {})
        with pytest.raises(ValueError, match=r"class 1 missing in domain t=1"):
            tp.class_conditional_delta(seq)

    def test_multid_exact_path(self):
        seq = dom.make_shifting_gaussians(
            3, 128, shift_per_step=0.5, sigma=0.2, seed=4,
            class_means=[[-1.0, 0.0], [1.0, 0.0]])
        est = tp.class_conditional_delta(seq, estimator="exact")
        assert abs(est.delta_hat - 0.5) < 0.15

    def test_converged_flag(self):
        seq = dom.make_shifting_gaussians(3, 64, shift_per_step=0.3, seed=5)
        assert tp.class_conditional_delta(seq, estimator="exact").converged
        est = tp.class_conditional_delta(seq, estimator="sinkhorn", max_iters=1)
        assert est.converged is False
