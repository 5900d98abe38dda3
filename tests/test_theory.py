import itertools
import math

import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import models as md
from gradshift import theory as th
from gradshift.objectives import LossSpec, ModelSpec


def brute_force_seqrad(f_table, T):
    """Independent enumeration: trees built as recursive tuples, paths walked
    recursively. Mirrors the definition, not the implementation."""
    table = [list(r) for r in np.asarray(f_table, dtype=float)]
    z = len(table[0])

    def trees(depth):
        if depth == 0:
            yield None
            return
        for label in range(z):
            for left in trees(depth - 1):
                for right in trees(depth - 1):
                    yield (label, left, right)

    def paths(tree, eps_prefix):
        if tree is None:
            yield []
            return
        label, left, right = tree
        for sign, sub in ((-1, left), (1, right)):
            for rest in paths(sub, None):
                yield [(sign, label)] + rest

    best = -math.inf
    for tree in trees(T):
        terms = []
        for path in paths(tree, None):
            # path yields [(sign_t, label_t)] with sign choosing the next
            # subtree; the sign multiplies the value at the CURRENT node
            row = max(table,
                      key=lambda r: math.fsum(s * r[lab] for s, lab in path))
            terms.extend(s * row[lab] for s, lab in path)
        total = math.fsum(terms)
        best = max(best, total)
    return best / (2 ** T * T)


class TestDiscrepancy:
    def toy_sequence(self):
        return dom.make_shifting_gaussians(3, 64, shift_per_step=0.4,
                                           class_means=[[-1.0], [1.0]],
                                           sigma=0.3, seed=5)

    def test_identical_domains_zero(self):
        base = self.toy_sequence().domains[0]
        clones = [dom.DomainBatch(t, base.features.copy(), base.labels.copy(),
                                  base.k) for t in range(4)]
        seq = dom.DomainSequence(clones, {})
        pool = th.make_hypothesis_pool(seq, 5, 0, seed=1,
                                       spec=ModelSpec(feature_dim=4, hidden=8))
        assert th.estimate_discrepancy(seq, pool, LossSpec()) == 0.0

    def test_single_hypothesis_by_hand(self):
        # fixed linear classifier on identity features; 3-point domains
        feats = [np.array([[0.0], [1.0]]), np.array([[1.0], [2.0]]),
                 np.array([[2.0], [3.0]])]
        doms = [dom.DomainBatch(t, f, np.array([0, 1]), 2)
                for t, f in enumerate(feats)]
        seq = dom.DomainSequence(doms, {})
        g = md.MlpParams([np.eye(1)], [np.zeros(1)], ["identity"])
        h = md.MlpParams([np.array([[-1.0, 1.0]])], [np.zeros(2)], ["identity"])
        pool = [(g, h)]
        spec = LossSpec("cross_entropy_bounded", bound=50.0)
        got = th.estimate_discrepancy(seq, pool, spec)
        # hand evaluation: logits are (-x, x); ce = log(1+exp(2x*(1-2y)))
        def ce(x, y):
            s = (1 - 2 * y) * 2 * x
            return math.log1p(math.exp(s))
        per = [np.mean([ce(f[0, 0], 0), ce(f[1, 0], 1)]) for f in feats]
        want = per[-1] - (per[0] + per[1]) / 2
        assert abs(got - want) < 1e-12

    def test_monotone_in_pool(self):
        seq = self.toy_sequence()
        spec = ModelSpec(feature_dim=4, hidden=8)
        big = th.make_hypothesis_pool(seq, 8, 0, seed=3, spec=spec)
        small = big[:3]
        loss = LossSpec()
        assert th.estimate_discrepancy(seq, big, loss) >= \
            th.estimate_discrepancy(seq, small, loss)

    def test_bounded_by_t_rho_delta(self):
        # reduced version of the proof-bound comparison
        seq = dom.make_shifting_gaussians(4, 500, shift_per_step=0.3,
                                          class_means=[[-2.0], [2.0]],
                                          sigma=0.5, seed=9)
        pool = th.make_hypothesis_pool(seq, 16, 4, seed=2,
                                       spec=ModelSpec(feature_dim=4, hidden=8))
        spec = LossSpec("cross_entropy_bounded", bound=5.0)
        disc = th.estimate_discrepancy(seq, pool, spec)
        assert disc <= 4 * 1.0 * 0.3 + 0.15

    def test_empty_pool(self):
        with pytest.raises(ValueError,
                           match="^hypothesis pool must be non-empty$"):
            th.estimate_discrepancy(self.toy_sequence(), [], LossSpec())

    def test_pool_dimension_mismatch(self):
        seq = self.toy_sequence()
        g = md.MlpParams([np.eye(3)], [np.zeros(3)], ["identity"])
        h = md.MlpParams([np.zeros((3, 2))], [np.zeros(2)], ["identity"])
        pool = [(g, h)]
        with pytest.raises(ValueError, match="expects d="):
            th.estimate_discrepancy(seq, pool, LossSpec())


def per_trial_lemma1(shift, loss, rho, trials, n, seed):
    """One trial at a time, each sample drawn on its own: the reference for
    the blocked `th.check_lemma1` on N(0, 1). Returns (violations, max_gap)."""
    violations, max_gap = 0, 0.0
    for i in range(trials):
        x = dc.rng_normal(dc.substream(seed, "trial", i), (n,))
        a, b = loss(x), loss(x + shift)
        gap = abs(float(np.mean(a)) - float(np.mean(b)))
        stderr = math.sqrt(np.var(a) / n + np.var(b) / n)
        violations += gap > rho * abs(shift) + 3.0 * stderr
        max_gap = max(max_gap, gap)
    return violations, max_gap


class TestLemma1Check:
    def test_zero_shift_zero_gap(self):
        rep = th.check_lemma1(th.gaussian_sampler(0.0, 1.0), 0.0,
                              th.clamp_loss(-5, 5), rho=1.0, trials=20, n=200,
                              seed=4)
        assert rep.max_gap == 0.0
        assert rep.violations == 0

    def test_no_spread_shift_rounding(self):
        # with sigma 0 a gap above the bound is rounding alone; near this mu,
        # where sin has slope 1, rounding x + shift puts 21 of these gaps
        # above rho * |shift| plus the means' share of the slack
        mu = 2 * math.pi * 159155
        for k in range(1, 200):
            rep = th.check_lemma1(th.gaussian_sampler(mu, 0.0), k / 97e3,
                                  np.sin, rho=1.0, trials=1, n=50, seed=0)
            assert rep.violations == 0, k

    def test_gaussian_translation(self):
        rep = th.check_lemma1(th.gaussian_sampler(0.0, 1.0), 0.3,
                              loss=th.clamp_loss(-5, 5), rho=1.0,
                              trials=200, n=2000, seed=7)
        assert rep.bound == 0.3
        assert rep.violation_rate <= 0.01
        assert rep.max_gap < 0.5

    def test_scaling_invariance(self):
        base = th.clamp_loss(-5, 5)
        scaled = lambda x: 2.0 * base(x)
        a = th.check_lemma1(th.gaussian_sampler(0.0, 1.0), 0.3, base, 1.0,
                            trials=100, n=500, seed=8)
        b = th.check_lemma1(th.gaussian_sampler(0.0, 1.0), 0.3, scaled, 2.0,
                            trials=100, n=500, seed=8)
        assert b.bound == 2 * a.bound
        assert b.violations == a.violations

    @pytest.mark.parametrize("trials", [1, th.LEMMA1_BLOCK,
                                        th.LEMMA1_BLOCK + 1, 40])
    def test_blocks_match_per_trial_draws(self, trials):
        # rho = 0.5 understates the clamp's Lipschitz constant 1, so about a
        # quarter of the trials violate (11 and 9 of 40)
        loss = th.clamp_loss(-2.0, 2.0)
        for shift in (0.3, -0.3):
            rep = th.check_lemma1(th.gaussian_sampler(0.0, 1.0), shift, loss,
                                  0.5, trials, 851, seed=9)
            want = per_trial_lemma1(shift, loss, 0.5, trials, 851, seed=9)
            assert (rep.violations, rep.max_gap) == want
            assert rep.bound == 0.15
        assert per_trial_lemma1(0.3, loss, 0.5, 40, 851, seed=9)[0] == 11

    @pytest.mark.parametrize("rho, shift", [(0.0, 0.3), (-1.0, 0.3),
                                            (math.inf, 0.3), (1.0, math.nan)])
    def test_bad_rho_or_shift_rejected(self, rho, shift):
        with pytest.raises(ValueError, match="rho must be positive"):
            th.check_lemma1(th.gaussian_sampler(0.0, 1.0), shift,
                            th.clamp_loss(-5, 5), rho, 2, 10, 0)


class TestEvaluateBound:
    def test_e1_closed_form(self):
        rep = th.evaluate_bound(th.BoundInputs(T=10, n=100, M=1.0, delta=0.1))
        want = 0.3 + 0.3 * math.sqrt(8 * math.log(10.0))
        assert abs(rep.e1 - want) < 1e-9

    def test_zero_drift_zero_addend(self):
        rep = th.evaluate_bound(th.BoundInputs(T=7, n=50, drift=0.0))
        assert rep.parts["e3_drift"] == 0.0

    def test_drift_addend_exact(self):
        rep = th.evaluate_bound(th.BoundInputs(T=10, n=100, rho=1.0, drift=0.01))
        assert abs(rep.parts["e3_drift"] - 0.3) < 1e-12

    def test_total_is_sum(self):
        rep = th.evaluate_bound(th.BoundInputs(T=12, n=64, drift=0.05))
        assert abs(rep.total - (rep.e1 + rep.e2 + rep.e3)) < 1e-12
        assert all(v >= 0 for v in (rep.e1, rep.e2, rep.e3))

    def test_t_too_small(self):
        with pytest.raises(ValueError):
            th.BoundInputs(T=1, n=10)

    @pytest.mark.parametrize("field", ["M", "rho", "drift", "delta", "vc",
                                       "rseq", "rseq_c", "c_online"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            th.BoundInputs(T=5, n=10, **{field: value})

    def test_overflowing_term_rejected(self):
        for big in ({"M": 1e308}, {"drift": 1e307}):
            with pytest.raises(ValueError,
                               match="^bound terms overflow float64$"):
                th.evaluate_bound(th.BoundInputs(T=50, n=10, **big))

    def test_explicit_rseq(self):
        rep = th.evaluate_bound(th.BoundInputs(T=4, n=10, rseq=0.25))
        assert rep.parts["rseq"] == 0.25


class TestSweep:
    def test_zero_drift_nonincreasing(self):
        inp = th.BoundInputs(T=2, n=100, drift=0.0)
        res = th.sweep_horizon(inp, range(2, 60))
        totals = [r[4] for r in res.rows]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))
        assert res.argmin_T == 59

    def test_large_drift_argmin_two(self):
        # make the drift addend at T=2 already dominate e1(T=2)
        inp = th.BoundInputs(T=2, n=100, rho=1.0, drift=10.0)
        res = th.sweep_horizon(inp, range(2, 40))
        assert res.argmin_T == 2

    def test_drift_column_strictly_increasing(self):
        inp = th.BoundInputs(T=2, n=100, rho=1.0, drift=0.05)
        res = th.sweep_horizon(inp, range(2, 30))
        drifts = [3 * t * 1.0 * 0.05 for t, *_ in res.rows]
        assert all(a < b for a, b in zip(drifts, drifts[1:]))

    def test_e1_strictly_decreasing(self):
        inp = th.BoundInputs(T=2, n=100, drift=0.02)
        res = th.sweep_horizon(inp, range(2, 30))
        e1s = [r[1] for r in res.rows]
        assert all(a > b for a, b in zip(e1s, e1s[1:]))

    def test_empty_range(self):
        with pytest.raises(ValueError, match="empty"):
            th.sweep_horizon(th.BoundInputs(T=2, n=10), [])

    def test_ties_break_small(self):
        inp = th.BoundInputs(T=2, n=100, drift=0.0)
        res = th.sweep_horizon(inp, [5, 5, 5])
        assert res.argmin_T == 5


class TestSeqRademacher:
    def test_singleton_exactly_zero(self):
        for trial in range(20):
            s = dc.substream(3, trial)
            z = 2 + trial % 2
            T = 1 + trial % 3
            table = dc.rng_normal(s, (1, z))
            inst = th.FiniteInstance(table, T)
            assert th.seq_rademacher_exact(inst) == 0.0

    def test_two_constants_depth_one(self):
        inst = th.FiniteInstance(np.array([[1.0, 1.0], [-1.0, -1.0]]), 1)
        assert th.seq_rademacher_exact(inst) == 1.0

    def test_matches_brute_force(self):
        for trial in range(20):
            table = dc.rng_normal(dc.substream(17, trial), (3, 2))
            inst = th.FiniteInstance(table, 2)
            got = th.seq_rademacher_exact(inst)
            want = brute_force_seqrad(table, 2)
            assert got == want

    def test_invariant_under_permutations(self):
        table = dc.rng_normal(31, (3, 3))
        inst = th.FiniteInstance(table, 2)
        base = th.seq_rademacher_exact(inst)
        for zperm in itertools.permutations(range(3)):
            t2 = table[:, list(zperm)]
            assert th.seq_rademacher_exact(th.FiniteInstance(t2, 2)) == base
        for fperm in itertools.permutations(range(3)):
            t3 = table[list(fperm), :]
            assert th.seq_rademacher_exact(th.FiniteInstance(t3, 2)) == base

    def test_guard(self):
        inst = th.FiniteInstance(np.ones((1, 50)), 4)
        with pytest.raises(ValueError, match="guard"):
            th.seq_rademacher_exact(inst)

    def test_depth_three_brute_force_once(self):
        table = dc.rng_normal(77, (2, 2))
        inst = th.FiniteInstance(table, 3)
        assert th.seq_rademacher_exact(inst) == brute_force_seqrad(table, 3)
