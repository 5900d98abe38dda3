import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import transport as tp


def reference_assignment(C: np.ndarray):
    """Shortest-augmenting-path assignment with potentials updated at every
    step (the e-maxx Hungarian form); returns (row matched to each column,
    total cost). The reference for `tp._solve_assignment`."""
    n = C.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)      # p[j]: row on column j (1-based)
    way = np.zeros(n + 1, dtype=np.int64)
    way1 = way[1:]
    v1 = v[1:]
    used_cols = np.empty(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n, np.inf)            # reduced costs for columns 1..n
        free = np.ones(n, dtype=bool)
        n_used = 0
        while True:
            used_cols[n_used] = j0
            n_used += 1
            if j0 > 0:
                free[j0 - 1] = False
            i0 = p[j0]
            cur = C[i0 - 1] - (u[i0] + v1)
            upd = free & (cur < minv)
            minv[upd] = cur[upd]
            way1[upd] = j0
            masked = np.where(free, minv, np.inf)
            k = int(np.argmin(masked))
            delta = masked[k]
            sel = used_cols[:n_used]
            u[p[sel]] += delta
            v[sel] -= delta
            minv[free] -= delta
            j0 = k + 1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    rows = p[1:] - 1
    total = float(C[rows, np.arange(n)].sum())
    return rows, total


def reference_auction_prices(C: np.ndarray) -> np.ndarray:
    """The auction over whole matrices: the offset matrix from an outer sum
    and each round's free rows gathered at once. The reference for the
    row-block `tp._auction_prices`."""
    n = C.shape[0]
    p = np.zeros(n)
    top = float(C.max()) if n >= 2 else 0.0
    if top <= 0:
        return p
    eps, final = top / 4, 1e-3 * top / n ** 0.5
    i = np.arange(n)                     # per-row cyclic tie-break < final
    C = np.add.outer(i, i) % n * (final / n) + C
    while True:
        owner = np.full(n, -1)               # row holding each column
        free = i
        while free.size > n // 50:
            V = C[free]
            V += p
            k = i[:free.size]
            j = V.argmin(axis=1)
            best = V[k, j]
            V[k, j] = np.inf
            bid = p[j] + (V.min(axis=1) - best) + eps
            order = np.lexsort((-bid, j))    # by column, highest bid first
            js = j[order]
            win = order[np.concatenate(([True], js[1:] != js[:-1]))]
            owner[j[win]] = free[win]
            p[j[win]] = bid[win]
            held = np.zeros(n, dtype=bool)
            held[owner[owner >= 0]] = True
            free = np.flatnonzero(~held)
        if eps <= final:
            return p
        eps = max(eps / 5, final)


def reference_sinkhorn(A, B, epsilon, max_iters=5000, tol=1e-6):
    """Sinkhorn with unconditional log-domain updates of the potentials; the
    reference for the scaling-form `tp.sinkhorn`. Returns (distance,
    coupling, iterations, converged)."""
    C = tp.cost_matrix(A, B)
    n = C.shape[0]
    logw = -np.log(n)                     # uniform weights
    K = -C / epsilon + logw               # log kernel, weights folded in
    f = np.zeros(n)
    g = np.zeros(n)
    converged = False
    iterations = 0
    check = 1 if max_iters <= 1000 else 10
    P = None
    for it in range(1, max_iters + 1):
        iterations = it
        f = -epsilon * tp._logsumexp(K + g[None, :] / epsilon, axis=1)
        g = -epsilon * tp._logsumexp(K + f[:, None] / epsilon, axis=0)
        if it % check == 0 or it == max_iters:
            P = np.exp((f[:, None] + g[None, :] - C) / epsilon + 2.0 * logw)
            err_r = float(np.abs(P.sum(axis=1) - 1.0 / n).sum())
            err_c = float(np.abs(P.sum(axis=0) - 1.0 / n).sum())
            if err_r < tol and err_c < tol:
                converged = True
                break
    return float((P * C).sum()), P, iterations, converged


def brute_force_cost(C):
    """Least total cost over all permutations; exhaustive, for n <= 7."""
    n = C.shape[0]
    return min(sum(C[i, perm[i]] for i in range(n))
               for perm in itertools.permutations(range(n)))


def brute_force_w1(A, B):
    return brute_force_cost(tp.cost_matrix(A, B)) / len(A)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_points_rejected(value):
    a = dc.rng_normal(1, (5, 2))
    b = dc.rng_normal(2, (5, 2))
    b[3, 1] = value
    # w1_exact last: its assignment solver never returns on a NaN cost
    for solve in (tp.cost_matrix, lambda x, y: tp.wp_sorted_1d(x, y, 1),
                  lambda x, y: tp.resample_to_equal(x, y[:4], 0),
                  lambda x, y: tp.sinkhorn(x, y, 0.1), tp.w1_exact):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError,
                               match=r"^point set must be finite \(NaN/Inf rejected\)$"):
                solve(x, y)


def direct_cost(A, B):
    """Euclidean distances from the (n, m, d) difference array, summed over d
    in one numpy call: the reference for the per-coordinate `tp.cost_matrix`."""
    A, B = tp._points(A), tp._points(B)
    diff = A[:, None, :] - B[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


class TestCostMatrix:
    M = 512
    # finite points, two of them 2e200 apart: a squared distance overflows
    OVERFLOW = ([[0.0, 0.0], [1e200, 0.0], [2.0, 1.0]],
                [[1.0, 0.0], [-1e200, 1.0], [3.0, 3.0]])

    @pytest.mark.parametrize("d", range(1, 8))
    def test_equals_direct_differences(self, d):
        # a row block holds 2**17 elements, 256 // d rows of M = 512; the
        # coordinates span six decades so that the summation order shows
        block = tp._BLOCK // (self.M * d)
        scale = 10.0 ** np.arange(-3, d - 3)
        B = dc.rng_normal(dc.substream(20, d), (self.M, d))
        for n in (2 * block, 2 * block + 1, 3):
            A = dc.rng_normal(dc.substream(21, d, n), (n, d)) * scale
            assert tp.cost_matrix(A, B).tobytes() == \
                direct_cost(A, B).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 8, 13])
    def test_identical_points_exact_zeros(self, d):
        x = dc.rng_normal(dc.substream(22, d), (300, d))
        assert (np.diag(tp.cost_matrix(x, x)) == 0.0).all()

    @pytest.mark.parametrize("d", [8, 13])
    def test_many_coordinates_within_rounding(self, d):
        # from 8 coordinates numpy sums pairwise, in 8 lanes, so the last
        # bit may differ from the sum in coordinate order
        a = dc.rng_normal(dc.substream(23, d), (300, d))
        b = dc.rng_normal(dc.substream(24, d), (200, d))
        want = direct_cost(a, b)
        assert np.abs(tp.cost_matrix(a, b) - want).max() <= 1e-15 * want.max()

    @pytest.mark.parametrize("solve", [
        tp.cost_matrix, tp.w1_exact, lambda a, b: tp.sinkhorn(a, b, 0.1),
        lambda a, b: tp.w1(a, b, "sinkhorn", seed=0)],
        ids=["cost_matrix", "w1_exact", "sinkhorn", "w1_sinkhorn"])
    def test_overflow_raises(self, solve):
        # on inf costs the exact solver's auction would never stop bidding
        with pytest.raises(ValueError,
                           match="^pairwise distances overflow float64$"):
            solve(*self.OVERFLOW)


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
                       - tp.wp_sorted_1d(a, b, 1).distance) < 1e-9

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

    def test_unequal_sizes_error(self):
        with pytest.raises(ValueError, match=r"use transport\.w1"):
            tp.w1_exact(np.zeros((3, 1)), np.zeros((4, 1)))
        with pytest.raises(ValueError, match=r"use transport\.w1"):
            tp.sinkhorn(np.zeros((3, 1)), np.zeros((4, 1)), 0.1)

    def test_guard(self):
        with pytest.raises(ValueError, match="sinkhorn"):
            tp.w1_exact(np.zeros((5000, 1)), np.zeros((5000, 1)))


def prices_of(C):
    """`tp._auction_prices` on a copy, since the auction consumes its matrix."""
    return tp._auction_prices(C.copy())


def assignment(C):
    """The exact assignment of a bare cost matrix as `tp.w1_exact` runs it:
    auction prices, then the search on the unmodified costs."""
    return tp._solve_assignment(C, prices_of(C))


def assert_optimal(C, want):
    rows, total = assignment(C)
    n = C.shape[0]
    assert sorted(rows.tolist()) == list(range(n))
    assert total == float(C[rows, np.arange(n)].sum())
    assert abs(total - want) <= 1e-9 * max(1.0, abs(want))


class TestAssignmentEquivalence:
    """The lazy-dual solver against brute force and the per-step reference."""

    def test_integer_costs_vs_brute_force(self):
        for trial in range(60):
            s = dc.substream(51, trial)
            n = 1 + trial % 7
            C = np.floor(dc.rng_uniform(s, (n, n)) * 4)   # ties everywhere
            assert_optimal(C, brute_force_cost(C))

    def test_duplicate_points_vs_brute_force(self):
        for trial in range(60):
            s = dc.substream(52, trial)
            n = 1 + trial % 7
            a = np.floor(dc.rng_uniform(dc.substream(s, 0), (n, 2)) * 3)
            b = np.floor(dc.rng_uniform(dc.substream(s, 1), (n, 2)) * 3)
            C = tp.cost_matrix(a, b)
            assert_optimal(C, brute_force_cost(C))

    def test_random_costs_vs_brute_force(self):
        for trial in range(60):
            n = 1 + trial % 7
            C = dc.rng_uniform(dc.substream(53, trial), (n, n))
            assert_optimal(C, brute_force_cost(C))

    def test_vs_reference_solver(self):
        for trial, n in enumerate((8, 17, 32, 64, 120, 200)):
            s = dc.substream(54, trial)
            a = dc.rng_normal(dc.substream(s, 0), (n, 2))
            b = dc.rng_normal(dc.substream(s, 1), (n, 2), 0.5, 1.0)
            C = tp.cost_matrix(a, b)
            assert_optimal(C, reference_assignment(C)[1])
            ties = np.floor(C * 2)
            assert_optimal(ties, reference_assignment(ties)[1])

    @pytest.mark.parametrize("n", [250, 300])
    def test_vs_reference_solver_drift_sizes(self, n):
        # about the drift estimator's class size; from n = 50 on, each
        # auction phase stops with n // 50 rows unassigned
        s = dc.substream(56, n)
        a = dc.rng_normal(dc.substream(s, 0), (n, 2))
        b = dc.rng_normal(dc.substream(s, 1), (n, 2), 0.5, 1.0)
        C = tp.cost_matrix(a, b)
        assert_optimal(C, reference_assignment(C)[1])
        ties = np.floor(C * 2)
        assert_optimal(ties, reference_assignment(ties)[1])

    def test_degenerate_vs_brute_force(self):
        for n in range(1, 8):
            for C in (np.zeros((n, n)), np.full((n, n), 2.5)):
                assert_optimal(C, brute_force_cost(C))
        for trial in range(60):
            n = 1 + trial % 7
            # costs spanning 1e-8 to 1e8
            u = dc.rng_uniform(dc.substream(55, trial), (n, n))
            C = 10.0 ** (u * 16 - 8)
            assert_optimal(C, brute_force_cost(C))

    def test_auction_prices_feasible_and_deterministic(self):
        assert not prices_of(np.full((1, 1), 3.0)).any()
        assert not prices_of(np.zeros((5, 5))).any()
        # the per-row tie-break sends the rows of an all-equal matrix to
        # distinct columns, one bid each a phase, so the prices stay equal
        assert np.ptp(prices_of(np.full((1024, 1024), 3.0))) == 0.0
        s = dc.substream(57, 0)
        C = tp.cost_matrix(dc.rng_normal(dc.substream(s, 0), (120, 2)),
                           dc.rng_normal(dc.substream(s, 1), (120, 2)))
        p = prices_of(C)
        assert p.tobytes() == prices_of(C).tobytes()
        # duals v = -p, u = min_j (C + p) are feasible and close nearly all
        # of the zero-dual start's gap to the optimum
        u = (C + p).min(axis=1)
        assert (C + p - u[:, None] >= 0).all()
        _, opt = assignment(C)
        assert opt - (u.sum() - p.sum()) <= 0.02 * (opt - C.min(axis=1).sum())

    @pytest.mark.parametrize("n, want", [(1024, "0x1.82eb63fa7ad7dp-1"),
                                         (250, "0x1.cf5a2b941dd25p-1")])
    def test_w1_exact_pinned(self, n, want):
        # the bits the zero-dual start gave before the auction warm start
        s = 61 if n == 1024 else 62
        a = dc.rng_normal(dc.substream(s, 0), (n, 2))
        b = dc.rng_normal(dc.substream(s, 1), (n, 2), 0.5, 1.0)
        assert tp.w1_exact(a, b).distance.hex() == want


def benchmark_pair():
    """The n = 1024 pair that `gradshift w1 --method exact` solves in the
    drift benchmark at seed 0."""
    rng = np.random.default_rng([0, 1])
    a = rng.standard_normal((1024, 2))
    return a, rng.standard_normal((1024, 2)) + [0.5, 0.0]


def benchmark_pair_costs():
    return tp.cost_matrix(*benchmark_pair())


def auction_cases(n):
    """Random, integer, duplicate-point (3 x 3 grid) and all-equal costs."""
    s = dc.substream(58, n)
    grid = [np.floor(dc.rng_uniform(dc.substream(s, 2, side), (n, 2)) * 3)
            for side in (0, 1)]
    return {"random": dc.rng_uniform(dc.substream(s, 0), (n, n)),
            "integer": np.floor(dc.rng_uniform(dc.substream(s, 1), (n, n)) * 4),
            "duplicates": tp.cost_matrix(*grid),
            "equal": np.full((n, n), 2.5)}


class TestAuctionBlocks:
    """The row-block auction and initial duals give the whole-matrix bits."""

    def test_benchmark_pair_bit_identical(self):
        C = benchmark_pair_costs()
        assert prices_of(C).tobytes() == \
            reference_auction_prices(C).tobytes()
        rows, total = assignment(C)
        # the matching and total of the whole-matrix auction
        assert total.hex() == "0x1.0e301b22420b0p+9"
        assert hashlib.sha256(rows.astype(np.int64).tobytes()).hexdigest()[
            :16] == "88d86bba427f6546"

    # 600 rows at 218 a block: the first round of each phase takes two full
    # blocks and a partial one; below 363 rows a round is one block
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 129, 250, 600])
    def test_cases_bit_identical(self, n):
        for name, C in auction_cases(n).items():
            assert prices_of(C).tobytes() == \
                reference_auction_prices(C).tobytes(), name

    @pytest.mark.parametrize("n", [7, 50, 129, 250])
    def test_small_blocks_bit_identical(self, n, monkeypatch):
        # 3 rows a block: most rounds end on a partial block
        monkeypatch.setattr(tp, "_BLOCK", 3 * n)
        for name, C in auction_cases(n).items():
            assert prices_of(C).tobytes() == \
                reference_auction_prices(C).tobytes(), name
            assert_optimal(C, reference_assignment(C)[1])

    def test_peak_memory(self):
        # the auction consumes the first cost matrix and the search gets a
        # second one, so an exact solve holds one n x n array and a row
        # block at a time; holding both matrices reached 2.26 n x n
        a, b = benchmark_pair()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tp.w1_exact(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * 8 * 1024 ** 2


class TestSorted1d:
    @pytest.mark.parametrize("p", [1, 2])
    def test_overflow_raises(self, p):
        # a difference of 2e308 once gave an infinite distance
        with pytest.raises(ValueError,
                           match="^pairwise distances overflow float64$"):
            tp.wp_sorted_1d([1e308, 0.0], [-1e308, 1.0], p)

    def test_example(self):
        res = tp.wp_sorted_1d([0.0, 1.0], [1.0, 2.0], 1)
        assert res.distance == 1.0
        assert res.coupling is None

    def test_identical(self):
        x = dc.rng_normal(5, (40,))
        assert tp.wp_sorted_1d(x, x, 1).distance == 0.0

    def test_monotone_in_p(self):
        # sorted-pairing W1 <= W2 on 1-D instances
        for trial in range(100):
            s = dc.substream(41, trial)
            a = dc.rng_normal(dc.substream(s, 0), (24,))
            b = dc.rng_normal(dc.substream(s, 1), (24,), 0.4, 1.3)
            w1 = tp.wp_sorted_1d(a, b, 1).distance
            w2 = tp.wp_sorted_1d(a, b, 2).distance
            assert w1 <= w2 + 1e-12

    def test_unequal_sizes_vs_replicated_brute_force(self):
        # each point of a set of n is replicated lcm(n, m) / n times, which
        # leaves the empirical measure unchanged and makes the sizes equal
        for trial, (n, m) in enumerate([(1, 3), (2, 3), (3, 2), (2, 6), (3, 6),
                                        (1, 7), (6, 2), (4, 2), (5, 1)]):
            s = dc.substream(43, trial)
            a = dc.rng_normal(dc.substream(s, 0), (n,))
            b = dc.rng_normal(dc.substream(s, 1), (m,), 0.3, 1.4)
            size = math.lcm(n, m)
            ra = np.repeat(a, size // n)
            rb = np.repeat(b, size // m)
            C = np.abs(ra[:, None] - rb[None, :])
            for p in (1, 2, 3):
                want = (brute_force_cost(C ** p) / size) ** (1.0 / p)
                got = tp.wp_sorted_1d(a, b, p).distance
                assert abs(got - want) <= 1e-12 * max(1.0, want)

    def test_unequal_sizes_vs_assignment(self):
        for trial, (n, m) in enumerate([(5, 7), (9, 6), (12, 8)]):
            s = dc.substream(44, trial)
            a = dc.rng_normal(dc.substream(s, 0), (n, 1))
            b = dc.rng_normal(dc.substream(s, 1), (m, 1), -0.2, 0.7)
            size = math.lcm(n, m)
            want = tp.w1_exact(np.repeat(a, size // n, axis=0),
                               np.repeat(b, size // m, axis=0)).distance
            assert abs(tp.wp_sorted_1d(a, b, 1).distance - want) <= 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            tp.wp_sorted_1d(np.zeros(0), [1.0], 1)

    def test_multi_dimensional_points_rejected(self):
        # flattening these 2-D sets gave 0.25, where W1 is the shift, 0.5
        a = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        b = a + [0.5, 0.0]
        assert tp.w1_exact(a, b).distance == 0.5
        for x, y in ((a, b), (a[:, 0], b)):
            with pytest.raises(ValueError) as err:
                tp.wp_sorted_1d(x, y, 1)
            assert str(err.value) == (f"sorted_1d requires 1-D points, got "
                                      f"shapes {x.shape} and {y.shape}")
        # (n,) and (n, 1) are the same set
        assert tp.wp_sorted_1d(a[:, :1], b[:, 0], 1).distance == 0.5


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

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf])
    def test_non_finite_epsilon(self, epsilon):
        # epsilon nan once gave a NaN distance
        with pytest.raises(ValueError,
                           match="^epsilon must be positive and finite"):
            tp.sinkhorn(np.zeros((2, 1)), np.zeros((2, 1)), epsilon)


FAR_APART = 20.0


def _clouds(seed, n, count, d=2):
    # clouds with different centres and spreads
    return [dc.rng_normal(dc.substream(seed, i), (n, d), 0.7 * i, 1.0 + 0.3 * i)
            for i in range(count)]


class TestMetricProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 12))
    def test_w1_exact_symmetric_and_triangle(self, seed, n):
        a, b, c = _clouds(seed, n, 3)
        ab, ba = tp.w1_exact(a, b).distance, tp.w1_exact(b, a).distance
        assert abs(ab - ba) <= 1e-12 * max(ab, 1.0)
        ac, bc = tp.w1_exact(a, c).distance, tp.w1_exact(b, c).distance
        assert ac <= ab + bc + 1e-12

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), n=st.integers(2, 10))
    def test_sinkhorn_symmetric_and_triangle(self, seed, n):
        # the entropic cost S lies in [W1, W1 + eps log n] (the entropy of a
        # coupling of two uniform n-point measures is in [log n, 2 log n]),
        # so the triangle inequality holds up to eps log n
        a, b, c = _clouds(seed, n, 3)
        eps = 0.5

        def s(x, y):
            res = tp.sinkhorn(x, y, eps, max_iters=20000, tol=1e-10)
            assert res.converged
            return res.distance

        ab, ba = s(a, b), s(b, a)
        assert abs(ab - ba) <= 1e-7 * max(ab, 1.0)
        assert s(a, c) <= ab + s(b, c) + eps * math.log(n) + 1e-7

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32), n=st.integers(1, 30),
           m=st.integers(1, 30), shift=st.floats(-5.0, 5.0),
           p=st.sampled_from([1, 2, 3]))
    def test_sorted_1d_translation(self, seed, n, m, shift, p):
        a, = _clouds(seed, n, 1, d=1)
        b = dc.rng_normal(dc.substream(seed, "b"), (m,), 0.4, 1.3)
        base = tp.wp_sorted_1d(a, b, p).distance
        moved = tp.wp_sorted_1d(a + shift, b + shift, p).distance
        assert abs(moved - base) <= 1e-12 * max(base, 1.0)
        assert abs(tp.wp_sorted_1d(a + shift, a, p).distance - abs(shift)) \
            <= 1e-12


class TestSinkhornEquivalence:
    """The scaling form against the log-domain reference: the same
    iterations, convergence, distance and coupling."""

    @pytest.mark.parametrize("shift", [0.5, FAR_APART])
    @pytest.mark.parametrize("factor", [1e-3, 1e-2, 0.1, 1.0])
    def test_vs_log_domain(self, factor, shift):
        a = dc.rng_normal(dc.substream(14, "a"), (40, 2))
        b = dc.rng_normal(dc.substream(14, "b"), (40, 2), shift, 1.0)
        eps = factor * float(tp.cost_matrix(a, b).mean())
        for max_iters in (3, 1500):
            res = tp.sinkhorn(a, b, eps, max_iters=max_iters)
            dist, P, iters, conv = reference_sinkhorn(a, b, eps, max_iters)
            assert (res.iterations, res.converged) == (iters, conv)
            assert abs(res.distance - dist) <= 1e-12 * max(1.0, dist)
            assert np.abs(res.coupling - P).max() <= 1e-12

    @pytest.mark.parametrize("n, shift, factor, max_iters, tol, fallback, "
                             "want", [(20, 5.0, 3e-3, 2000, 1e-6, 10, 110),
                                      (4, FAR_APART, 1e-3, 500, 0.5, 1, 1)])
    def test_column_fallback_on_check_iteration(self, monkeypatch, n, shift,
                                                factor, max_iters, tol,
                                                fallback, want):
        # far-apart clouds at a small epsilon: the column half-step of a
        # check iteration leaves the scaling range and rewrites columns of
        # K, so the check cannot reuse its a @ K. In the second case the
        # solve converges on that iteration, which a stale a @ K delays.
        a = dc.rng_normal(dc.substream(0, "a"), (n, 2))
        b = dc.rng_normal(dc.substream(0, "b"), (n, 2), shift, 1.0)
        eps = factor * float(tp.cost_matrix(a, b).mean())
        fell_back = []
        step = tp._scaling_step

        def spy(*args):
            fell_back.append(step(*args))
            return fell_back[-1]

        monkeypatch.setattr(tp, "_scaling_step", spy)
        res = tp.sinkhorn(a, b, eps, max_iters=max_iters, tol=tol)
        columns = [i // 2 + 1 for i, f in enumerate(fell_back) if f and i % 2]
        assert fallback in columns
        dist, P, iters, conv = reference_sinkhorn(a, b, eps, max_iters, tol)
        assert (res.iterations, res.converged) == (iters, conv) == (want, True)
        assert abs(res.distance - dist) <= 1e-12 * max(1.0, dist)
        assert np.abs(res.coupling - P).max() <= 1e-12

    def test_default_epsilon_250_points(self):
        a = dc.rng_normal(dc.substream(15, "a"), (250, 2))
        b = dc.rng_normal(dc.substream(15, "b"), (250, 2), 0.3, 1.0)
        eps = 0.01 * float(tp.cost_matrix(a, b).mean())
        res = tp.sinkhorn(a, b, eps, max_iters=400)
        dist, P, iters, conv = reference_sinkhorn(a, b, eps, 400)
        assert (res.iterations, res.converged) == (iters, conv)
        assert abs(res.distance - dist) <= 1e-12
        assert np.abs(res.coupling - P).max() <= 1e-12


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
        # about 1000 points a class with sigma 0.5: a class-mean difference
        # has a standard error of 0.022, and 0.07 is three of them
        assert abs(est.delta_hat - 0.3) < 0.07
        for t, v in enumerate(est.per_step):
            assert abs(v - 0.3) < 0.07
            a, b = seq.domains[t], seq.domains[t + 1]
            want = max(cdf_w1(a.features[a.labels == y].ravel(),
                              b.features[b.labels == y].ravel())
                       for y in range(seq.k))
            assert abs(v - want) <= 1e-12

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

    def test_iterations_total(self):
        seq = dom.make_shifting_gaussians(3, 64, shift_per_step=0.3, seed=5)
        assert tp.class_conditional_delta(seq, estimator="exact").iterations == 0
        est = tp.class_conditional_delta(seq, estimator="sinkhorn", max_iters=7)
        assert est.iterations == 7 * 2 * seq.k
        est = tp.class_conditional_delta(seq, estimator="sinkhorn")
        want = 0
        for t in range(seq.T - 1):
            a, b = seq.domains[t], seq.domains[t + 1]
            for y in range(seq.k):
                xa, xb = tp.resample_to_equal(a.features[a.labels == y],
                                              b.features[b.labels == y],
                                              dc.substream(0, t, y))
                eps = 0.01 * float(tp.cost_matrix(xa, xb).mean())
                want += tp.sinkhorn(xa, xb, eps, max_iters=2000).iterations
        assert est.iterations == want

    def test_1d_unequal_classes_unbiased(self):
        # same-law classes of 1000 and 960 points: the estimate is the exact
        # unequal-size W1 (here in the CDF form, the integral of |F_a - F_b|),
        # where resampling the larger class with replacement inflated it
        exact, resampled = [], []
        for s in range(20):
            a = dc.rng_normal(dc.substream(45, s, "a"), (1000, 1))
            b = dc.rng_normal(dc.substream(45, s, "b"), (960, 1))
            seq = dom.DomainSequence([dom.DomainBatch(0, a, np.zeros(1000, int), 1),
                                      dom.DomainBatch(1, b, np.zeros(960, int), 1)])
            got = tp.class_conditional_delta(seq, seed=s).delta_hat
            want = cdf_w1(a.ravel(), b.ravel())
            assert abs(got - want) <= 1e-12
            exact.append(got)
            ra, rb = tp.resample_to_equal(a, b, dc.substream(s, 0, 0))
            resampled.append(tp.wp_sorted_1d(ra, rb, 1).distance)
        assert 0.045 <= np.mean(exact) <= 0.06
        assert np.mean(resampled) >= 1.2 * np.mean(exact)


def cdf_w1(a, b):
    """1-D W1 as the integral over x of |F_a(x) - F_b(x)|."""
    x = np.sort(np.concatenate([a, b]))
    Fa = np.searchsorted(np.sort(a), x[:-1], side="right") / a.size
    Fb = np.searchsorted(np.sort(b), x[:-1], side="right") / b.size
    return float(np.sum(np.abs(Fa - Fb) * np.diff(x)))
