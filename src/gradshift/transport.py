"""Empirical Wasserstein machinery: exact W1 by minimum-cost matching,
the exact quantile integral in one dimension (any sizes), stabilized
entropic approximation, and the class-conditional drift estimator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc

ASSIGNMENT_GUARD = 4096


@dataclass
class TransportResult:
    distance: float
    method: str                       # exact_assignment | sorted_1d | sinkhorn
    coupling: np.ndarray | None = None
    iterations: int = 0
    converged: bool = True


def _points(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2 or a.shape[0] < 1:
        raise ValueError(f"point set must be (n, d), got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("point set must be finite (NaN/Inf rejected)")
    return a


_BLOCK = 2 ** 17                 # elements in a cost or assignment row block


def cost_matrix(A, B) -> np.ndarray:
    """Pairwise Euclidean distances, computed from direct differences so that
    identical points give exact zeros. Each block of rows sums its squared
    coordinate differences in coordinate order, as numpy's sum over the last
    axis does below 8 coordinates. Raises ValueError if a distance overflows
    float64."""
    A, B = _points(A), _points(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    (n, d), m = A.shape, B.shape[0]
    out = np.empty((n, m))
    block = max(1, _BLOCK // max(m * d, 1))   # rows
    sq = np.empty((min(block, n), m))
    with np.errstate(over="ignore"):         # an overflow is an inf, checked
        for s in range(0, n, block):
            a, acc = A[s:s + block], out[s:s + block]
            np.subtract.outer(a[:, 0], B[:, 0], out=acc)
            acc *= acc
            for k in range(1, d):
                t = np.subtract.outer(a[:, k], B[:, k], out=sq[:len(a)])
                t *= t
                acc += t
            if np.isinf(acc).any():
                raise ValueError("pairwise distances overflow float64")
            np.sqrt(acc, out=acc)
    return out


def _auction_prices(C: np.ndarray) -> np.ndarray:
    """Column prices p from an eps-scaled Jacobi auction (Bertsekas 1988): each
    unassigned row bids for its best column of C + p by its margin over the
    second best plus eps, and a column goes to its highest bid (earliest row on
    a tie). eps falls 5x a phase from max C / 4 to 1e-3 max C / sqrt(n); a
    phase ends with n // 50 rows unassigned, since only the prices are kept.
    Rows bid in blocks of about _BLOCK elements; a row's bid reads only that
    row, so the blocks do not change the prices. C is consumed: it is
    overwritten with the tie-broken costs the rows bid on."""
    n = C.shape[0]
    p = np.zeros(n)
    top = float(C.max()) if n >= 2 else 0.0
    if top <= 0:
        return p
    eps, final = top / 4, 1e-3 * top / n ** 0.5
    i = np.arange(n)
    # per-row cyclic tie-break ((r + j) mod n) * final / n < final: row r of
    # it is window r of the doubled ramp, added into C one block at a time
    ramp = np.concatenate((i, i)) * (final / n)
    tie = np.lib.stride_tricks.sliding_window_view(ramp, n)[:n]
    block = max(1, _BLOCK // n)              # rows
    for s in range(0, n, block):
        np.add(tie[s:s + block], C[s:s + block], out=C[s:s + block])
    while True:
        owner = np.full(n, -1)               # row holding each column
        free = i
        while free.size > n // 50:
            j = np.empty(free.size, dtype=np.intp)
            best, second = np.empty(free.size), np.empty(free.size)
            for s in range(0, free.size, block):
                V = C[free[s:s + block]]
                V += p
                k = i[:len(V)]
                jb = V.argmin(axis=1)
                j[s:s + block] = jb
                best[s:s + block] = V[k, jb]
                V[k, jb] = np.inf
                V.min(axis=1, out=second[s:s + block])
            bid = p[j] + (second - best) + eps
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


def _solve_assignment(C: np.ndarray, p: np.ndarray):
    """Shortest augmenting paths with lazy dual updates (Crouse 2016) from the
    feasible duals v = -p, u = min_j (C - v) of auction prices p; returns (row
    matched to each column, total cost). A visited column is masked by -inf in
    `vs`, the scratch copy of v, so its path cost d stays inf."""
    n = C.shape[0]
    v = -p
    u = np.empty(n)
    block = max(1, _BLOCK // n)              # rows
    for s in range(0, n, block):
        np.min(C[s:s + block] - v, axis=1, out=u[s:s + block])
    row4col = [-1] * n
    d, r, vs = np.empty(n), np.empty(n), np.empty(n)
    for cur in range(n):
        d.fill(np.inf)
        vs[:] = v
        rows, offs = [], []                  # scanned rows, minval - u[row]
        cols, dcol = [], []                  # visited columns, path costs
        i, minval = cur, 0.0
        while i >= 0:
            rows.append(i)
            offs.append(minval - u[i])
            np.subtract(C[i], vs, out=r)
            r += offs[-1]
            np.minimum(d, r, out=d)
            j = int(d.argmin())
            minval = float(d[j])
            cols.append(j)
            dcol.append(minval)
            vs[j] = -np.inf
            d[j] = np.inf
            i = row4col[j]
        rows, offs, dcol = np.array(rows), np.array(offs), np.array(dcol)
        # cols[t] was reached from the first of rows[:t+1] giving its path
        # cost (a strict-< update's tie rule); rows[s] came through cols[s-1]
        t = len(cols) - 1
        while t >= 0:
            j = cols[t]
            s = int(np.argmin((C[rows[:t + 1], j] - v[j]) + offs[:t + 1]))
            row4col[j] = int(rows[s])
            t = s - 1
        u[cur] += minval
        u[rows[1:]] += minval - dcol[:-1]
        v[cols] -= minval - dcol
    rows = np.array(row4col)
    return rows, float(C[rows, np.arange(n)].sum())


def w1_exact(A, B) -> TransportResult:
    """W1 between equal-size empirical measures via minimum-cost matching."""
    A, B = _points(A), _points(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"w1_exact needs equal sizes, got {A.shape[0]} and {B.shape[0]}; "
            "use transport.w1, which resamples them")
    n = A.shape[0]
    if n > ASSIGNMENT_GUARD:
        raise ValueError(f"n={n} exceeds the assignment guard "
                         f"({ASSIGNMENT_GUARD}); use sinkhorn")
    # the auction consumes its matrix and the search gets the same bits built
    # again, so the solve never holds two n x n arrays
    p = _auction_prices(cost_matrix(A, B))
    _, total = _solve_assignment(cost_matrix(A, B), p)
    return TransportResult(total / n, "exact_assignment")


def wp_sorted_1d(A, B, p: float) -> TransportResult:
    """Exact 1-D W_p for sizes n, m as the integral of |F_a^-1 - F_b^-1|^p, a
    sum over the merged quantile breaks i*m, j*n (scaled by n*m); no coupling.
    Each set is (n,) or (n, 1)."""
    a = np.asarray(A, dtype=np.float64)
    b = np.asarray(B, dtype=np.float64)
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError(f"point sets must be non-empty, got sizes {n} and {m}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("point set must be finite (NaN/Inf rejected)")
    if a.shape not in ((n,), (n, 1)) or b.shape not in ((m,), (m, 1)):
        raise ValueError(f"sorted_1d requires 1-D points, got shapes "
                         f"{a.shape} and {b.shape}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    a, b = np.sort(a.reshape(-1)), np.sort(b.reshape(-1))
    breaks = np.union1d(np.arange(n + 1, dtype=np.int64) * m,
                        np.arange(m + 1, dtype=np.int64) * n)
    lo = breaks[:-1]
    with np.errstate(over="ignore"):         # an overflow is an inf, checked
        total = float(np.dot(np.abs(a[lo // m] - b[lo // n]) ** p,
                             np.diff(breaks)) / (n * m))
    if np.isinf(total):
        raise ValueError("pairwise distances overflow float64")
    return TransportResult(total ** (1.0 / p), "sorted_1d")


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(m, axis=axis, keepdims=True)
    out = mx.squeeze(axis) + np.log(np.sum(np.exp(m - mx), axis=axis))
    return out


_SAFE = 1e50                              # scalings stay in [1/_SAFE, _SAFE]


def _scaling_step(s, x, p, q, y, C, K, eps, w) -> bool:
    """Half-step x = 1 / (w s), s = K y, in place; s is left as it is. An
    entry of x that would leave [1/_SAFE, _SAFE] is 1 instead, its log-domain
    update goes into the potential p, and its line of K = exp((p + q - C) /
    eps) is recomputed. Returns whether any entry took that fallback."""
    np.multiply(s, w, out=x)
    if 1.0 / _SAFE < x.min() and x.max() < _SAFE:
        np.divide(1.0, x, out=x)
        return False
    ok = (x > 1.0 / _SAFE) & (x < _SAFE)
    np.divide(1.0, x, out=x, where=ok)
    bad = np.flatnonzero(~ok)
    qy = q + eps * np.log(y)
    p[bad] = -eps * (_logsumexp((qy - C[bad]) / eps, axis=1) + np.log(w))
    x[bad] = 1.0
    K[bad] = np.exp((p[bad, None] + q - C[bad]) / eps)
    return True


def sinkhorn(A, B, epsilon: float, max_iters: int = 5000,
             tol: float = 1e-6) -> TransportResult:
    """Entropic-regularized OT in stabilized scaling form (Schmitzer 2019):
    coupling w^2 diag(a) K diag(b), K = exp((f + g - C) / epsilon), w = 1/n.

    Distance is the transport cost <coupling, cost> without the entropy term.
    Non-convergence within max_iters flags the result instead of raising.
    """
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    A, B = _points(A), _points(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"sinkhorn needs equal sizes, got {A.shape[0]} and {B.shape[0]}; "
            "use transport.w1, which resamples them")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    n = A.shape[0]
    C = cost_matrix(A, B)
    w = 1.0 / n                           # uniform weights
    f, g, a, b = np.zeros(n), np.zeros(n), np.ones(n), np.ones(n)
    K = np.exp(-C / epsilon)
    converged = False
    check = 1 if max_iters <= 1000 else 10
    Kb = K @ b
    for iterations in range(1, max_iters + 1):
        _scaling_step(Kb, a, f, g, b, C, K, epsilon, w)
        aK = a @ K
        fell_back = _scaling_step(aK, b, g, f, a, C.T, K.T, epsilon, w)
        Kb = K @ b                        # the check's and the next row step's
        if iterations % check == 0 or iterations == max_iters:
            if fell_back:                 # it rewrote columns of K
                aK = a @ K
            err_r = float(np.abs(w * w * a * Kb - w).sum())
            err_c = float(np.abs(w * w * b * aK - w).sum())
            if err_r < tol and err_c < tol:
                converged = True
                break
    P = (w * w * a)[:, None] * K * b
    return TransportResult(float((P * C).sum()), "sinkhorn", P, iterations,
                           converged)


def resample_to_equal(A, B, seed: int):
    """Deterministically resample the larger set with replacement down to the
    smaller count; the smaller set is returned unchanged."""
    A, B = _points(A), _points(B)
    na, nb = A.shape[0], B.shape[0]
    if na == nb:
        return A, B
    m = min(na, nb)
    if na > m:
        idx = (dc.rng_uniform(dc.substream(seed, "resample", 0), (m,)) * na).astype(int)
        A = A[np.minimum(idx, na - 1)]
    if nb > m:
        idx = (dc.rng_uniform(dc.substream(seed, "resample", 1), (m,)) * nb).astype(int)
        B = B[np.minimum(idx, nb - 1)]
    return A, B


def w1(A, B, method: str, *, seed: int, epsilon: float | None = None,
       max_iters: int = 5000, tol: float = 1e-6):
    """W1 by method "exact" (assignment), "sorted_1d" (1-D quantile integral)
    or "sinkhorn"; returns (TransportResult, resampled). exact and sinkhorn
    first resample unequal sets to the smaller count, drawn from `seed`.
    Sinkhorn's epsilon defaults to a hundredth of the pair's mean cost.
    """
    if method not in ("exact", "sorted_1d", "sinkhorn"):
        raise ValueError(f"unknown W1 method {method!r}")
    if method == "sorted_1d":
        return wp_sorted_1d(A, B, 1), False
    resampled = len(A) != len(B)
    if resampled:
        A, B = resample_to_equal(A, B, seed)
    if method == "exact":
        return w1_exact(A, B), resampled
    if epsilon is None:
        epsilon = 0.01 * float(cost_matrix(A, B).mean())
    return sinkhorn(A, B, epsilon, max_iters=max_iters, tol=tol), resampled


@dataclass
class DriftEstimate:
    per_step: list[float]              # max over classes, per consecutive pair
    delta_hat: float                   # max over steps
    estimator: str
    converged: bool                    # every Sinkhorn solve converged
    iterations: int                    # Sinkhorn iterations over all pairs


def class_conditional_delta(seq, estimator: str = "exact", seed: int = 0,
                            epsilon: float | None = None,
                            max_iters: int = 2000) -> DriftEstimate:
    """Empirical per-step drift: W1 between class-conditional feature sets of
    consecutive domains, maxed over classes then over steps.

    estimator="exact" uses the quantile integral in one dimension (any class
    sizes) and otherwise the assignment solver; "sinkhorn" uses the entropic
    solver. Each pair is one w1 call, seeded by (seed, step, class).
    `converged` is false if any Sinkhorn solve stopped at max_iters.
    """
    if estimator not in ("exact", "sinkhorn"):
        raise ValueError(f"unknown estimator {estimator!r}")
    method = "sorted_1d" if estimator == "exact" and seq.d == 1 else estimator
    for dom in seq.domains:
        present = np.unique(dom.labels)
        for y in range(seq.k):
            if y not in present:
                raise ValueError(f"class {y} missing in domain t={dom.t}")
    per_step = []
    converged = True
    iters = 0
    for t in range(seq.T - 1):
        a, b = seq.domains[t], seq.domains[t + 1]
        worst = 0.0
        for y in range(seq.k):
            res, _ = w1(a.features[a.labels == y], b.features[b.labels == y],
                        method, seed=dc.substream(seed, t, y), epsilon=epsilon,
                        max_iters=max_iters)
            converged = converged and res.converged
            iters += res.iterations
            worst = max(worst, res.distance)
        per_step.append(worst)
    return DriftEstimate(per_step, max(per_step), estimator, converged, iters)
