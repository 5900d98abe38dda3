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
    return a


def cost_matrix(A, B) -> np.ndarray:
    """Pairwise Euclidean distances, computed from direct differences so that
    identical points give exact zeros."""
    A, B = _points(A), _points(B)
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    n, m = A.shape[0], B.shape[0]
    out = np.empty((n, m))
    block = max(1, int(2**22 / max(m * A.shape[1], 1)))
    for s in range(0, n, block):
        e = min(s + block, n)
        diff = A[s:e, None, :] - B[None, :, :]
        out[s:e] = np.sqrt(np.sum(diff * diff, axis=2))
    return out


def _solve_assignment(C: np.ndarray):
    """Shortest augmenting paths with lazy dual updates (Crouse 2016); returns
    (row matched to each column, total cost). A visited column is masked by
    -inf in `vs`, the scratch copy of v, so its path cost d stays inf."""
    n = C.shape[0]
    u, v = np.zeros(n), np.zeros(n)
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


def w1_exact(A, B, *, include_coupling=None) -> TransportResult:
    """W1 between equal-size empirical measures via minimum-cost matching."""
    A, B = _points(A), _points(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"w1_exact needs equal sizes, got {A.shape[0]} and {B.shape[0]}; "
            "use resample_to_equal first")
    n = A.shape[0]
    if n > ASSIGNMENT_GUARD:
        raise ValueError(f"n={n} exceeds the assignment guard "
                         f"({ASSIGNMENT_GUARD}); use sinkhorn")
    C = cost_matrix(A, B)
    rows, total = _solve_assignment(C)
    if include_coupling is None:
        include_coupling = n <= 1024
    coupling = None
    if include_coupling:
        coupling = np.zeros((n, n))
        coupling[rows, np.arange(n)] = 1.0 / n
    return TransportResult(total / n, "exact_assignment", coupling)


def w1_sorted_1d(A, B) -> TransportResult:
    """Exact 1-D W1 for any two sizes; independent of the assignment solver."""
    return wp_sorted_1d(A, B, 1)


def wp_sorted_1d(A, B, p: float) -> TransportResult:
    """Exact 1-D W_p for sizes n, m as the integral of |F_a^-1 - F_b^-1|^p, a
    sum over the merged quantile breaks i*m, j*n (scaled by n*m); no coupling."""
    a = np.sort(np.asarray(A, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(B, dtype=np.float64).reshape(-1))
    n, m = a.shape[0], b.shape[0]
    if n == 0 or m == 0:
        raise ValueError(f"point sets must be non-empty, got sizes {n} and {m}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    breaks = np.union1d(np.arange(n + 1, dtype=np.int64) * m,
                        np.arange(m + 1, dtype=np.int64) * n)
    lo = breaks[:-1]
    total = float(np.dot(np.abs(a[lo // m] - b[lo // n]) ** p,
                         np.diff(breaks)) / (n * m))
    return TransportResult(total ** (1.0 / p), "sorted_1d")


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(m, axis=axis, keepdims=True)
    out = mx.squeeze(axis) + np.log(np.sum(np.exp(m - mx), axis=axis))
    return out


_SAFE = 1e50                              # scalings stay in [1/_SAFE, _SAFE]


def _scaling_step(s, x, p, q, y, C, K, eps, w):
    """Half-step x = 1 / (w s), s = K y, in place. An entry of x that would
    leave [1/_SAFE, _SAFE] is 1 instead, its log-domain update goes into the
    potential p, and its line of K = exp((p + q - C) / eps) is recomputed."""
    s *= w
    ok = (s > 1.0 / _SAFE) & (s < _SAFE)
    np.divide(1.0, s, out=x, where=ok)
    if not ok.all():
        bad = np.flatnonzero(~ok)
        qy = q + eps * np.log(y)
        p[bad] = -eps * (_logsumexp((qy - C[bad]) / eps, axis=1) + np.log(w))
        x[bad] = 1.0
        K[bad] = np.exp((p[bad, None] + q - C[bad]) / eps)


def sinkhorn(A, B, epsilon: float, max_iters: int = 5000,
             tol: float = 1e-6) -> TransportResult:
    """Entropic-regularized OT in stabilized scaling form (Schmitzer 2019):
    coupling w^2 diag(a) K diag(b), K = exp((f + g - C) / epsilon), w = 1/n.

    Distance is the transport cost <coupling, cost> without the entropy term.
    Non-convergence within max_iters flags the result instead of raising.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    A, B = _points(A), _points(B)
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"sinkhorn needs equal sizes, got {A.shape[0]} and {B.shape[0]}; "
            "use resample_to_equal first")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    n = A.shape[0]
    C = cost_matrix(A, B)
    w = 1.0 / n                           # uniform weights
    f, g, a, b = np.zeros(n), np.zeros(n), np.ones(n), np.ones(n)
    K = np.exp(-C / epsilon)
    converged = False
    check = 1 if max_iters <= 1000 else 10
    for iterations in range(1, max_iters + 1):
        _scaling_step(K @ b, a, f, g, b, C, K, epsilon, w)
        _scaling_step(a @ K, b, g, f, a, C.T, K.T, epsilon, w)
        if iterations % check == 0 or iterations == max_iters:
            err_r = float(np.abs(w * w * a * (K @ b) - w).sum())
            err_c = float(np.abs(w * w * b * (a @ K) - w).sum())
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


@dataclass
class DriftEstimate:
    per_step: list[float]              # max over classes, per consecutive pair
    delta_hat: float                   # max over steps
    estimator: str
    converged: bool                    # every Sinkhorn solve converged
    iterations: int                    # Sinkhorn iterations over all pairs


def class_conditional_delta(seq, p: int = 1, estimator: str = "exact",
                            seed: int = 0, epsilon: float | None = None,
                            max_iters: int = 2000) -> DriftEstimate:
    """Empirical per-step drift: W1 between class-conditional feature sets of
    consecutive domains, maxed over classes then over steps.

    estimator="exact" uses the quantile integral in one dimension (any class
    sizes) and otherwise the assignment solver; "sinkhorn" uses the entropic
    solver with epsilon defaulting to 0.01 * mean cost per pair. The two
    solvers get class sets resampled to equal size. `converged` is false if
    any Sinkhorn solve stopped at max_iters.
    """
    if p != 1:
        raise ValueError("only p=1 is exposed for multi-sample drift estimation")
    if estimator not in ("exact", "sinkhorn"):
        raise ValueError(f"unknown estimator {estimator!r}")
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
            xa = a.features[a.labels == y]
            xb = b.features[b.labels == y]
            if estimator == "sinkhorn" or seq.d > 1:
                xa, xb = resample_to_equal(xa, xb, dc.substream(seed, t, y))
            if estimator == "exact":
                if seq.d == 1:
                    res = w1_sorted_1d(xa, xb)
                else:
                    res = w1_exact(xa, xb, include_coupling=False)
            else:
                eps = epsilon
                if eps is None:
                    eps = 0.01 * float(cost_matrix(xa, xb).mean())
                res = sinkhorn(xa, xb, eps, max_iters=max_iters)
                converged = converged and res.converged
                iters += res.iterations
            worst = max(worst, res.distance)
        per_step.append(worst)
    return DriftEstimate(per_step, max(per_step), estimator, converged, iters)
