"""Empirical Wasserstein machinery: exact W1 by minimum-cost matching,
a sorted-coupling fast path in one dimension, log-domain entropic
approximation, and the class-conditional drift estimator.
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
    """Shortest-augmenting-path assignment with potentials; returns
    (row matched to each column, total cost)."""
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
    """Exact 1-D W1 by sorted pairing; independent of the assignment solver."""
    return wp_sorted_1d(A, B, 1)


def wp_sorted_1d(A, B, p: float) -> TransportResult:
    a = np.asarray(A, dtype=np.float64).reshape(-1)
    b = np.asarray(B, dtype=np.float64).reshape(-1)
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"equal sizes required, got {a.shape[0]} and {b.shape[0]}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    diffs = np.abs(np.sort(a) - np.sort(b))
    if p == 1:
        dist = float(np.mean(diffs))
    else:
        dist = float(np.mean(diffs ** p) ** (1.0 / p))
    n = a.shape[0]
    coupling = np.zeros((n, n))
    coupling[np.argsort(a, kind="stable"), np.argsort(b, kind="stable")] = 1.0 / n
    return TransportResult(dist, "sorted_1d", coupling)


def _logsumexp(m: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(m, axis=axis, keepdims=True)
    out = mx.squeeze(axis) + np.log(np.sum(np.exp(m - mx), axis=axis))
    return out


def sinkhorn(A, B, epsilon: float, max_iters: int = 5000,
             tol: float = 1e-6) -> TransportResult:
    """Entropic-regularized OT with unconditional log-domain updates.

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
        f = -epsilon * _logsumexp(K + g[None, :] / epsilon, axis=1)
        g = -epsilon * _logsumexp(K + f[:, None] / epsilon, axis=0)
        if it % check == 0 or it == max_iters:
            P = np.exp((f[:, None] + g[None, :] - C) / epsilon + 2.0 * logw)
            err_r = float(np.abs(P.sum(axis=1) - 1.0 / n).sum())
            err_c = float(np.abs(P.sum(axis=0) - 1.0 / n).sum())
            if err_r < tol and err_c < tol:
                converged = True
                break
    dist = float((P * C).sum())
    return TransportResult(dist, "sinkhorn", P, iterations, converged)


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


def class_conditional_delta(seq, p: int = 1, estimator: str = "exact",
                            seed: int = 0, epsilon: float | None = None,
                            max_iters: int = 2000) -> DriftEstimate:
    """Empirical per-step drift: W1 between class-conditional feature sets of
    consecutive domains, maxed over classes then over steps.

    estimator="exact" uses the sorted coupling in one dimension (exact there)
    and the assignment solver otherwise; "sinkhorn" uses the entropic solver
    with epsilon defaulting to 0.01 * mean cost per pair.
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
    for t in range(seq.T - 1):
        a, b = seq.domains[t], seq.domains[t + 1]
        worst = 0.0
        for y in range(seq.k):
            xa = a.features[a.labels == y]
            xb = b.features[b.labels == y]
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
            worst = max(worst, res.distance)
        per_step.append(worst)
    return DriftEstimate(per_step, max(per_step), estimator)
