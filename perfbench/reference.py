"""Reference computations the benchmark checks the program against.

Nothing here imports gradshift: every value is computed from the inputs
with numpy, scipy or the standard library alone.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"GSHIFT01"


def w1_quantile_1d(a, b) -> float:
    """Exact W1 between two 1-D empirical measures of any sizes.

    W1 is the integral over q in (0, 1) of |F_a^-1(q) - F_b^-1(q)|. Both
    quantile functions are step functions with breaks at i/n and j/m; on the
    common grid k/(n*m) every break is an integer k, so the integral is an
    exact sum over the merged integer breakpoints.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    n, m = a.size, b.size
    if n == 0 or m == 0:
        raise ValueError("empty point set")
    breaks = np.union1d(np.arange(n + 1, dtype=np.int64) * m,
                        np.arange(m + 1, dtype=np.int64) * n)
    lo = breaks[:-1]
    width = np.diff(breaks)
    return float(np.sum(width * np.abs(a[lo // m] - b[lo // n])) / (n * m))


def cost_matrix(A, B) -> np.ndarray:
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    return np.sqrt(((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))


def optimal_matching(A, B):
    """Minimum-cost perfect matching between equal-size point sets.

    Returns (mean cost, col) with A[i] matched to B[col[i]]; the mean cost
    of this matching is the exact W1 between the two empirical measures.
    """
    # imported here: scipy's import time would otherwise count as set-up
    from scipy.optimize import linear_sum_assignment
    C = cost_matrix(A, B)
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].mean()), cols


def matching_cost(A, B, col) -> float:
    """Mean Euclidean cost of the matching A[i] -> B[col[i]]; any matching
    bounds W1 from above."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)[col]
    return float(np.sqrt(((A - B) ** 2).sum(axis=1)).mean())


def unit_directions(d: int, count: int) -> np.ndarray:
    """Evenly spread unit vectors in 2-D; fixed pseudo-random ones otherwise."""
    if d == 1:
        return np.ones((1, 1))
    if d == 2:
        ang = np.pi * np.arange(count) / count
        return np.stack([np.cos(ang), np.sin(ang)], axis=1)
    v = np.random.default_rng(0).standard_normal((count, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sliced_lower_bound(A, B, count: int = 64) -> float:
    """max over unit directions u of W1(<A, u>, <B, u>).

    Projection onto a unit vector is 1-Lipschitz, so every projected W1 is at
    most the W1 of the point sets. The direction of the mean difference is
    included, so the bound is also at least the norm of the mean difference.
    """
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    dirs = list(unit_directions(A.shape[1], count))
    diff = B.mean(axis=0) - A.mean(axis=0)
    if np.linalg.norm(diff) > 0:
        dirs.append(diff / np.linalg.norm(diff))
    return max(w1_quantile_1d(A @ u, B @ u) for u in dirs)


# ---------------------------------------------------------------------------
# checkpoints and forward passes

def read_checkpoint(path):
    """Parse a checkpoint file with struct alone.

    Layout: 8-byte magic, u32 version, u32 array count, one (rows, cols) u32
    pair per array (cols = 0 marks 1-D), the float64 payloads in order, and a
    32-byte config digest. Returns (version, arrays, digest); the first array
    is the training position [domain_index, epoch].
    """
    raw = Path(path).read_bytes()
    if raw[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: bad magic {raw[:8]!r}")
    version, count = struct.unpack_from("<II", raw, 8)
    shapes = [struct.unpack_from("<II", raw, 16 + 8 * i) for i in range(count)]
    ofs = 16 + 8 * count
    arrays = []
    for rows, cols in shapes:
        size = rows * (cols or 1)
        values = struct.unpack_from(f"<{size}d", raw, ofs)
        ofs += 8 * size
        a = np.array(values, dtype=np.float64)
        arrays.append(a.reshape(rows, cols) if cols else a)
    digest = raw[ofs:ofs + 32]
    if len(digest) != 32 or ofs + 32 != len(raw):
        raise ValueError(f"{path}: {len(raw) - ofs} bytes after the payload, "
                         "expected a 32-byte digest")
    return version, arrays, digest


def mlp_forward(x, layers) -> np.ndarray:
    """layers: (weight (fan_in, fan_out), bias, activation) triples."""
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in layers:
        h = np.dot(h, w) + b
        if act == "relu":
            h = np.where(h > 0.0, h, 0.0)
        elif act == "tanh":
            h = np.tanh(h)
        elif act != "identity":
            raise ValueError(f"unknown activation {act!r}")
    return h


# ---------------------------------------------------------------------------
# closed-form bound terms

def bound_terms(T, n, M, rho, Delta, delta, vc, rseq_c, c_online) -> dict:
    """The excess-risk terms of the gradual-adaptation bound:

    e1 = 3/T + (3M/T) sqrt(8 ln(1/delta))
    e2 = (1/T) sqrt((vc + ln(2/delta)) / (2n)) + c_online / sqrt(nT)
    e3 = 18 M sqrt(4 pi ln T) rseq + 3 T rho Delta,
         rseq = rseq_c / sqrt(n (T - 1))
    """
    rseq = rseq_c / math.sqrt(n * (T - 1))
    parts = {
        "e1_decay": 3.0 / T,
        "e1_confidence": 3.0 * M / T * math.sqrt(8.0 * math.log(1.0 / delta)),
        "e2_vc": math.sqrt((vc + math.log(2.0 / delta)) / (2.0 * n)) / T,
        "e2_online": c_online / math.sqrt(n * T),
        "e3_complexity": 18.0 * M * math.sqrt(4.0 * math.pi * math.log(T)) * rseq,
        "e3_drift": 3.0 * T * rho * Delta,
        "rseq": rseq,
    }
    e1 = parts["e1_decay"] + parts["e1_confidence"]
    e2 = parts["e2_vc"] + parts["e2_online"]
    e3 = parts["e3_complexity"] + parts["e3_drift"]
    return {"e1": e1, "e2": e2, "e3": e3, "total": e1 + e2 + e3,
            "parts": parts}


def mean_abs_rademacher_sum(T: int) -> float:
    """E|sum_t eps_t| / T over T independent fair signs, by enumeration."""
    total = sum(abs(sum(1 if (mask >> t) & 1 else -1 for t in range(T)))
                for mask in range(2 ** T))
    return total / (2 ** T * T)


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
