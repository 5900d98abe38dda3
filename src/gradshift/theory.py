"""Executable theory diagnostics: the non-stationarity discrepancy estimator,
the two-domain loss-gap check, the excess-risk bound terms with their horizon
trade-off, and exact sequential complexity enumeration on tiny instances.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from . import models as md
from .domains import DomainSequence
from .objectives import LossSpec, ModelSpec, TrainConfig, loss_values_np, train_erm
from .objectives import build_model


# ---------------------------------------------------------------------------
# discrepancy

def make_hypothesis_pool(seq: DomainSequence, n_random: int, n_snapshots: int,
                         seed: int, spec: ModelSpec | None = None) -> list:
    """(g, h) pairs: random feature/classifier inits, then short-training
    snapshots."""
    spec = spec if spec is not None else ModelSpec()
    pool = []
    for i in range(n_random):
        m = build_model(spec, seq.d, seq.k, dc.substream(seed, "rand", i))
        pool.append((m.g, m.h))
    if n_snapshots > 0:
        cfg = TrainConfig(seed=dc.substream(seed, "snap"), epochs_per_domain=1,
                          lam=0.0)
        model = build_model(spec, seq.d, seq.k, dc.substream(seed, "snap-init"))
        for i in range(n_snapshots):
            dom = seq.domains[i % max(seq.T - 1, 1)]
            model, _ = train_erm(model, dom, cfg, stage=i)
            pool.append((model.g.copy(), model.h.copy()))
    return pool


def estimate_discrepancy(seq: DomainSequence, pool: list,
                         loss: LossSpec) -> float:
    """Largest gap, over the pool's (g, h) pairs, between the final domain's
    loss and the average loss over the earlier domains (1/(T-1) weighting)."""
    if seq.T < 2:
        raise ValueError("discrepancy needs T >= 2 domains")
    if not pool:
        raise ValueError("hypothesis pool must be non-empty")
    best = -math.inf
    for g, h in pool:
        if g.in_dim != seq.d:
            raise ValueError(f"pool feature map expects d={g.in_dim}, "
                             f"sequence has d={seq.d}")
        per_domain = []
        for dom in seq.domains:
            logits = md.mlp_eval(h, md.mlp_eval(g, dom.features))
            per_domain.append(float(loss_values_np(loss, logits, dom.labels).mean()))
        # mean of differences rather than difference of means: exactly zero
        # when all domains carry the same samples
        diffs = [per_domain[-1] - v for v in per_domain[:-1]]
        disc = math.fsum(diffs) / len(diffs)
        best = max(best, disc)
    return best


# ---------------------------------------------------------------------------
# two-domain loss gap (the rho * W1 bound)

@dataclass
class GapCheckReport:
    trials: int
    violations: int
    violation_rate: float
    max_gap: float
    bound: float                 # rho * |shift|, rho times the exact W1


LEMMA1_BLOCK = 16                # trials per draw; a block stays in cache


def check_lemma1(sampler, shift: float, loss, rho: float, trials: int, n: int,
                 seed: int) -> GapCheckReport:
    """Empirical check that |E_mu loss - E_nu loss| <= rho * W1 + sampling slack
    on a translation family: nu is mu moved by `shift`, so W1(mu, nu) is
    |shift| exactly and the two samples of a trial share their randoms.

    `sampler(seeds, n)` gives one (n,) sample of mu per seed, as rows; `loss`
    is a rho-Lipschitz bounded function applied elementwise. Trials run in
    blocks of LEMMA1_BLOCK rows, trial i seeded by substream(seed, "trial",
    i). A trial violates when its gap exceeds rho * |shift| + 3 * stderr of
    the gap + slack, where slack bounds what rounding adds to the gap.

    The slack is twice a first-order bound, in u = 2^-53, on what rounding
    adds to the gap. A mean of n floats, summed in any order, lies within
    about n u mean|a| of their exact mean (Higham 2002, sec. 4.2), so the two
    means add n u (mean|a| + mean|b|). Each shifted point y = fl(x + shift)
    lies within u |y| of x + shift, which moves the exact mean of a
    rho-Lipschitz loss by at most rho u mean|y|. The loss itself is taken as
    exact (clamp_loss is), and the factor 2 covers the second-order terms
    and the roundings of the gap and the threshold. Without the slack, a
    sample with no spread (stderr 0) shows its rounding as a violation.
    """
    if n < 1 or trials < 1:
        raise ValueError(f"n and trials must be >= 1, got n={n}, "
                         f"trials={trials}")
    if not (rho > 0 and math.isfinite(rho) and math.isfinite(shift)):
        raise ValueError(f"rho must be positive and finite and shift finite, "
                         f"got rho={rho}, shift={shift}")
    bound = rho * abs(shift)
    violations = 0
    max_gap = 0.0
    for lo in range(0, trials, LEMMA1_BLOCK):
        seeds = [dc.substream(seed, "trial", i)
                 for i in range(lo, min(lo + LEMMA1_BLOCK, trials))]
        x = sampler(seeds, n)
        y = x + shift
        a, b = loss(x), loss(y)
        gap = np.abs(a.mean(axis=1) - b.mean(axis=1))
        stderr = np.sqrt(a.var(axis=1) / n + b.var(axis=1) / n)
        slack = 2.0 ** -52 * (n * (np.abs(a).mean(axis=1)
                                   + np.abs(b).mean(axis=1))
                              + rho * np.abs(y).mean(axis=1))
        violations += int((gap > bound + 3.0 * stderr + slack).sum())
        max_gap = max(max_gap, float(gap.max()))
    return GapCheckReport(trials, violations, violations / trials,
                          max_gap, bound)


def gaussian_sampler(mu: float, sigma: float):
    """Sampler of N(mu, sigma^2): (seeds, n) -> (len(seeds), n) rows."""
    if sigma < 0:
        raise ValueError(f"normal requires sigma >= 0, got {sigma}")
    return lambda seeds, n: mu + sigma * dc.normal_rows(seeds, n)


def clamp_loss(lo: float, hi: float):
    """1-Lipschitz bounded loss x -> clamp(x, lo, hi)."""
    if not lo < hi:
        raise ValueError(f"clamp needs lo < hi, got ({lo}, {hi})")
    return lambda x: np.clip(x, lo, hi)


# ---------------------------------------------------------------------------
# excess-risk bound

@dataclass
class BoundInputs:
    T: int
    n: int
    M: float = 1.0
    rho: float = 1.0
    drift: float = 0.0           # per-step class-conditional W1 bound
    delta: float = 0.1           # confidence level
    vc: float = 10.0             # VC-dimension proxy for the classifier class
    rseq: float | None = None    # explicit proxy, or None for c/sqrt(n(T-1))
    rseq_c: float = 1.0
    c_online: float = 1.0

    def __post_init__(self):
        for name in ("M", "rho", "drift", "delta", "vc", "rseq", "rseq_c",
                     "c_online"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.T < 2:
            raise ValueError(f"T must be >= 2, got {self.T}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        for name in ("n", "M", "rho", "vc", "rseq_c", "c_online"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.drift < 0:
            raise ValueError("drift must be >= 0")
        if self.rseq is not None and self.rseq <= 0:
            raise ValueError("rseq must be positive when given")


@dataclass
class BoundReport:
    e1: float
    e2: float
    e3: float
    total: float
    parts: dict = field(default_factory=dict)


def evaluate_bound(inp: BoundInputs) -> BoundReport:
    """Excess-risk terms: e1 = 3/T + (3M/T)sqrt(8 ln(1/delta));
    e2 = (1/T)sqrt((vc + ln(2/delta))/(2n)) + c/sqrt(nT);
    e3 = 18M sqrt(4 pi ln T) rseq + 3 T rho drift."""
    T, n = inp.T, inp.n
    e1_decay = 3.0 / T
    e1_conf = (3.0 * inp.M / T) * math.sqrt(8.0 * math.log(1.0 / inp.delta))
    e2_vc = (1.0 / T) * math.sqrt((inp.vc + math.log(2.0 / inp.delta)) / (2.0 * n))
    e2_online = inp.c_online / math.sqrt(n * T)
    rseq = inp.rseq if inp.rseq is not None \
        else inp.rseq_c / math.sqrt(n * (T - 1))
    e3_complexity = 18.0 * inp.M * math.sqrt(4.0 * math.pi * math.log(T)) * rseq
    e3_drift = 3.0 * T * inp.rho * inp.drift
    e1 = e1_decay + e1_conf
    e2 = e2_vc + e2_online
    e3 = e3_complexity + e3_drift
    total = e1 + e2 + e3
    if math.isinf(total):                    # every term is non-negative
        raise ValueError("bound terms overflow float64")
    return BoundReport(e1, e2, e3, total, parts={
        "e1_decay": e1_decay, "e1_confidence": e1_conf, "e2_vc": e2_vc,
        "e2_online": e2_online, "e3_complexity": e3_complexity,
        "e3_drift": e3_drift, "rseq": rseq})


@dataclass
class SweepResult:
    rows: list                  # (T, e1, e2, e3, total)
    argmin_T: int


def sweep_horizon(inp: BoundInputs, T_values) -> SweepResult:
    """Evaluate the bound across horizons, re-resolving the rseq rule per T.
    Ties break toward smaller T."""
    T_values = sorted(set(int(t) for t in T_values))
    if not T_values:
        raise ValueError("empty horizon range")
    if T_values[0] < 2 or T_values[-1] > 10 ** 6:
        raise ValueError("horizon range must lie within [2, 1e6]")
    rows = []
    best_T = None
    best_total = math.inf
    for T in T_values:
        rep = evaluate_bound(replace(inp, T=T))
        rows.append((T, rep.e1, rep.e2, rep.e3, rep.total))
        if rep.total < best_total:
            best_total = rep.total
            best_T = T
    return SweepResult(rows, best_T)


# ---------------------------------------------------------------------------
# sequential complexity on finite instances

TREE_GUARD = 10 ** 7


@dataclass
class FiniteInstance:
    f_table: np.ndarray          # (|F|, |Z|) function values over outcomes
    depth: int

    def __post_init__(self):
        self.f_table = np.asarray(self.f_table, dtype=np.float64)
        if self.f_table.ndim != 2 or min(self.f_table.shape) < 1:
            raise ValueError("f_table must be (|F|, |Z|) with |F|, |Z| >= 1")
        if not 1 <= self.depth <= 4:
            raise ValueError(f"depth must be in [1, 4], got {self.depth}")

    @property
    def n_outcomes(self) -> int:
        return self.f_table.shape[1]

    def tree_count(self) -> int:
        return self.n_outcomes ** (2 ** self.depth - 1)


def seq_rademacher_exact(inst: FiniteInstance) -> float:
    """Exact sequential complexity by enumerating every outcome-labeled
    complete binary tree and every sign path.

    For each path the sup row is selected first; the expectation is then one
    flat fsum over the selected raw terms with the 1/(2^T * T)
    normalization applied once at the end. A singleton function class
    therefore returns exactly 0.0 (its terms cancel in the exact sum).
    """
    count = inst.tree_count()
    if count > TREE_GUARD:
        raise ValueError(f"enumeration guard exceeded: {count} trees "
                         f"> {TREE_GUARD}")
    T = inst.depth
    z = inst.n_outcomes
    table = [list(row) for row in inst.f_table]
    # node index per (level, sign-prefix): heap order, +1 means right child
    paths = []
    for eps in itertools.product((1, -1), repeat=T):
        ids = []
        pos = 0
        for t in range(T):
            ids.append(2 ** t - 1 + pos)
            pos = 2 * pos + (1 if eps[t] == 1 else 0)
        paths.append((eps, ids))
    best = -math.inf
    for labels in itertools.product(range(z), repeat=2 ** T - 1):
        terms = []
        for eps, ids in paths:
            row = max(table, key=lambda r: math.fsum(
                eps[t] * r[labels[ids[t]]] for t in range(T)))
            terms.extend(eps[t] * row[labels[ids[t]]] for t in range(T))
        total = math.fsum(terms)
        if total > best:
            best = total
    return best / (2 ** T * T)
