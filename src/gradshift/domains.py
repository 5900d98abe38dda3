"""Generators and loaders for sequences of gradually drifting labeled domains.

Every generator draws labels first from a fixed marginal and only then
positions features, so the label distribution is identical across domains by
construction. For translated Gaussians the per-step class-conditional
Wasserstein drift equals the translation norm exactly, and is recorded in the
sequence metadata as delta_true.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import diffcore as dc


@dataclass(frozen=True)
class DomainBatch:
    t: int
    features: np.ndarray       # (n, d)
    labels: np.ndarray         # (n,) ints in [0, k)
    k: int

    def __post_init__(self):
        f = self.features
        y = self.labels
        if f.ndim != 2 or f.shape[0] < 1:
            raise ValueError(f"features must be (n>=1, d), got {f.shape}")
        if y.shape != (f.shape[0],):
            raise ValueError(f"labels shape {y.shape} != ({f.shape[0]},)")
        if not np.all(np.isfinite(f)):
            raise ValueError("features must be finite")
        if y.min() < 0 or y.max() >= self.k:
            raise ValueError(f"label ids must lie in [0, {self.k})")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass
class DomainSequence:
    domains: list[DomainBatch]
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.domains) < 1:
            raise ValueError("sequence needs at least one domain")
        d0 = self.domains[0]
        for i, dom in enumerate(self.domains):
            if dom.t != i:
                raise ValueError(f"domain indices must be consecutive from 0, "
                                 f"got t={dom.t} at position {i}")
            if dom.d != d0.d or dom.k != d0.k:
                raise ValueError(f"domain {i} has d={dom.d}, k={dom.k}; "
                                 f"expected d={d0.d}, k={d0.k}")

    @property
    def T(self) -> int:
        return len(self.domains)

    @property
    def d(self) -> int:
        return self.domains[0].d

    @property
    def k(self) -> int:
        return self.domains[0].k

    @property
    def delta_true(self) -> float | None:
        return self.meta.get("delta_true")


def _draw_labels(seed: int, n: int, k: int) -> np.ndarray:
    """Labels from the fixed uniform marginal over k classes."""
    u = dc.rng_uniform(seed, (n,))
    return np.minimum((u * k).astype(np.int64), k - 1)


def make_rotating_moons(T: int, n: int, total_degrees: float = 120.0,
                        noise_sigma: float = 0.1, seed: int = 0) -> DomainSequence:
    """Two interleaving half-circles rotated by total_degrees * t/(T-1).

    Domain t rotates the clean cloud by a linearly increasing angle about the
    origin and then adds isotropic Gaussian noise. Class 0 is the upper unit
    half-circle at the origin; class 1 is the downward half-circle whose apex
    sits at (1, -0.5).
    """
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma}")
    domains = []
    for t in range(T):
        y = _draw_labels(dc.substream(seed, "labels", t), n, 2)
        theta = dc.rng_uniform(dc.substream(seed, "theta", t), (n,), 0.0, np.pi)
        x = np.empty((n, 2))
        c0 = y == 0
        x[c0, 0] = np.cos(theta[c0])
        x[c0, 1] = np.sin(theta[c0])
        x[~c0, 0] = 1.0 - np.cos(theta[~c0])
        x[~c0, 1] = 0.5 - np.sin(theta[~c0])
        angle = math.radians(total_degrees) * t / (T - 1)
        rot = np.array([[math.cos(angle), math.sin(angle)],
                        [-math.sin(angle), math.cos(angle)]])
        x = x @ rot
        x += dc.rng_normal(dc.substream(seed, "noise", t), (n, 2), 0.0, noise_sigma)
        domains.append(DomainBatch(t, x, y, 2))
    meta = {"generator": "rotating_moons", "T": T, "n": n, "seed": seed,
            "total_degrees": total_degrees, "noise_sigma": noise_sigma}
    return DomainSequence(domains, meta)


def make_shifting_gaussians(T: int, n: int, shift_per_step: float = 0.3,
                            class_means=None, sigma: float = 0.5,
                            seed: int = 0) -> DomainSequence:
    """Class-conditional N(mean_y + offset_t, sigma^2 I) with translation drift.

    Each step translates every class-conditional by (shift_per_step, 0, ...),
    along the first coordinate axis, so domain t sits t * shift_per_step
    from domain 0 and the per-step class-conditional W_p drift equals
    shift_per_step exactly for every p.
    """
    if T < 2:
        raise ValueError(f"T must be >= 2, got {T}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if shift_per_step < 0:
        raise ValueError(f"shift_per_step must be >= 0, got {shift_per_step}")
    if class_means is None:
        class_means = [[-1.0], [1.0]]
    means = np.atleast_2d(np.asarray(class_means, dtype=np.float64))
    if means.ndim != 2:
        raise ValueError("class_means must be a (k, d) array-like")
    k, d = means.shape
    step = np.zeros(d)
    step[0] = shift_per_step
    domains = []
    offset = np.zeros(d)
    for t in range(T):
        y = _draw_labels(dc.substream(seed, "labels", t), n, k)
        noise = dc.rng_normal(dc.substream(seed, "noise", t), (n, d), 0.0, sigma)
        x = means[y] + offset + noise
        domains.append(DomainBatch(t, x, y, k))
        offset = offset + step
    meta = {"generator": "shifting_gaussians", "T": T, "n": n, "seed": seed,
            "shift_per_step": shift_per_step, "sigma": sigma,
            "class_means": means.tolist(), "delta_true": float(shift_per_step)}
    return DomainSequence(domains, meta)


# ---------------------------------------------------------------------------
# file format: CSV `t,y,x0..x{d-1}` sorted by t, with a .meta.json sidecar

def save_sequence(seq: DomainSequence, path) -> None:
    path = Path(path)
    d = seq.d
    lines = ["t,y," + ",".join(f"x{i}" for i in range(d))]
    for dom in seq.domains:
        for i in range(dom.n):
            feats = ",".join(repr(float(v)) for v in dom.features[i])
            lines.append(f"{dom.t},{dom.labels[i]},{feats}")
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    tmp.replace(path)
    meta = dict(seq.meta)
    meta["k"] = seq.k
    mpath = path.with_suffix(".meta.json")
    mtmp = mpath.with_suffix(".tmp")
    mtmp.write_text(json.dumps(meta, sort_keys=True, indent=1), encoding="utf-8")
    mtmp.replace(mpath)


class SequenceFormatError(ValueError):
    pass


_INT64_MAX = int(np.iinfo(np.int64).max)


def load_sequence(path) -> DomainSequence:
    """Read what save_sequence writes. The sidecar is optional; it must be a
    JSON object, and its `k` an int above every label id. Malformed content
    raises SequenceFormatError."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise SequenceFormatError(f"{path}: {e}") from None
    lines = text.splitlines()
    if not lines:
        raise SequenceFormatError(f"{path}: empty file")
    header = lines[0].strip().split(",")
    if header[:2] != ["t", "y"] or any(h != f"x{i}" for i, h in enumerate(header[2:])):
        raise SequenceFormatError(f"{path}:1: bad header {lines[0]!r}")
    d = len(header) - 2
    if d < 1:
        raise SequenceFormatError(f"{path}:1: no feature columns")
    ts: list[int] = []               # each domain's t, in file order
    starts: list[int] = []           # the row where each domain starts
    labels, feats = array("q"), array("d")
    top = last_t = -1
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != d + 2:
            raise SequenceFormatError(
                f"{path}:{ln}: expected {d + 2} fields, got {len(parts)}")
        try:
            t = int(parts[0])
            y = int(parts[1])
            row = [float(v) for v in parts[2:]]
        except ValueError as e:
            raise SequenceFormatError(f"{path}:{ln}: {e}") from None
        if not all(map(math.isfinite, row)):
            raise SequenceFormatError(f"{path}:{ln}: non-finite feature value")
        if t < 0 or y < 0:
            raise SequenceFormatError(f"{path}:{ln}: t and y must be non-negative")
        if t < last_t:
            raise SequenceFormatError(f"{path}:{ln}: rows not sorted by t")
        if t != last_t:
            ts.append(t)
            starts.append(len(labels))
        last_t = t
        if y > top:
            top = y
        labels.append(min(y, _INT64_MAX))   # a larger y fails the k check
        feats.extend(row)
    if not labels:
        raise SequenceFormatError(f"{path}: no data rows")
    meta = {}
    mpath = path.with_suffix(".meta.json")
    if mpath.exists():
        try:
            meta = json.loads(mpath.read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as e:   # bad UTF-8 or JSON
            raise SequenceFormatError(f"{mpath}: {e}") from None
        if not isinstance(meta, dict):
            raise SequenceFormatError(f"{mpath}: not a JSON object")
    k = meta.get("k", top + 1)
    # labels are int64, so k - 1 must fit in one
    if type(k) is not int or not top < k <= _INT64_MAX:
        raise SequenceFormatError(
            f"{path}: k must be an int above every label id (max {top}) "
            f"and below 2**63, got k={k!r}")
    if ts != list(range(len(ts))):
        raise SequenceFormatError(f"{path}: domain indices {ts} not consecutive from 0")
    ys = np.frombuffer(labels, dtype=np.int64)
    xs = np.frombuffer(feats, dtype=np.float64).reshape(-1, d)
    cuts = starts + [len(ys)]
    domains = [DomainBatch(t, xs[a:b], ys[a:b], k)
               for t, a, b in zip(ts, cuts, cuts[1:])]
    meta.pop("k", None)
    return DomainSequence(domains, meta)


def split_holdout(seq: DomainSequence, fraction: float, seed: int):
    """Per-domain disjoint split, stratified by label; deterministic in seed."""
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    train_doms, eval_doms = [], []
    for dom in seq.domains:
        tr_idx, ev_idx = [], []
        for y in range(dom.k):
            members = np.nonzero(dom.labels == y)[0]
            if len(members) < 2:
                raise ValueError(f"domain {dom.t} class {y} has "
                                 f"{len(members)} sample(s); need >= 2 to split")
            perm = members[dc.rng_permutation(dc.substream(seed, dom.t, y),
                                              len(members))]
            n_ev = min(max(int(round(fraction * len(members))), 1),
                       len(members) - 1)
            ev_idx.append(perm[:n_ev])
            tr_idx.append(perm[n_ev:])
        tr = np.sort(np.concatenate(tr_idx))
        ev = np.sort(np.concatenate(ev_idx))
        train_doms.append(DomainBatch(dom.t, dom.features[tr], dom.labels[tr], dom.k))
        eval_doms.append(DomainBatch(dom.t, dom.features[ev], dom.labels[ev], dom.k))
    return (DomainSequence(train_doms, dict(seq.meta)),
            DomainSequence(eval_doms, dict(seq.meta)))
