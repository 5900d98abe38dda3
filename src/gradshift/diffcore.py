"""Dense float64 arrays recorded on a tape, with reverse-mode differentiation.

The tape is a Wengert list: every primitive application appends one node whose
inputs reference strictly earlier nodes. `backward` runs a numeric reverse
sweep and never touches the tape. Training computes its gradients in closed
form; the tape is the oracle the tests hold those closed forms to.

Randomness is counter-based (splitmix64 finalizer over a seeded counter
stream), so every draw is a pure function of (seed, shape, distribution) and
reproducible across runs.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Iterable, Sequence

import numpy as np

PRIMITIVES = frozenset({
    "add", "sub", "mul", "matmul", "relu", "tanh", "sigmoid", "exp", "log",
    "sum", "mean", "square", "sqrt", "concat", "slice", "broadcast",
})


class ShapeError(ValueError):
    """Input shapes incompatible with the requested primitive."""


class TapeError(RuntimeError):
    """Structural misuse of a tape (non-scalar output, unknown node)."""


def array(data) -> np.ndarray:
    """Validate and convert input data to a finite float64 ndarray."""
    a = np.asarray(data, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("array values must be finite (NaN/Inf rejected)")
    return a


class Node:
    __slots__ = ("op", "inputs", "value", "aux")

    def __init__(self, op, inputs, value, aux=None):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.aux = aux


class Tape:
    """Append-only record of primitive applications.

    Single-owner during recording; the arrays it stores are never mutated.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def input(self, value, name: str | None = None) -> int:
        """Register a leaf array and return its node id."""
        self.nodes.append(Node("input", (), array(value), name))
        return len(self.nodes) - 1

    def val(self, nid: int) -> np.ndarray:
        self._check_id(nid)
        return self.nodes[nid].value

    def shape(self, nid: int) -> tuple:
        return self.nodes[nid].value.shape

    def _check_id(self, nid: int):
        if not isinstance(nid, (int, np.integer)) or not 0 <= nid < len(self.nodes):
            raise TapeError(f"node id {nid!r} is not on this tape")

    def __len__(self) -> int:
        return len(self.nodes)


def _shape_err(op: str, shapes) -> ShapeError:
    return ShapeError(f"{op}: incompatible shapes {[tuple(s) for s in shapes]}")


_BINARY = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e^-x) for x >= 0 and
    e^x/(1+e^x) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


_UNARY = {"relu": lambda x: np.maximum(x, 0.0), "tanh": np.tanh, "exp": np.exp,
          "log": np.log, "square": np.square, "sqrt": np.sqrt,
          "sigmoid": sigmoid}


def _compute(op: str, vals: Sequence[np.ndarray], aux):
    """Apply one primitive to raw arrays (most frequent ops first)."""
    binary = _BINARY.get(op)
    if binary is not None:
        a, b = vals
        if a.shape != b.shape:
            raise _shape_err(op, (a.shape, b.shape))
        return binary(a, b)
    if op == "matmul":
        a, b = vals
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise _shape_err(op, (a.shape, b.shape))
        return a @ b
    if op == "broadcast":
        x = vals[0]
        shape, axis = aux
        shape = tuple(shape)
        if x.shape == ():
            return np.full(shape, float(x))
        if x.ndim == 1 and len(shape) == 2:
            out = np.empty(shape)
            if axis == 0 and shape[1] == x.shape[0]:
                out[...] = x
                return out
            if axis == 1 and shape[0] == x.shape[0]:
                out[...] = x[:, None]
                return out
        raise _shape_err("broadcast", (x.shape, shape))
    unary = _UNARY.get(op)
    if unary is not None:
        return unary(vals[0])
    if op in ("sum", "mean"):
        x, axis = vals[0], aux
        if axis not in (None, 0, 1) or (axis == 1 and x.ndim < 2):
            raise _shape_err(op, (x.shape,))
        return x.sum(axis=axis) if op == "sum" else x.mean(axis=axis)
    if op == "concat":
        axis = aux
        try:
            return np.concatenate(vals, axis=axis)
        except ValueError:
            raise _shape_err(op, [v.shape for v in vals]) from None
    if op == "slice":
        x = vals[0]
        starts, stops = aux
        if len(starts) != x.ndim or len(stops) != x.ndim:
            raise _shape_err(op, (x.shape,))
        idx = tuple(slice(a, b) for a, b in zip(starts, stops))
        return x[idx].copy()
    raise ValueError(f"unknown primitive {op!r}")


def forward(tape: Tape, op: str, inputs, *, axis=None, starts=None,
            stops=None, shape=None) -> int:
    """Record one primitive application and return the new node id.

    `inputs` is a node id or a sequence of node ids. Reduction ops take
    `axis`; `slice` takes `starts`/`stops`; `broadcast` takes `shape` and,
    for vector-to-matrix, `axis` naming the replicated axis.
    """
    if op not in PRIMITIVES:
        raise ValueError(f"unknown primitive {op!r}")
    ids = tuple(inputs) if isinstance(inputs, (list, tuple)) else (inputs,)
    nodes, n = tape.nodes, len(tape.nodes)
    for nid in ids:
        if type(nid) is not int or not 0 <= nid < n:
            tape._check_id(nid)
    vals = [nodes[nid].value for nid in ids]
    if op in ("sum", "mean"):
        aux = axis
    elif op == "broadcast":
        aux = (tuple(shape), axis)
    elif op == "slice":
        aux = (tuple(starts), tuple(stops))
    elif op == "concat":
        aux = 0 if axis is None else axis
    else:
        aux = None
    value = _compute(op, vals, aux)
    nodes.append(Node(op, ids, np.asarray(value, dtype=np.float64), aux))
    return n


# ---------------------------------------------------------------------------
# reverse sweeps

def backward(tape: Tape, scalar_output: int, wrt: Iterable[int]) -> dict[int, np.ndarray]:
    """Exact reverse-mode gradients of a scalar node w.r.t. the given node ids.

    Returns a map node id -> gradient array (zeros when disconnected). The
    tape is not modified.
    """
    tape._check_id(scalar_output)
    wrt = list(wrt)
    for nid in wrt:
        tape._check_id(nid)
    nodes = tape.nodes
    if nodes[scalar_output].value.shape != ():
        raise TapeError("backward requires a scalar output node, got shape "
                        f"{nodes[scalar_output].value.shape}")
    # adjoints reach only ancestors of the output, and leaves only in wrt
    wrt_set = set(wrt)
    def wanted(i):
        return i in wrt_set or nodes[i].op != "input"
    adj: dict[int, np.ndarray] = {scalar_output: np.ones(())}
    for nid in range(scalar_output, -1, -1):
        g = adj.get(nid)
        if g is None or nodes[nid].op == "input":
            continue
        for in_id, contrib in _vjp_numeric(tape, nodes[nid], g, wanted):
            prev = adj.get(in_id)
            adj[in_id] = contrib if prev is None else prev + contrib
    out = {}
    for nid in wrt:
        g = adj.get(nid)
        out[nid] = np.zeros_like(nodes[nid].value) if g is None else g
    return out


def _vjp_numeric(tape: Tape, node: Node, g: np.ndarray, wanted):
    """Adjoint contributions to the inputs for which wanted(id) holds."""
    op, ids, aux = node.op, node.inputs, node.aux
    vals = [tape.nodes[i].value for i in ids]
    if op in _BINARY or op == "matmul":
        (a, b), (va, vb) = ids, vals
        out = []
        if wanted(a):
            out.append((a, g @ vb.T if op == "matmul" else
                        g * vb if op == "mul" else g))
        if wanted(b):
            out.append((b, va.T @ g if op == "matmul" else g * va
                        if op == "mul" else -g if op == "sub" else g))
        return out
    if op != "concat" and not wanted(ids[0]):
        return ()
    if op == "broadcast":
        return [(ids[0], g.sum() if vals[0].shape == () else g.sum(axis=aux[1]))]
    if op == "tanh":
        return [(ids[0], g * (1.0 - np.square(node.value)))]
    if op == "square":
        return [(ids[0], g * 2.0 * vals[0])]
    if op in ("sum", "mean"):
        x, axis = vals[0], aux
        scale = 1.0
        if op == "mean":
            scale = 1.0 / (x.size if axis is None else x.shape[axis])
        if axis is None:
            return [(ids[0], np.full(x.shape, float(g) * scale))]
        back = np.empty(x.shape)
        back[...] = g * scale if axis == 0 else (g * scale)[:, None]
        return [(ids[0], back)]
    if op == "relu":
        return [(ids[0], g * (vals[0] > 0))]
    if op == "sigmoid":
        return [(ids[0], g * node.value * (1.0 - node.value))]
    if op == "exp":
        return [(ids[0], g * node.value)]
    if op == "log":
        return [(ids[0], g / vals[0])]
    if op == "sqrt":
        return [(ids[0], g * 0.5 / node.value)]
    if op == "concat":
        axis = aux
        outs = []
        ofs = 0
        for i, v in zip(ids, vals):
            idx = [slice(None)] * g.ndim
            idx[axis] = slice(ofs, ofs + v.shape[axis])
            if wanted(i):
                outs.append((i, g[tuple(idx)].copy()))
            ofs += v.shape[axis]
        return outs
    if op == "slice":
        starts, _ = aux
        back = np.zeros_like(vals[0])
        idx = tuple(slice(s, s + d) for s, d in zip(starts, g.shape))
        back[idx] = g
        return [(ids[0], back)]
    raise ValueError(f"no gradient rule for {op!r}")


# ---------------------------------------------------------------------------
# counter-based randomness

_GAMMA = 0x9E3779B97F4A7C15
_MASK = (1 << 64) - 1


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@functools.lru_cache(maxsize=1024)
def _tag_word(tag: str) -> int:
    return int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")


def substream(seed: int, *tags) -> int:
    """Derive an independent 64-bit stream id from a seed and hashable tags.

    Tags may be ints or strings; the fold is order-sensitive, so
    substream(s, "a", 1) != substream(s, 1, "a").
    """
    s = seed & _MASK
    for t in tags:
        if isinstance(t, str):
            t = _tag_word(t)
        elif not isinstance(t, (int, np.integer)):
            raise TypeError(f"substream tags must be int or str, got {type(t)}")
        s = mix64((s + _GAMMA) ^ (int(t) & _MASK))
    return s


def _words(seed, n: int) -> np.ndarray:
    """The first n words of stream `seed`; for a list of seeds, one row of n
    words per seed."""
    idx = np.arange(1, n + 1, dtype=np.uint64)
    if isinstance(seed, (int, np.integer)):
        s = np.uint64(int(seed) & _MASK)
    else:
        s = np.array([int(x) & _MASK for x in seed], dtype=np.uint64)[:, None]
    z = s + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform01(seed, n: int) -> np.ndarray:
    return (_words(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def uniform_rows(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) uniforms in [0, 1): row i equals
    rng_uniform(seeds[i], (n,)) bit for bit, from one vectorized pass."""
    return _uniform01(list(seeds), n)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals from the uniform pairs (u[..., 2k], u[..., 2k+1])."""
    u1 = np.maximum(u[..., 0::2], 2.0 ** -53)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u[..., 1::2])


def normal_rows(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) standard normals: row i equals
    rng_normal(seeds[i], (n,)) bit for bit, from one vectorized pass."""
    return _box_muller(_uniform01(list(seeds), 2 * n))


def rng_fill(seed: int, shape, distribution) -> np.ndarray:
    """Deterministic array fill; a pure function of (seed, shape, distribution).

    `distribution` is ("uniform", a, b) or ("normal", mu, sigma).
    """
    shape = tuple(int(s) for s in (shape if isinstance(shape, (tuple, list)) else (shape,)))
    n = int(np.prod(shape)) if shape else 1
    kind = distribution[0]
    if kind == "uniform":
        _, a, b = distribution
        if a > b:
            raise ValueError(f"uniform requires a <= b, got ({a}, {b})")
        out = a + (b - a) * _uniform01(seed, n)
    elif kind == "normal":
        _, mu, sigma = distribution
        if sigma < 0:
            raise ValueError(f"normal requires sigma >= 0, got {sigma}")
        out = mu + sigma * _box_muller(_uniform01(seed, 2 * n))
    else:
        raise ValueError(f"unknown distribution {kind!r}")
    return out.reshape(shape) if shape else np.asarray(out[0])


def rng_uniform(seed: int, shape, a=0.0, b=1.0) -> np.ndarray:
    return rng_fill(seed, shape, ("uniform", a, b))


def rng_normal(seed: int, shape, mu=0.0, sigma=1.0) -> np.ndarray:
    return rng_fill(seed, shape, ("normal", mu, sigma))


def rng_permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n) (argsort of uniform keys)."""
    return np.argsort(_words(seed, n), kind="stable")
