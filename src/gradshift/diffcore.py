"""Dense float64 arrays recorded on a tape, with reverse-mode differentiation.

The tape is a Wengert list: every primitive application appends one node whose
inputs reference strictly earlier nodes. `backward` runs a numeric reverse
sweep and never touches the tape; `input_gradient` runs the same sweep
*symbolically*, appending the adjoint computation as new differentiable nodes
so a gradient-penalty scalar built from it can be differentiated once more.
Exactly one nesting level is supported.

Randomness is counter-based (splitmix64 finalizer over a seeded counter
stream), so every draw is a pure function of (seed, shape, distribution) and
reproducible across runs.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

PRIMITIVES = frozenset({
    "add", "sub", "mul", "matmul", "relu", "tanh", "sigmoid", "exp", "log",
    "sum", "mean", "square", "sqrt", "concat", "slice", "broadcast",
})

# Emitted by the symbolic gradient pass; not part of the public forward() set.
_INTERNAL_OPS = frozenset({"transpose", "reciprocal", "pad_slice"})


class ShapeError(ValueError):
    """Input shapes incompatible with the requested primitive."""


class TapeError(RuntimeError):
    """Structural misuse of a tape (non-scalar output, unknown node, nesting)."""


def array(data) -> np.ndarray:
    """Validate and convert input data to a finite float64 ndarray."""
    a = np.asarray(data, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError("array values must be finite (NaN/Inf rejected)")
    return a


class Node:
    __slots__ = ("op", "inputs", "value", "aux", "grad_pass")

    def __init__(self, op, inputs, value, aux=None, grad_pass=False):
        self.op = op
        self.inputs = inputs
        self.value = value
        self.aux = aux
        self.grad_pass = grad_pass


class Tape:
    """Append-only record of primitive applications.

    Single-owner during recording; the arrays it stores are never mutated.
    """

    def __init__(self):
        self.nodes: list[Node] = []
        self._in_grad_pass = False

    def input(self, value, name: str | None = None) -> int:
        """Register a leaf array and return its node id."""
        return self._leaf(array(value), name)

    def _leaf(self, v: np.ndarray, name: str | None = None) -> int:
        """Register a float64 array known to be finite, unchecked."""
        self.nodes.append(Node("input", (), v, name, self._in_grad_pass))
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
_UNARY = {"relu": lambda x: np.maximum(x, 0.0), "tanh": np.tanh, "exp": np.exp,
          "log": np.log, "square": np.square, "sqrt": np.sqrt,
          "reciprocal": lambda x: 1.0 / x}


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
    if op == "transpose":
        x = vals[0]
        if x.ndim != 2:
            raise _shape_err(op, (x.shape,))
        return x.T.copy()
    if op == "sigmoid":
        x = vals[0]
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out
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
    if op == "pad_slice":
        x = vals[0]
        orig_shape, starts = aux
        out = np.zeros(orig_shape)
        idx = tuple(slice(s, s + d) for s, d in zip(starts, x.shape))
        out[idx] = x
        return out
    raise ValueError(f"unknown primitive {op!r}")


_OPS = PRIMITIVES | _INTERNAL_OPS


def forward(tape: Tape, op: str, inputs, *, axis=None, starts=None,
            stops=None, shape=None) -> int:
    """Record one primitive application and return the new node id.

    `inputs` is a node id or a sequence of node ids. Reduction ops take
    `axis`; `slice` takes `starts`/`stops`; `broadcast` takes `shape` and,
    for vector-to-matrix, `axis` naming the replicated axis.
    """
    if op not in _OPS:
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
    elif op == "pad_slice":
        aux = (tuple(shape), tuple(starts))
    else:
        aux = None
    value = _compute(op, vals, aux)
    nodes.append(Node(op, ids, np.asarray(value, dtype=np.float64), aux,
                      tape._in_grad_pass))
    return n


# ---------------------------------------------------------------------------
# reverse sweeps

def _ancestors(tape: Tape, root: int) -> set:
    seen = {root}
    stack = [root]
    while stack:
        for nid in tape.nodes[stack.pop()].inputs:
            if nid not in seen:
                seen.add(nid)
                stack.append(nid)
    return seen


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
    if op == "transpose":
        return [(ids[0], g.T.copy())]
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
    if op == "reciprocal":
        return [(ids[0], -g * np.square(node.value))]
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
    if op == "pad_slice":
        _, starts = aux
        idx = tuple(slice(s, s + d) for s, d in zip(starts, vals[0].shape))
        return [(ids[0], g[idx].copy())]
    raise ValueError(f"no gradient rule for {op!r}")


def input_gradient(tape: Tape, scalar_output: int, wrt_input: int) -> int:
    """Record the gradient of a scalar node w.r.t. a leaf as new tape nodes.

    The returned node holds the input-gradient array and, because the adjoint
    computation was itself recorded, `backward` can differentiate through it
    once (e.g. a gradient-penalty scalar w.r.t. network parameters).
    """
    tape._check_id(scalar_output)
    tape._check_id(wrt_input)
    if tape.nodes[scalar_output].value.shape != ():
        raise TapeError("input_gradient requires a scalar output node")
    if tape.nodes[wrt_input].op != "input":
        raise TapeError("wrt_input must be a leaf input node")
    anc = _ancestors(tape, scalar_output)
    if any(tape.nodes[n].grad_pass for n in anc):
        raise TapeError("second-order nesting limit is one")
    # nodes both reachable from the leaf and feeding the output
    desc = {wrt_input}
    for nid in range(wrt_input + 1, scalar_output + 1):
        if any(i in desc for i in tape.nodes[nid].inputs):
            desc.add(nid)
    live = desc & anc
    x_shape = tape.nodes[wrt_input].value.shape
    tape._in_grad_pass = True
    try:
        if scalar_output not in live:
            return tape._leaf(np.zeros(x_shape))
        adj: dict[int, int] = {scalar_output: tape._leaf(np.ones(()))}
        for nid in sorted(live, reverse=True):
            if nid not in adj or tape.nodes[nid].op == "input":
                continue
            for in_id, contrib in _vjp_symbolic(tape, nid, tape.nodes[nid],
                                                adj[nid], live.__contains__):
                adj[in_id] = forward(tape, "add", (adj[in_id], contrib)) \
                    if in_id in adj else contrib
        return adj[wrt_input]
    finally:
        tape._in_grad_pass = False


def _vjp_symbolic(tape: Tape, nid: int, node: Node, g: int, wanted):
    """Adjoint contributions as tape nodes (mirrors _vjp_numeric). A live
    node's single input is live, so only binary ops and concat consult
    wanted."""
    op, ids, aux = node.op, node.inputs, node.aux
    f = forward
    const = tape._leaf

    def neg(x):
        return f(tape, "sub", (const(np.zeros(tape.shape(x))), x))

    if op in _BINARY or op == "matmul":
        a, b = ids
        if op == "matmul":
            bt = f(tape, "transpose", (b,)) if wanted(a) else None
            at = f(tape, "transpose", (a,)) if wanted(b) else None
        out = []
        if wanted(a):
            out.append((a, f(tape, "matmul", (g, bt)) if op == "matmul" else
                        f(tape, "mul", (g, b)) if op == "mul" else g))
        if wanted(b):
            out.append((b, f(tape, "matmul", (at, g)) if op == "matmul" else
                        f(tape, "mul", (g, a)) if op == "mul" else
                        neg(g) if op == "sub" else g))
        return out
    if op == "relu":
        # mask is piecewise constant in the input, so a detached leaf is the
        # exact a.e. derivative for the second-order pass as well
        mask = const((tape.nodes[ids[0]].value > 0).astype(np.float64))
        return [(ids[0], f(tape, "mul", (g, mask)))]
    if op == "tanh":
        one = const(np.ones(tape.shape(nid)))
        d = f(tape, "sub", (one, f(tape, "square", (nid,))))
        return [(ids[0], f(tape, "mul", (g, d)))]
    if op == "sigmoid":
        one = const(np.ones(tape.shape(nid)))
        d = f(tape, "mul", (nid, f(tape, "sub", (one, nid))))
        return [(ids[0], f(tape, "mul", (g, d)))]
    if op == "exp":
        return [(ids[0], f(tape, "mul", (g, nid)))]
    if op == "log":
        return [(ids[0], f(tape, "mul", (g, f(tape, "reciprocal", (ids[0],)))))]
    if op == "square":
        two_x = f(tape, "mul", (const(np.full(tape.shape(ids[0]), 2.0)), ids[0]))
        return [(ids[0], f(tape, "mul", (g, two_x)))]
    if op == "sqrt":
        half = const(np.full(tape.shape(nid), 0.5))
        d = f(tape, "mul", (half, f(tape, "reciprocal", (nid,))))
        return [(ids[0], f(tape, "mul", (g, d)))]
    if op == "reciprocal":
        return [(ids[0], neg(f(tape, "mul", (g, f(tape, "square", (nid,))))))]
    if op in ("sum", "mean"):
        x_shape = tape.shape(ids[0])
        axis = aux
        if op == "mean":
            n = (int(np.prod(x_shape)) if axis is None else x_shape[axis])
            g = f(tape, "mul", (g, const(np.full(tape.shape(g), 1.0 / n))))
        back = f(tape, "broadcast", (g,), shape=x_shape, axis=axis)
        return [(ids[0], back)]
    if op == "transpose":
        return [(ids[0], f(tape, "transpose", (g,)))]
    if op == "concat":
        axis = aux
        outs = []
        ofs = 0
        gshape = tape.shape(g)
        for i in ids:
            ishape = tape.shape(i)
            starts = [0] * len(gshape)
            stops = list(gshape)
            starts[axis] = ofs
            stops[axis] = ofs + ishape[axis]
            if wanted(i):
                outs.append((i, f(tape, "slice", (g,), starts=starts,
                                  stops=stops)))
            ofs += ishape[axis]
        return outs
    if op == "slice":
        starts, _ = aux
        return [(ids[0], f(tape, "pad_slice", (g,), shape=tape.shape(ids[0]),
                           starts=starts))]
    if op == "pad_slice":
        _, starts = aux
        ishape = tape.shape(ids[0])
        stops = [s + d for s, d in zip(starts, ishape)]
        return [(ids[0], f(tape, "slice", (g,), starts=starts, stops=stops))]
    if op == "broadcast":
        axis = None if tape.shape(ids[0]) == () else aux[1]
        return [(ids[0], f(tape, "sum", (g,), axis=axis))]
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


def substream(seed: int, *tags) -> int:
    """Derive an independent 64-bit stream id from a seed and hashable tags.

    Tags may be ints or strings; the fold is order-sensitive, so
    substream(s, "a", 1) != substream(s, 1, "a").
    """
    s = seed & _MASK
    for t in tags:
        if isinstance(t, str):
            t = int.from_bytes(hashlib.sha256(t.encode()).digest()[:8], "little")
        elif not isinstance(t, (int, np.integer)):
            raise TypeError(f"substream tags must be int or str, got {type(t)}")
        s = mix64((s + _GAMMA) ^ (int(t) & _MASK))
    return s


def _words(seed: int, n: int) -> np.ndarray:
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _uniform01(seed: int, n: int) -> np.ndarray:
    return (_words(seed, n) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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
        u = _uniform01(seed, 2 * n)
        u1 = np.maximum(u[0::2], 2.0 ** -53)
        u2 = u[1::2]
        z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
        out = mu + sigma * z
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
