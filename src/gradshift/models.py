"""Parameterized networks: MLP feature map / classifier / critic and a gated
recurrent summarizer whose readout stands in for past-domain features.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Tape, forward

ACTIVATIONS = ("relu", "tanh", "identity")


def _pack(arrays) -> tuple[np.ndarray, list[np.ndarray]]:
    """Copy arrays into one float64 buffer, in order; returns the buffer and
    a view of it shaped like each array."""
    flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel()
                           for a in arrays])
    views, ofs = [], 0
    for a in arrays:
        views.append(flat[ofs:ofs + np.size(a)].reshape(np.shape(a)))
        ofs += np.size(a)
    return flat, views


@dataclass
class MlpParams:
    """An MLP's layers. Construction copies the arrays into `flat`, one
    float64 vector in arrays() order; weights and biases are views into it,
    and each layer's W followed by its b is the row-major block [W; b]."""
    weights: list[np.ndarray]          # (fan_in, fan_out) per layer
    biases: list[np.ndarray]           # (fan_out,) per layer
    activations: list[str]
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.weights:
            raise ValueError("mlp needs at least one layer")
        for i, (w, b, a) in enumerate(zip(self.weights, self.biases, self.activations)):
            if a not in ACTIVATIONS:
                raise ValueError(f"layer {i}: unknown activation {a!r}")
            if w.shape[1] != b.shape[0]:
                raise ValueError(f"layer {i}: weight/bias shapes {w.shape}/{b.shape}")
            if i > 0 and self.weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layers {i-1}->{i} do not chain: "
                                 f"{self.weights[i-1].shape} -> {w.shape}")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {i}: non-finite parameters")
        self.flat, views = _pack(self.arrays())
        self.weights, self.biases = views[0::2], views[1::2]
        self._blocks = self.blocks(self.flat)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "MlpParams":
        return MlpParams(self.weights, self.biases, list(self.activations))

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
        return out

    def blocks(self, vec: np.ndarray | None = None) -> list[np.ndarray]:
        """Each layer's bias-folded block [W; b], (fan_in + 1, fan_out), as a
        view of `vec`, a vector in the layout of flat (default: flat)."""
        if vec is None:
            return self._blocks
        out, ofs = [], 0
        for w in self.weights:
            size = (w.shape[0] + 1) * w.shape[1]
            out.append(vec[ofs:ofs + size].reshape(w.shape[0] + 1, w.shape[1]))
            ofs += size
        return out


def _glorot(seed: int, fan_in: int, fan_out: int) -> np.ndarray:
    """A (fan_in, fan_out) Glorot-uniform draw in +-sqrt(6/(fan_in+fan_out))."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return dc.rng_uniform(seed, (fan_in, fan_out), -bound, bound)


def init_mlp(seed: int, layer_sizes, activations=None) -> MlpParams:
    """Glorot-uniform weights (_glorot), zero biases."""
    if len(layer_sizes) < 2:
        raise ValueError("layer_sizes needs an input and at least one output size")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError(f"layer sizes must be positive: {layer_sizes}")
    n_layers = len(layer_sizes) - 1
    if activations is None:
        activations = ["relu"] * (n_layers - 1) + ["identity"]
    if len(activations) != n_layers:
        raise ValueError(f"{n_layers} layers but {len(activations)} activations")
    ws, bs = [], []
    for i in range(n_layers):
        fi, fo = layer_sizes[i], layer_sizes[i + 1]
        ws.append(_glorot(dc.substream(seed, "w", i), fi, fo))
        bs.append(np.zeros(fo))
    return MlpParams(ws, bs, list(activations))


class BoundMlp:
    """An MlpParams registered as leaves on one tape (shared across forwards).

    Training does not record a tape; this is the taped twin of mlp_layers
    that the tests differentiate as the gradient oracle, and the benchmark's
    tracer wraps its __call__ by name.
    """

    def __init__(self, tape: Tape, params: MlpParams):
        self.tape = tape
        self.params = params
        self.weight_ids = [tape.input(w) for w in params.weights]
        self.bias_ids = [tape.input(b) for b in params.biases]

    def param_ids(self) -> list[int]:
        out = []
        for w, b in zip(self.weight_ids, self.bias_ids):
            out += [w, b]
        return out

    def __call__(self, x: int) -> int:
        t = self.tape
        h = x
        for wid, bid, act in zip(self.weight_ids, self.bias_ids,
                                 self.params.activations):
            z = forward(t, "matmul", (h, wid))
            z = forward(t, "add", (z, forward(t, "broadcast", bid,
                                              shape=t.shape(z), axis=0)))
            h = z if act == "identity" else forward(t, act, z)
        return h


def bias_block(width: int, cols: int) -> np.ndarray:
    """A feature-major block (width + 1, cols) whose last row, the one every
    [W; b] block's bias row multiplies, is ones; the other rows are empty."""
    out = np.empty((width + 1, cols))
    out[-1] = 1.0
    return out


def feature_block(x: np.ndarray) -> np.ndarray:
    """Rows x, (rows, width), as a feature-major block (width + 1, rows): one
    column per row and a row of ones last, the input of mlp_layers."""
    x = np.asarray(x, dtype=np.float64)
    out = bias_block(x.shape[1], x.shape[0])
    out[:-1] = x.T
    return out


def mlp_outputs(params: MlpParams, a: np.ndarray) -> list[np.ndarray]:
    """`a` and an array for every layer's output over the block `a`, in
    mlp_layers' form; only the ones rows are written."""
    return [a] + [bias_block(blk.shape[1], a.shape[1])
                  for blk in params.blocks()]


class MlpForward:
    """The forward pass of one network bound to its outputs `outs` (as
    mlp_outputs lays them out, outs[0] the input block): construction binds
    each layer's [W; b] block, transposed, its input and its output, and a
    call reruns the pass over the block's current values into them and
    returns `outs`. One gemm per layer, then the activation in place."""

    def __init__(self, params: MlpParams, outs: list[np.ndarray]):
        self.outs = outs
        self.layers = [(blk.T, inp, h[:-1], act)
                       for blk, act, inp, h in zip(params.blocks(),
                                                   params.activations, outs,
                                                   outs[1:])]

    def __call__(self) -> list[np.ndarray]:
        for w_t, inp, z, act in self.layers:
            np.dot(w_t, inp, out=z)
            if act == "relu":
                np.maximum(z, 0.0, out=z)
            elif act == "tanh":
                np.tanh(z, out=z)
        return self.outs


def mlp_layers(params: MlpParams, a: np.ndarray) -> list[np.ndarray]:
    """Forward pass in plain numpy over a feature-major block `a` (see
    feature_block), through MlpForward on fresh outputs. Returns `a` and
    every layer's output in the same form, ones row last; matches BoundMlp's
    recorded pass."""
    return MlpForward(params, mlp_outputs(params, a))()


class MlpBackward:
    """Backprop through the layers of one network, from the last of the
    mlp_layers outputs `outs` it is bound to, with every work array bound
    at construction: a call allocates nothing and writes each product into
    its array through out=.

    A call takes g, (out_dim, rows), a gradient w.r.t. the values of the
    last output, and returns the gradient w.r.t. the input values, (in_dim,
    rows), and the flat parameter gradient (the layout of params.flat), one
    gemm per layer block each; a half not asked for is None, and its gemms
    are skipped. Both results are the bound arrays, which the next call
    overwrites."""

    def __init__(self, params: MlpParams, outs: list[np.ndarray], *,
                 to_params: bool = True, to_input: bool = True):
        rows = outs[0].shape[1]
        self.grad = np.empty_like(params.flat) if to_params else None
        d_blocks = (params.blocks(self.grad) if to_params
                    else [None] * len(params.weights))
        layers = []
        for l, (blk, act) in enumerate(zip(params.blocks(),
                                           params.activations)):
            h = outs[l + 1][:-1]
            # the slope at h (a 0/1 mask for relu) and g times it
            slope = g_act = None
            if act != "identity":
                slope = np.empty(h.shape, dtype=bool if act == "relu"
                                 else np.float64)
                g_act = np.empty(h.shape)
            below = (np.empty((blk.shape[0] - 1, rows))
                     if l or to_input else None)
            layers.append((act == "relu", h, slope, g_act, outs[l],
                           d_blocks[l], blk[:-1], below))
        self.layers, self.to_input = layers[::-1], to_input

    def __call__(self, g: np.ndarray):
        for relu, h, slope, g_act, inp, d_blk, w, below in self.layers:
            if relu:
                np.greater(h, 0.0, out=slope)
                g = np.multiply(g, slope, out=g_act)
            elif slope is not None:
                np.square(h, out=slope)
                np.subtract(1.0, slope, out=slope)
                g = np.multiply(g, slope, out=g_act)
            if d_blk is not None:
                np.dot(inp, g.T, out=d_blk)
            if below is not None:
                g = np.dot(w, g, out=below)
        return (g if self.to_input else None), self.grad


def mlp_eval(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Inference forward pass of rows x in plain numpy, (rows, out_dim);
    matches BoundMlp's recorded one."""
    return mlp_layers(params, feature_block(x))[-1][:-1].T


def predict(g: MlpParams, h: MlpParams, x: np.ndarray) -> np.ndarray:
    return np.argmax(mlp_eval(h, mlp_eval(g, x)), axis=1)


def accuracy(g: MlpParams, h: MlpParams, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(predict(g, h, x) == y))


# ---------------------------------------------------------------------------
# gated recurrent summarizer

@dataclass
class RecurrentParams:
    """One gated recurrent layer with a linear readout. Construction copies
    the arrays into `flat`, one float64 vector in arrays() order, and holds
    views of it."""
    w_z: np.ndarray    # (input_size + hidden, hidden)
    w_r: np.ndarray
    w_h: np.ndarray
    b_z: np.ndarray    # (hidden,)
    b_r: np.ndarray
    b_h: np.ndarray
    w_out: np.ndarray  # (hidden, out_dim) linear readout
    b_out: np.ndarray
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        hid = self.hidden
        for name in ("w_z", "w_r", "w_h"):
            shape = getattr(self, name).shape
            if shape != (self.w_z.shape[0], hid) or shape[0] <= hid:
                raise ValueError(f"{name}: shape {shape} is not (input + "
                                 f"{hid}, {hid}) with an input of at least 1")
        self.flat, views = _pack(self.arrays())
        (self.w_z, self.w_r, self.w_h, self.b_z, self.b_r, self.b_h,
         self.w_out, self.b_out) = views

    @property
    def hidden(self) -> int:
        return self.w_out.shape[0]

    @property
    def input_size(self) -> int:
        return self.w_z.shape[0] - self.hidden

    @property
    def out_dim(self) -> int:
        return self.w_out.shape[1]

    def copy(self) -> "RecurrentParams":
        return RecurrentParams(*self.arrays())

    def arrays(self) -> list[np.ndarray]:
        return [self.w_z, self.w_r, self.w_h, self.b_z, self.b_r, self.b_h,
                self.w_out, self.b_out]


def init_recurrent(seed: int, input_size: int, hidden: int,
                   out_dim: int) -> RecurrentParams:
    """Glorot-uniform gate and readout weights (_glorot), zero biases."""
    gates = [_glorot(dc.substream(seed, tag, 0), input_size + hidden, hidden)
             for tag in ("wz", "wr", "wh")]
    return RecurrentParams(*gates, np.zeros(hidden), np.zeros(hidden),
                           np.zeros(hidden),
                           _glorot(dc.substream(seed, "wo"), hidden, out_dim),
                           np.zeros(out_dim))


def gru_step(r: RecurrentParams, state: np.ndarray, x: np.ndarray):
    """Absorb one domain's (input_size,) mean feature vector x into the
    (hidden,) recurrent state: one gated update (Cho et al. 2014), then the
    linear readout. Returns (new state, (out_dim,) readout, cache for
    gru_backward)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (r.input_size,):
        raise ValueError(f"summary vector shape {x.shape} does not "
                         f"match summarizer input size {r.input_size}")
    s = state
    sx = np.concatenate([s, x])
    z = dc.sigmoid(sx @ r.w_z + r.b_z)
    rr = dc.sigmoid(sx @ r.w_r + r.b_r)
    rsx = np.concatenate([rr * s, x])
    cand = np.tanh(rsx @ r.w_h + r.b_h)
    new = (1.0 - z) * s + z * cand
    readout = new @ r.w_out + r.b_out
    return new, readout, (s, sx, z, rr, rsx, cand, new)


def gru_backward(r: RecurrentParams, cache, d_readout: np.ndarray):
    """Backprop d_readout, a gradient w.r.t. gru_step's readout, through that
    step. The committed state it started from is a constant, so nothing flows
    back through time. Returns the flat parameter gradient (the layout of
    r.flat) and the gradient w.r.t. x."""
    hid = r.hidden
    s, sx, z, rr, rsx, cand, new = cache
    d_new = r.w_out @ d_readout
    d_az = d_new * (cand - s) * z * (1.0 - z)
    d_ah = d_new * z * (1.0 - np.square(cand))
    d_rsx = r.w_h @ d_ah
    d_ar = d_rsx[:hid] * s * rr * (1.0 - rr)
    d_sx = r.w_z @ d_az + r.w_r @ d_ar
    grads = [np.outer(sx, d_az), np.outer(sx, d_ar), np.outer(rsx, d_ah),
             d_az, d_ar, d_ah, np.outer(new, d_readout), d_readout]
    return np.concatenate([a.ravel() for a in grads]), d_sx[hid:] + d_rsx[hid:]
