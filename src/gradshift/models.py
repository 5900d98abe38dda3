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


def init_mlp(seed: int, layer_sizes, activations=None) -> MlpParams:
    """Glorot-uniform weights in +-sqrt(6/(fan_in+fan_out)), zero biases."""
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
        bound = np.sqrt(6.0 / (fi + fo))
        ws.append(dc.rng_uniform(dc.substream(seed, "w", i), (fi, fo), -bound, bound))
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


def feature_block(x: np.ndarray) -> np.ndarray:
    """Rows x, (rows, width), as a feature-major block (width + 1, rows): one
    column per row and a row of ones last, the input of mlp_layers."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty((x.shape[1] + 1, x.shape[0]))
    out[:-1] = x.T
    out[-1] = 1.0
    return out


def mlp_layers(params: MlpParams, a: np.ndarray,
               outs: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Forward pass in plain numpy over a feature-major block `a` (see
    feature_block): one gemm per layer with its [W; b] block. Returns `a`
    and every layer's output in the same form, ones row last; matches
    BoundMlp's recorded pass. Given `outs`, an earlier result for the same
    block `a` since refilled in place, it recomputes into those arrays."""
    if outs is None:
        outs = [a] + [np.ones((blk.shape[1] + 1, a.shape[1]))
                      for blk in params.blocks()]
    for blk, act, inp, h in zip(params.blocks(), params.activations, outs,
                                outs[1:]):
        z = h[:-1]
        np.dot(blk.T, inp, out=z)
        if act == "relu":
            np.maximum(z, 0.0, out=z)
        elif act == "tanh":
            np.tanh(z, out=z)
    return outs


def mlp_backward(params: MlpParams, outs: list[np.ndarray], g: np.ndarray,
                 to_params: bool = True, to_input: bool = True):
    """Backprop g, (out_dim, rows), a gradient w.r.t. the values of the last
    of mlp_layers' outputs `outs`, through the layers. Returns the gradient
    w.r.t. the input values, (in_dim, rows), and the flat parameter gradient
    (the layout of params.flat), one gemm per layer block each; a half not
    asked for is None, and its gemms and vector are skipped."""
    blocks = params.blocks()
    grad = np.empty_like(params.flat) if to_params else None
    d_blocks = params.blocks(grad) if to_params else None
    for l in reversed(range(len(blocks))):
        act, h = params.activations[l], outs[l + 1][:-1]
        if act == "relu":
            g = g * (h > 0.0)
        elif act == "tanh":
            g = g * (1.0 - np.square(h))
        if to_params:
            np.dot(outs[l], g.T, out=d_blocks[l])
        if l or to_input:
            g = blocks[l][:-1] @ g
    return (g if to_input else None), grad


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
class GruLayer:
    w_z: np.ndarray    # (in+hidden, hidden)
    w_r: np.ndarray
    w_h: np.ndarray
    b_z: np.ndarray    # (hidden,)
    b_r: np.ndarray
    b_h: np.ndarray


@dataclass
class RecurrentParams:
    """A stacked GRU with a linear readout. Construction copies the arrays
    into `flat`, one float64 vector in arrays() order, and holds views of it
    in fresh GruLayer objects, w_out and b_out."""
    layers: list[GruLayer]
    w_out: np.ndarray                  # (hidden, out_dim) linear readout
    b_out: np.ndarray
    hidden: int
    input_size: int
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.layers:
            raise ValueError("summarizer needs at least one layer")
        for i, lay in enumerate(self.layers):
            in_size = self.input_size if i == 0 else self.hidden
            want = (in_size + self.hidden, self.hidden)
            for name in ("w_z", "w_r", "w_h"):
                if getattr(lay, name).shape != want:
                    raise ValueError(f"layer {i} {name}: expected {want}, "
                                     f"got {getattr(lay, name).shape}")
        self.flat, views = _pack(self.arrays())
        self.layers = [GruLayer(*views[i:i + 6])
                       for i in range(0, 6 * len(self.layers), 6)]
        self.w_out, self.b_out = views[-2:]

    @property
    def out_dim(self) -> int:
        return self.w_out.shape[1]

    def copy(self) -> "RecurrentParams":
        return RecurrentParams(self.layers, self.w_out, self.b_out,
                               self.hidden, self.input_size)

    def arrays(self) -> list[np.ndarray]:
        out = []
        for l in self.layers:
            out += [l.w_z, l.w_r, l.w_h, l.b_z, l.b_r, l.b_h]
        out += [self.w_out, self.b_out]
        return out


@dataclass
class SummaryState:
    hidden: list[np.ndarray]           # one (hidden,) vector per layer
    count: int = 0

    def copy(self) -> "SummaryState":
        return SummaryState([h.copy() for h in self.hidden], self.count)


def init_recurrent(seed: int, input_size: int, hidden: int, layers: int,
                   out_dim: int) -> RecurrentParams:
    if layers < 1:
        raise ValueError("layer count must be >= 1")
    def glorot(s, fi, fo):
        bound = np.sqrt(6.0 / (fi + fo))
        return dc.rng_uniform(s, (fi, fo), -bound, bound)
    lays = []
    for li in range(layers):
        in_size = input_size if li == 0 else hidden
        lays.append(GruLayer(
            glorot(dc.substream(seed, "wz", li), in_size + hidden, hidden),
            glorot(dc.substream(seed, "wr", li), in_size + hidden, hidden),
            glorot(dc.substream(seed, "wh", li), in_size + hidden, hidden),
            np.zeros(hidden), np.zeros(hidden), np.zeros(hidden)))
    return RecurrentParams(lays, glorot(dc.substream(seed, "wo"), hidden, out_dim),
                           np.zeros(out_dim), hidden, input_size)


def fresh_state(r: RecurrentParams) -> SummaryState:
    return SummaryState([np.zeros(r.hidden) for _ in r.layers], 0)


def gru_step(r: RecurrentParams, state: SummaryState, x: np.ndarray):
    """Absorb one domain's (input_size,) mean feature vector x into the
    recurrent state: one gated update per layer (Cho et al. 2014), then the
    linear readout. Returns (new SummaryState, (out_dim,) readout, cache for
    gru_backward)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (r.input_size,):
        raise ValueError(f"summary vector shape {x.shape} does not "
                         f"match summarizer input size {r.input_size}")
    inp = x
    cache = []
    for lay, s in zip(r.layers, state.hidden):
        sx = np.concatenate([s, inp])
        z = dc.sigmoid(sx @ lay.w_z + lay.b_z)
        rr = dc.sigmoid(sx @ lay.w_r + lay.b_r)
        rsx = np.concatenate([rr * s, inp])
        cand = np.tanh(rsx @ lay.w_h + lay.b_h)
        new = (1.0 - z) * s + z * cand
        cache.append((s, sx, z, rr, rsx, cand, new))
        inp = new
    readout = inp @ r.w_out + r.b_out
    return SummaryState([c[-1] for c in cache], state.count + 1), readout, cache


def gru_backward(r: RecurrentParams, cache, d_readout: np.ndarray):
    """Backprop d_readout, a gradient w.r.t. gru_step's readout, through that
    step. The committed state it started from is a constant, so nothing flows
    back through time. Returns the flat parameter gradient (the layout of
    r.flat) and the gradient w.r.t. x."""
    hid = r.hidden
    d_new = r.w_out @ d_readout
    grads = [np.outer(cache[-1][-1], d_readout), d_readout]
    for lay, (s, sx, z, rr, rsx, cand, _) in zip(reversed(r.layers),
                                                 reversed(cache)):
        d_az = d_new * (cand - s) * z * (1.0 - z)
        d_ah = d_new * z * (1.0 - np.square(cand))
        d_rsx = lay.w_h @ d_ah
        d_ar = d_rsx[:hid] * s * rr * (1.0 - rr)
        d_sx = lay.w_z @ d_az + lay.w_r @ d_ar
        grads = [np.outer(sx, d_az), np.outer(sx, d_ar), np.outer(rsx, d_ah),
                 d_az, d_ar, d_ah] + grads
        d_new = d_sx[hid:] + d_rsx[hid:]
    return np.concatenate([a.ravel() for a in grads]), d_new
