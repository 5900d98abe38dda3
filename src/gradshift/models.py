"""Parameterized networks: MLP feature map / classifier / critic and a gated
recurrent summarizer whose readout stands in for past-domain features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Tape, forward

ACTIVATIONS = ("relu", "tanh", "identity")


@dataclass
class MlpParams:
    weights: list[np.ndarray]          # (fan_in, fan_out) per layer
    biases: list[np.ndarray]           # (fan_out,) per layer
    activations: list[str]

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

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases],
                         list(self.activations))

    def arrays(self) -> list[np.ndarray]:
        out = []
        for w, b in zip(self.weights, self.biases):
            out += [w, b]
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
    """An MlpParams registered as leaves on one tape (shared across forwards)."""

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


def critic_forward(c: MlpParams, features, tape: Tape, *, bound: BoundMlp | None = None) -> int:
    """One scalar per row; the final layer must have width 1."""
    if c.out_dim != 1:
        raise ValueError(f"critic output layer must have size 1, got {c.out_dim}")
    b = bound if bound is not None else BoundMlp(tape, c)
    out = b(features if isinstance(features, (int, np.integer))
            else tape.input(features))
    # (n,1) -> (n,) without a reshape primitive
    return forward(tape, "sum", out, axis=1)


def mlp_eval(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Plain numpy forward pass (no tape); matches the recorded forward."""
    h = np.asarray(x, dtype=np.float64)
    for w, b, act in zip(params.weights, params.biases, params.activations):
        h = h @ w + b
        if act == "relu":
            h = np.maximum(h, 0.0)
        elif act == "tanh":
            h = np.tanh(h)
    return h


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
    layers: list[GruLayer]
    w_out: np.ndarray                  # (hidden, out_dim) linear readout
    b_out: np.ndarray
    hidden: int
    input_size: int

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

    @property
    def out_dim(self) -> int:
        return self.w_out.shape[1]

    def copy(self) -> "RecurrentParams":
        layers = [GruLayer(*(a.copy() for a in (l.w_z, l.w_r, l.w_h,
                                                l.b_z, l.b_r, l.b_h)))
                  for l in self.layers]
        return RecurrentParams(layers, self.w_out.copy(), self.b_out.copy(),
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


class BoundRecurrent:
    """RecurrentParams registered as leaves on one tape."""

    def __init__(self, tape: Tape, params: RecurrentParams):
        self.tape = tape
        self.params = params
        self.layer_ids = [[tape.input(a) for a in (l.w_z, l.w_r, l.w_h,
                                                   l.b_z, l.b_r, l.b_h)]
                          for l in params.layers]
        self.w_out_id = tape.input(params.w_out)
        self.b_out_id = tape.input(params.b_out)

    def param_ids(self) -> list[int]:
        out = [i for lay in self.layer_ids for i in lay]
        return out + [self.w_out_id, self.b_out_id]

    def step(self, state_rows: list[int], x_row: int) -> tuple[list[int], int]:
        """One gated update per layer on (1, dim) rows; returns new state rows
        and the (1, out_dim) readout row."""
        t = self.tape
        inp = x_row
        new_rows = []
        for (wz, wr, wh, bz, br, bh), s in zip(self.layer_ids, state_rows):
            sx = forward(t, "concat", (s, inp), axis=1)
            def gate(w, b, kind):
                z = forward(t, "matmul", (sx, w))
                z = forward(t, "add", (z, forward(t, "broadcast", b,
                                                  shape=t.shape(z), axis=0)))
                return forward(t, kind, z)
            z = gate(wz, bz, "sigmoid")
            r = gate(wr, br, "sigmoid")
            rs = forward(t, "mul", (r, s))
            rsx = forward(t, "concat", (rs, inp), axis=1)
            cand = forward(t, "matmul", (rsx, wh))
            cand = forward(t, "add", (cand, forward(t, "broadcast", bh,
                                                    shape=t.shape(cand), axis=0)))
            cand = forward(t, "tanh", cand)
            one = t.input(np.ones(t.shape(z)))
            keep = forward(t, "mul", (forward(t, "sub", (one, z)), s))
            new_s = forward(t, "add", (keep, forward(t, "mul", (z, cand))))
            new_rows.append(new_s)
            inp = new_s
        top = new_rows[-1]
        ro = forward(t, "matmul", (top, self.w_out_id))
        ro = forward(t, "add", (ro, forward(t, "broadcast", self.b_out_id,
                                            shape=t.shape(ro), axis=0)))
        return new_rows, ro


def summarize_step(r: RecurrentParams, state: SummaryState,
                   domain_feature_summary, tape: Tape | None = None,
                   *, bound: BoundRecurrent | None = None):
    """Absorb one domain's mean feature vector into the recurrent state.

    Returns (new SummaryState, readout). With a tape the readout is a node id
    and the whole step is differentiable w.r.t. the summarizer parameters and
    the input vector; without one plain arrays come back.
    """
    x = np.asarray(domain_feature_summary, dtype=np.float64) \
        if not isinstance(domain_feature_summary, (int, np.integer)) else None
    local = tape is None
    if local:
        tape = Tape()
    if x is not None:
        if x.shape != (r.input_size,):
            raise ValueError(f"summary vector shape {x.shape} does not match "
                             f"summarizer input size {r.input_size}")
        x_row = forward(tape, "broadcast", tape.input(x), shape=(1, x.shape[0]), axis=0)
    else:
        node = domain_feature_summary
        if tape.shape(node) != (r.input_size,):
            raise ValueError(f"summary vector shape {tape.shape(node)} does not "
                             f"match summarizer input size {r.input_size}")
        x_row = forward(tape, "broadcast", node, shape=(1, r.input_size), axis=0)
    b = bound if bound is not None else BoundRecurrent(tape, r)
    state_rows = [forward(tape, "broadcast", tape.input(h), shape=(1, r.hidden), axis=0)
                  for h in state.hidden]
    new_rows, readout_row = b.step(state_rows, x_row)
    # (1, d) -> (d,) squeeze
    readout = forward(tape, "sum", readout_row, axis=0)
    new_state = SummaryState([tape.val(forward(tape, "sum", row, axis=0)).copy()
                              for row in new_rows], state.count + 1)
    if local:
        return new_state, tape.val(readout).copy()
    return new_state, readout
