"""Learning objectives and adaptation schedules: bounded Lipschitz losses, the
critic-based alignment gap with its gradient-penalty inner loop, and the
no/direct/gradual/temporal training procedures.

Every stochastic draw is a pure function of (seed, structural coordinates), so
a schedule resumed from a stage boundary reproduces the uninterrupted run
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import models as md
from .domains import DomainBatch, DomainSequence, split_holdout

SCHEDULES = ("no_adaptation", "direct", "gradual", "gradual_temporal")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class LossSpec:
    kind: str = "cross_entropy_bounded"   # or "hinge"
    bound: float = 5.0                    # clamp M

    def __post_init__(self):
        if self.kind not in ("cross_entropy_bounded", "hinge"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.bound <= 0:
            raise ValueError("loss bound must be positive")


@dataclass
class TrainConfig:
    lam: float = 1.0                      # alignment weight
    gp_factor: float = 5.0
    k_critic: int = 5
    lr_model: float = 1e-3
    lr_critic: float = 5e-4
    batch_size: int = 64
    epochs_per_domain: int = 40
    seed: int = 0
    labeled_target: bool = True           # adapting schedules train on
                                          # the target's labels too

    def __post_init__(self):
        if self.lam < 0 or self.gp_factor < 0:
            raise ValueError("lam and gp_factor must be >= 0")
        if self.k_critic < 1:
            raise ValueError("k_critic must be >= 1")
        if self.lr_model <= 0 or self.lr_critic <= 0:
            raise ValueError("learning rates must be positive")
        if self.batch_size < 1 or self.epochs_per_domain < 1:
            raise ValueError("batch_size and epochs_per_domain must be >= 1")


@dataclass
class ModelSpec:
    feature_dim: int = 8
    hidden: int = 16
    critic_hidden: int = 16
    summarizer_hidden: int = 32

    def __post_init__(self):
        if min(self.feature_dim, self.hidden, self.critic_hidden,
               self.summarizer_hidden) < 1:
            raise ValueError("model sizes must be >= 1")


@dataclass
class AdaptationModel:
    g: md.MlpParams
    h: md.MlpParams
    critic: md.MlpParams
    summarizer: md.RecurrentParams | None = None
    summary_state: np.ndarray | None = None   # (summarizer hidden,)

    def __post_init__(self):
        m = self.g.out_dim
        if self.h.in_dim != m or self.critic.in_dim != m:
            raise ValueError(f"feature dim {m} must match classifier input "
                             f"{self.h.in_dim} and critic input {self.critic.in_dim}")
        if self.summarizer is not None and self.summarizer.out_dim != m:
            raise ValueError(f"summarizer readout {self.summarizer.out_dim} "
                             f"must match feature dim {m}")

    def copy(self) -> "AdaptationModel":
        return AdaptationModel(
            self.g.copy(), self.h.copy(), self.critic.copy(),
            self.summarizer.copy() if self.summarizer is not None else None,
            self.summary_state.copy() if self.summary_state is not None
            else None)


@dataclass
class EpochMetrics:
    t: int
    class_loss: float
    alignment: float
    gp: float
    target_acc: float


def build_model(spec: ModelSpec, d: int, k: int, seed: int) -> AdaptationModel:
    m = spec.feature_dim
    g = md.init_mlp(dc.substream(seed, "g"), [d, spec.hidden, m],
                    ["relu", "identity"])
    h = md.init_mlp(dc.substream(seed, "h"), [m, spec.hidden, k],
                    ["relu", "identity"])
    critic = md.init_mlp(dc.substream(seed, "critic"),
                         [m, spec.critic_hidden, spec.critic_hidden, 1],
                         ["tanh", "tanh", "identity"])
    # zero head: the first ascent step then breaks symmetry toward the
    # intended dual orientation instead of amplifying a random sign
    critic.weights[-1][:] = 0.0
    return AdaptationModel(g, h, critic)


# ---------------------------------------------------------------------------
# losses

def loss_values_np(spec: LossSpec, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample bounded losses in plain numpy."""
    return _loss_and_grad(spec, logits, labels)[0]


def _loss_work(logits: np.ndarray) -> tuple:
    """_loss_and_grad's work arrays for logits of this shape and memory
    layout: the row ids, two arrays laid out like the logits, three per-row
    vectors (the first two also as columns) and a per-row mask."""
    n = logits.shape[0]
    c, s, raw = np.empty(n), np.empty(n), np.empty(n)
    return (np.arange(n), np.empty_like(logits), np.empty_like(logits), c,
            s, raw, np.empty(n, dtype=bool), c[:, None], s[:, None])


def _loss_and_grad(spec: LossSpec, logits, labels, work: tuple | None = None):
    """Per-sample losses min(raw, M) and the gradient of their mean w.r.t.
    the logits. A clamped sample has zero gradient. Both are written into
    `work`, from _loss_work for logits of this shape and layout (fresh
    arrays by default), and returned as its arrays."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = z.shape[0]
    rows, e, grad, c, s, raw, keep, c_col, s_col = work or _loss_work(z)
    if spec.kind == "cross_entropy_bounded":
        # log-sum-exp shifted by the row max (exact: LSE(z) = c + LSE(z-c))
        np.maximum.reduce(z, axis=1, out=c)
        np.subtract(z, c_col, out=e)
        np.exp(e, out=e)
        np.add.reduce(e, axis=1, out=s)
        np.add(c, np.log(s, out=raw), out=raw)
        raw -= z[rows, y]
        np.divide(e, s_col, out=grad)
        grad[rows, y] -= 1.0
    else:
        # sum over wrong classes of relu(1 + z_j - z_y), in e
        np.add(1.0, z, out=e)
        e -= z[rows, y][:, None]
        np.maximum(e, 0.0, out=e)
        e[rows, y] = 0.0
        np.add.reduce(e, axis=1, out=raw)
        np.greater(e, 0.0, out=grad)
        grad[rows, y] = np.negative(np.add.reduce(grad, axis=1, out=s), out=s)
    np.less(raw, spec.bound, out=keep)
    np.divide(keep, n, out=c)
    grad *= c_col
    return np.minimum(raw, spec.bound, out=raw), grad


# ---------------------------------------------------------------------------
# optimizers

class _Opt:
    """Adam (Kingma and Ba 2014) over a fixed list of arrays. Training passes
    each network's flat parameter vector. The arrays' moments are stacked
    in one (2, P) array, m over v, P the arrays' total size: a step copies
    the gradients into one vector when there are several, runs ten
    whole-vector operations, m and v together where they take the same
    operation with the rows [b1; b2] and [1 - b1; 1 - b2], and subtracts
    each array's slice of the update from it."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        edges = np.cumsum([0] + [p.size for p in params]).tolist()
        self.mv = np.zeros((2, edges[-1]))
        self.m, self.v = self.mv
        self.step_count = 0
        self.beta = np.empty_like(self.mv)
        self.beta[0], self.beta[1] = self.B1, self.B2
        self.one_minus = np.subtract(1.0, self.beta)
        self.work = np.empty_like(self.mv)
        self.w_m, self.w_v = self.work
        # one flat vector of the gradients, unless there is one already
        self.grad = (None if len(params) == 1 and params[0].ndim == 1
                     else np.empty(edges[-1]))
        self.updates = [(p, self.work[0, a:b].reshape(p.shape))
                        for p, a, b in zip(params, edges, edges[1:])]

    def step(self, grads: list[np.ndarray]):
        self.step_count += 1
        t, mv, w, w_m, w_v = (self.step_count, self.mv, self.work, self.w_m,
                              self.w_v)
        c1, c2 = 1.0 - self.B1 ** t, 1.0 - self.B2 ** t
        g = (grads[0] if self.grad is None
             else np.concatenate(grads, axis=None, out=self.grad))
        # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        mv *= self.beta
        np.multiply(g, self.one_minus, out=w)
        w_v *= g
        mv += w
        np.divide(self.m, c1, out=w_m)
        np.divide(self.v, c2, out=w_v)
        w_m *= self.lr
        np.sqrt(w_v, out=w_v)
        w_v += self.EPS
        np.divide(w_m, w_v, out=w_m)
        for p, update in self.updates:
            p -= update


class _CriticLoop:
    """The critic's closed-form ascent steps on batches of n rows, bound by
    _run_stage once per batch size: the constructor is the one entry to the
    critic step, and it rejects any critic but build_model's, tanh, tanh
    and identity layers with weights w1, w2, w3 and a head of width 1.

    Each step's gradient is computed in closed form from one numpy forward
    pass over the columns [a, b, interpolates] of a feature-major block x
    (mlp_layers' form), with hidden outputs h1, h2 and slopes s = 1 - h^2.
    The input gradient at the interpolates is the backward chain gamma2 =
    w3 s2, dh1 = w2 gamma2, gamma1 = dh1 s1, dx = w1 gamma1. The penalty's
    adjoint adj_x then runs forward through that chain (double backprop):
    adj_g1 = w1' adj_x, adj_h1 = adj_g1 s1, adj_g2 = w2' adj_h1, adj_h2 =
    adj_g2 s2, and each tanh layer sends a second-derivative term to its
    pre-activation, sec1 = adj_g1 dh1 (-2 h1 s1) and sec2 = adj_g2 w3
    (-2 h2 s2). One primal backprop over all columns (back2, then back1),
    seeded with the gap's -1/n and +1/n, carries those terms to the
    parameters. The tests hold it to the taped gap and penalty, and to the
    bits of the loop that allocated its arrays afresh each step
    (tests/critic_oracle.py).

    Construction binds every view and work buffer, so a step allocates
    nothing (a run allocates its steps' interpolates): each numpy call
    writes into a bound array through out=, and the forward pass is a
    models.MlpForward on the bound outputs. h1 and h2 share one buffer, so
    their slopes, their factors -2 h s and the product of those factors
    with sec1 and sec2 are one pass each; a run forms all its steps'
    interpolates at once; the gap's two sums are one reduction; and the
    penalty's weight gradients sit in a vector laid out like the gradient,
    whose bias rows hold -0.0, so one addition adds them and leaves every
    other bit as it is (x + -0.0 is x). The head's input gradient w3 1 and
    its product with the gap's seed have one term each, so they are exact
    broadcasts of w3 instead of gemms.
    """

    def __init__(self, critic: md.MlpParams, n: int):
        acts = list(critic.activations)
        if acts != ["tanh", "tanh", "identity"] or critic.out_dim != 1:
            raise ValueError(f"the critic loop needs tanh, tanh and identity "
                             f"layers with a head of width 1, got {acts} and "
                             f"width {critic.out_dim}")
        blk1, blk2, blk3 = critic.blocks()
        (m, c1), c2, k = blk1[:-1].shape, blk2.shape[1], 2 * n
        self.n = n
        self.w1, self.w2, self.w3 = blk1[:-1], blk2[:-1], blk3[:-1]
        self.w1_t, self.w2_t = self.w1.T, self.w2.T
        # columns [a, b] are written once per run; each step copies its
        # interpolates into the last n
        self.x = x = md.bias_block(m, k + n)
        self.xa, self.xb, self.xh = x[:m, :n], x[:m, n:k], x[:m, k:]
        # h1 over h2, each with its ones row; row for row, their slopes,
        # and at the interpolates their factors -2 h s in curv and the
        # second-derivative terms in secs (zero in the ones rows)
        self.hid = hid = np.empty((c1 + c2 + 2, k + n))
        self.h1, self.h2 = h1, h2 = hid[:c1 + 1], hid[c1 + 1:]
        h1[-1] = h2[-1] = 1.0
        self.slopes = slopes = np.empty_like(hid)
        self.s1, self.s2 = slopes[:c1], slopes[c1 + 1:-1]
        self.s1_i, self.s2_i = self.s1[:, k:], self.s2[:, k:]
        self.hid_i, self.slopes_i = hid[:, k:], slopes[:, k:]
        self.curv = np.empty((c1 + c2 + 2, n))
        self.secs = secs = np.zeros_like(self.curv)
        self.sec1, self.sec2 = secs[:c1], secs[c1 + 1:-1]
        head = md.bias_block(1, k + n)
        self.forward = md.MlpForward(critic, [x, h1, h2, head])
        # the head's a and b columns as the rows of one (2, n) view
        self.head_ab = head[0, :k].reshape(2, n)
        self.sums = np.empty(2)
        # the input-gradient chain at the interpolates
        self.gamma1, self.gamma2 = np.empty((c1, n)), np.empty((c2, n))
        self.gamma1_t, self.gamma2_t = self.gamma1.T, self.gamma2.T
        self.dx, self.dh1 = np.empty((m, n)), np.empty((c1, n))
        self.norms, self.norms_m1, self.work_n = (np.empty(n), np.empty(n),
                                                  np.empty(n))
        # the penalty's adjoint and its weight gradients
        self.adj_x, self.adj_h1, self.adj_h2 = (np.empty((m, n)),
                                                np.empty((c1, n)),
                                                np.empty((c2, n)))
        self.adj_g1, self.adj_g2 = np.empty((c1, n)), np.empty((c2, n))
        self.ones_t = np.ones((1, n)).T
        self.pen = np.empty_like(critic.flat)
        pen1, pen2, pen3 = critic.blocks(self.pen)
        pen1[-1] = pen2[-1] = pen3[-1] = -0.0
        self.pen_w1, self.pen_w2, self.pen_w3 = pen1[:-1], pen2[:-1], pen3[:-1]
        # the primal backprop over all columns, from the gap's seed
        self.seed_g = seed_g = np.zeros((1, k + n))
        seed_g[0, :n], seed_g[0, n:k] = -1.0 / n, 1.0 / n
        self.seed_t = seed_g.T
        self.back1, self.back2 = np.empty((c1, k + n)), np.empty((c2, k + n))
        self.back1_t, self.back2_t = self.back1.T, self.back2.T
        self.back1_i, self.back2_i = self.back1[:, k:], self.back2[:, k:]
        self.grad = np.empty_like(critic.flat)
        self.grad1, self.grad2, self.grad3 = critic.blocks(self.grad)

    def run(self, opt: _Opt, fa: np.ndarray, fb: np.ndarray,
            gp_factor: float, draws: np.ndarray, where: str):
        """One dual update in place per row u of the (steps, n) uniforms
        `draws`: each ascends mean c(a) - mean c(b) minus gp_factor times
        the gradient penalty at the interpolates u a + (1 - u) b between
        the paired rows of the finite (n, width) batches fa, fb. Returns
        the last step's (gap, penalty), before its update."""
        n = self.n
        self.xa[...], self.xb[...] = fa.T, fb.T
        grads = [self.grad]
        adjoint_scale = gp_factor * 2.0 / n
        # every step's interpolates, (steps, width, n)
        u = draws[:, None, :]
        inter = np.multiply(self.xa, u)
        inter += np.multiply(np.subtract(1.0, u), self.xb)
        gap, pen = 0.0, 0.0
        for step, x_i in enumerate(inter):
            np.copyto(self.xh, x_i)
            self.forward()
            np.square(self.hid, out=self.slopes)
            np.subtract(1.0, self.slopes, out=self.slopes)
            np.multiply(self.hid_i, -2.0, out=self.curv)
            self.curv *= self.slopes_i
            np.multiply(self.w3, self.s2_i, out=self.gamma2)
            self.w2.dot(self.gamma2, out=self.dh1)
            np.multiply(self.dh1, self.s1_i, out=self.gamma1)
            self.w1.dot(self.gamma1, out=self.dx)
            # adj_x is free until the adjoint fills it
            np.square(self.dx, out=self.adj_x)
            np.add.reduce(self.adj_x, axis=0, out=self.norms)
            self.norms += 1e-24
            np.sqrt(self.norms, out=self.norms)
            np.subtract(self.norms, 1.0, out=self.norms_m1)
            pen = float(np.add.reduce(np.square(self.norms_m1,
                                                out=self.work_n))) / n
            sum_a, sum_b = np.add.reduce(self.head_ab, axis=1,
                                         out=self.sums).tolist()
            gap = sum_a / n - sum_b / n
            if not math.isfinite(pen * gp_factor - gap):
                raise TrainingDiverged(
                    f"non-finite critic loss at {where}, critic step {step}")
            # the penalty's adjoint, forward through the input-gradient chain
            np.divide(self.norms_m1, self.norms, out=self.work_n)
            self.work_n *= adjoint_scale
            np.multiply(self.work_n, self.dx, out=self.adj_x)
            self.adj_x.dot(self.gamma1_t, out=self.pen_w1)
            self.w1_t.dot(self.adj_x, out=self.adj_g1)
            np.multiply(self.adj_g1, self.dh1, out=self.sec1)
            np.multiply(self.adj_g1, self.s1_i, out=self.adj_h1)
            self.adj_h1.dot(self.gamma2_t, out=self.pen_w2)
            self.w2_t.dot(self.adj_h1, out=self.adj_g2)
            np.multiply(self.adj_g2, self.w3, out=self.sec2)
            np.multiply(self.adj_g2, self.s2_i, out=self.adj_h2)
            self.adj_h2.dot(self.ones_t, out=self.pen_w3)
            self.secs *= self.curv
            # primal backprop over all columns, from the head down
            self.h2.dot(self.seed_t, out=self.grad3)
            np.multiply(self.w3, self.seed_g, out=self.back2)
            self.back2 *= self.s2
            self.back2_i += self.sec2
            self.h1.dot(self.back2_t, out=self.grad2)
            self.w2.dot(self.back2, out=self.back1)
            self.back1 *= self.s1
            self.back1_i += self.sec1
            self.x.dot(self.back1_t, out=self.grad1)
            self.grad += self.pen
            opt.step(grads)
        return gap, pen


# ---------------------------------------------------------------------------
# adaptation stages

def _check_finite(value, what: str, where: str):
    if not np.isfinite(value).all():
        raise TrainingDiverged(f"non-finite {what} at {where}")


class _ModelStep:
    """One batch's primal-dual step on batches of n source rows, bound by
    _run_stage once per batch size in a stage, with the stage's critic loop
    for that size when the stage aligns (`align`). An aligning step trains
    on the target's labels when cfg.labeled_target is set, and on the
    temporal history when the model has a summarizer.

    The labeled rows run forward through g and h. When aligning, the critic
    ascends k_critic times on the target features and the source history,
    then the model descends on class loss plus lam times the gap under the
    updated critic. The model gradient is backprop in closed form: the loss
    gradient back through h, the gap's input gradient under the critic, and
    both back through g and, for the temporal history, through the
    summarizer's one gated step from the committed state.

    Construction binds the input blocks, every network's outputs and
    backward work, the loss's work arrays and the gap's constant seed, so
    a step writes the batch's rows into the bound block and reruns the same
    arithmetic into the same arrays. The tests hold it to the taped
    gradient, and to the bits of the step that allocated its arrays afresh
    (tests/step_oracle.py).
    """

    def __init__(self, model: AdaptationModel, n: int, cfg: TrainConfig,
                 loss_spec: LossSpec, *, align: bool):
        self.model, self.n, self.cfg, self.loss_spec = model, n, cfg, loss_spec
        self.labeled = labeled = align and cfg.labeled_target
        self.temporal = align and model.summarizer is not None
        d, m = model.g.in_dim, model.g.out_dim
        # feature-major blocks throughout (see models.mlp_layers): a row of
        # a batch is a column here, and the labeled rows are [xs; xt]
        x = md.bias_block(d, 2 * n if labeled else n)
        self.xs, self.xt = x[:d, :n], x[:d, n:] if labeled else None
        self.y = np.empty(2 * n, dtype=np.int64) if labeled else None
        self.g_fwd = md.MlpForward(model.g, md.mlp_outputs(model.g, x))
        g_outs = self.g_fwd.outs
        self.h_fwd = md.MlpForward(model.h,
                                   md.mlp_outputs(model.h, g_outs[-1]))
        self.logits = self.h_fwd.outs[-1][:-1].T
        self.loss_work = _loss_work(self.logits)
        self.h_back = md.MlpBackward(model.h, self.h_fwd.outs)
        self.g_back = md.MlpBackward(model.g, g_outs, to_input=False)
        self.grads = [self.g_back.grad, self.h_back.grad]
        self.loop = None
        if not align:
            return
        self.loop = _CriticLoop(model.critic, n)
        if self.temporal:
            self.grads.append(None)         # the summarizer's, per step
        self.f_s = g_outs[-1][:-1, :n]
        if labeled:
            self.f_t = g_outs[-1][:-1, n:]
        else:
            # the target rows' own pass through g
            xt = md.bias_block(d, n)
            self.xt = xt[:d]
            self.t_fwd = md.MlpForward(model.g, md.mlp_outputs(model.g, xt))
            self.f_t = self.t_fwd.outs[-1][:-1]
            self.t_back = md.MlpBackward(model.g, self.t_fwd.outs,
                                         to_input=False)
        # the critic's pass over the columns [f_t, hist], seeded with the
        # gradient of lam (mean c(f_t) - mean c(hist))
        xc = md.bias_block(m, 2 * n)
        self.xc_t, self.xc_h = xc[:m, :n], xc[:m, n:]
        self.c_fwd = md.MlpForward(model.critic,
                                   md.mlp_outputs(model.critic, xc))
        self.c_ab = self.c_fwd.outs[-1][0].reshape(2, n)
        self.sums = np.empty(2)
        self.c_back = md.MlpBackward(model.critic, self.c_fwd.outs,
                                     to_params=False)
        self.d_c = np.full((1, 2 * n), -cfg.lam / n)
        self.d_c[0, :n] = cfg.lam / n

    def run(self, opt_model: _Opt, opt_critic: _Opt | None, xs, ys, xt, yt,
            draws, where: str):
        """The step in place on the source rows xs, ys and, when aligning,
        as many target rows xt, yt, whose critic steps take the (k_critic,
        n) interpolation draws `draws`; a divergence names `where`. Returns
        (class loss, gap, penalty); the last two come from the final critic
        step, 0 without alignment."""
        model, n, cfg, loop = self.model, self.n, self.cfg, self.loop
        logits = self.logits
        self.xs[...] = xs.T
        y = ys
        if self.labeled:
            self.xt[...] = xt.T
            y = self.y
            y[:n], y[n:] = ys, yt
        self.g_fwd()
        self.h_fwd()
        _check_finite(logits, "logits", where)
        losses, d_logits = _loss_and_grad(self.loss_spec, logits, y,
                                          self.loss_work)
        loss = ce = float(np.add.reduce(losses) / len(losses))
        d_feats = self.h_back(d_logits.T)[0]
        grads = self.grads
        gap = pen = 0.0
        if loop is not None:
            f_s, f_t = self.f_s, self.f_t
            if not self.labeled:
                self.xt[...] = xt.T
                self.t_fwd()
            _check_finite(f_s, "source features", where)
            _check_finite(f_t, "target features", where)
            hist = f_s
            if self.temporal:
                _, readout, cache = md.gru_step(model.summarizer,
                                                model.summary_state,
                                                np.add.reduce(f_s, axis=1) / n)
                hist = f_s * 0.5 + readout[:, None] * 0.5
                _check_finite(hist, "history features", where)
            gap, pen = loop.run(opt_critic, f_t.T, hist.T, cfg.gp_factor,
                                draws, where)
            # lam times the gap under the updated critic
            self.xc_t[...], self.xc_h[...] = f_t, hist
            self.c_fwd()
            sum_t, sum_h = np.add.reduce(self.c_ab, axis=1,
                                         out=self.sums).tolist()
            loss = ce + cfg.lam * (sum_t / n - sum_h / n)
            d_cols = self.c_back(self.d_c)[0]
            d_t, d_hist = d_cols[:, :n], d_cols[:, n:]
            if self.temporal:
                grads[2], d_mean = md.gru_backward(
                    model.summarizer, cache,
                    0.5 * np.add.reduce(d_hist, axis=1))
                d_hist = d_hist * 0.5 + d_mean[:, None] / n
            d_feats[:, :n] += d_hist
            if self.labeled:
                d_feats[:, n:] += d_t
        if not math.isfinite(loss):
            raise TrainingDiverged(f"non-finite model loss at {where}")
        grad_g = self.g_back(d_feats)[1]
        if loop is not None and not self.labeled:
            grad_g += self.t_back(d_t)[1]
        opt_model.step(grads)
        return ce, gap, pen


def _run_stage(model: AdaptationModel, source: DomainBatch,
               target: DomainBatch | None, cfg: TrainConfig, *, stage: int,
               loss_spec: LossSpec, eval_batch: DomainBatch | None):
    """Train one adaptation stage in place, one _ModelStep run per batch;
    returns EpochMetrics of the last epoch. The stage binds one _ModelStep
    per batch size, on its first batch of that size. A stage with a target
    aligns: it pairs each source batch with target rows, its steps carry a
    _CriticLoop, and it also trains the model's summarizer, if it has one.
    Without a target the stage fits the source alone and draws nothing for
    a target."""
    align = target is not None
    if align and (source.d != target.d or source.k != target.k):
        raise ValueError("source/target dimension mismatch")
    nets = [model.g, model.h]
    if align and model.summarizer is not None:
        nets.append(model.summarizer)
    opt_model = _Opt([n.flat for n in nets], cfg.lr_model)
    opt_critic = _Opt([model.critic.flat], cfg.lr_critic) if align else None
    steps: dict[int, _ModelStep] = {}
    # the [batch, critic step] tags of an aligning epoch's interpolation draws
    batches = np.arange(len(range(0, source.n, cfg.batch_size)),
                        dtype=np.uint64)[:, None]
    critic_steps = np.arange(cfg.k_critic, dtype=np.uint64)
    # the position in an epoch's target order that each source row, in
    # batch order, pairs with: the batches take the next rows, cycling
    paired = np.arange(source.n) % target.n if align else None
    xt = yt = step_draws = None
    for epoch in range(cfg.epochs_per_domain):
        loss_sum = gap_sum = pen_sum = 0.0
        order = dc.rng_permutation(dc.substream(cfg.seed, "order", stage, epoch),
                                   source.n)
        # the epoch's rows, gathered once in batch order
        xs_all, ys_all = source.features[order], source.labels[order]
        if align:
            tgt = dc.rng_permutation(dc.substream(cfg.seed, "torder", stage,
                                                  epoch), target.n)[paired]
            xt_all, yt_all = target.features[tgt], target.labels[tgt]
            ids = dc.substream(cfg.seed, "gp", stage, epoch, batches,
                               critic_steps, "gp_u")
            draws = dc.uniform_rows(ids.ravel(), cfg.batch_size).reshape(
                *ids.shape, cfg.batch_size)
        for b, start in enumerate(range(0, source.n, cfg.batch_size)):
            rows = slice(start, start + cfg.batch_size)
            xs = xs_all[rows]
            ns = len(xs)
            step = steps.get(ns)
            if step is None:
                step = steps[ns] = _ModelStep(model, ns, cfg, loss_spec,
                                              align=align)
            if align:
                xt, yt = xt_all[rows], yt_all[rows]
                step_draws = draws[b, :, :ns]
            ce, gap, pen = step.run(
                opt_model, opt_critic, xs, ys_all[rows], xt, yt, step_draws,
                f"stage {stage} epoch {epoch} batch {b}")
            loss_sum += ce
            gap_sum += gap
            pen_sum += pen
    acc = 0.0
    if eval_batch is not None:
        acc = md.accuracy(model.g, model.h, eval_batch.features, eval_batch.labels)
    # every epoch runs len(batches) >= 1 steps
    return EpochMetrics(t=(target or source).t,
                        class_loss=loss_sum / len(batches),
                        alignment=gap_sum / len(batches),
                        gp=pen_sum / len(batches), target_acc=acc)


def train_erm(model: AdaptationModel, batch: DomainBatch, cfg: TrainConfig, *,
              stage: int = 0, loss_spec: LossSpec = LossSpec(),
              eval_batch: DomainBatch | None = None):
    """Plain empirical risk minimization sharing an adaptation stage's seed
    and batch order (the lambda=0 degenerate case without the critic loop)."""
    out = model.copy()
    metrics = _run_stage(out, batch, None, cfg, stage=stage,
                         loss_spec=loss_spec, eval_batch=eval_batch)
    return out, metrics


def initial_model(kind: str, seq: DomainSequence, spec: ModelSpec,
                  seed: int) -> AdaptationModel:
    """The untrained model a run of schedule `kind` starts from, or that a
    resumed run fills from its checkpoint: gradual_temporal adds the
    summarizer, and the draws come from the run seed's init substream."""
    init = dc.substream(seed, "init")
    model = build_model(spec, seq.d, seq.k, init)
    if kind != "gradual_temporal":
        return model
    m = spec.feature_dim
    summ = md.init_recurrent(dc.substream(init, "summ"), m,
                             spec.summarizer_hidden, m)
    return replace(model, summarizer=summ,
                   summary_state=np.zeros(spec.summarizer_hidden))


def train_schedule(kind: str, seq: DomainSequence, cfg: TrainConfig,
                   model_spec: ModelSpec | None = None, *, holdout: float = 0.25,
                   loss_spec: LossSpec = LossSpec(),
                   start_model: AdaptationModel | None = None,
                   start_stage: int = 0, stage_callback=None):
    """Run one adaptation schedule; returns (final model, per-stage metrics).

    Every schedule is a list of (source, target) stages, trained in order;
    no_adaptation's one stage has no target, so it does not align.
    Evaluation is always on the held-out split of the final domain.
    `start_model`/`start_stage` resume any schedule from a stage boundary
    (past its last stage nothing is trained); `stage_callback(stage_index,
    model, metrics)` fires after each completed stage.
    """
    if kind not in SCHEDULES:
        raise ValueError(f"unknown schedule {kind!r}; expected one of {SCHEDULES}")
    if seq.T < 2:
        raise ValueError("schedules need T >= 2 domains")
    train_seq, eval_seq = split_holdout(seq, holdout,
                                        dc.substream(cfg.seed, "holdout"))
    eval_batch = eval_seq.domains[-1]
    if start_model is not None:
        model = start_model.copy()
    else:
        model = initial_model(kind, seq, model_spec or ModelSpec(), cfg.seed)
    domains = train_seq.domains
    if kind == "no_adaptation":
        stages = [(domains[0], None)]
    elif kind == "direct":
        pooled = DomainBatch(0, np.concatenate([d.features for d in domains[:-1]]),
                             np.concatenate([d.labels for d in domains[:-1]]),
                             seq.k)
        stages = [(pooled, domains[-1])]
    else:
        stages = list(zip(domains[:-1], domains[1:]))
    trace: list[EpochMetrics] = []
    for t in range(start_stage, len(stages)):
        source, target = stages[t]
        metrics = _run_stage(model, source, target, cfg, stage=t,
                             loss_spec=loss_spec, eval_batch=eval_batch)
        if model.summarizer is not None:
            # commit the finished domain into the recurrent state under the
            # final feature map
            mean_f = md.mlp_eval(model.g, source.features).mean(axis=0)
            _check_finite(mean_f, "summary features", f"stage {t} commit")
            model.summary_state = md.gru_step(model.summarizer,
                                              model.summary_state, mean_f)[0]
        trace.append(metrics)
        if stage_callback is not None:
            stage_callback(t, model, metrics)
    return model, trace
