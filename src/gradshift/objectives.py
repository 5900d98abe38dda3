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
    critic step, and it rejects any critic but build_model's, tanh hidden
    layers under an identity head of width 1.

    Each step's gradient is computed in closed form from one numpy forward
    pass over the columns [a, b, interpolates] of a feature-major block
    (mlp_layers' form). The input gradient at the interpolates is the
    backward chain delta_L = W_L 1 (the identity head), gamma_l =
    delta_{l+1} * s_l, delta_l = W_l gamma_l, with s_l = 1 - h_l^2 each
    hidden layer's slope. The penalty's adjoint then runs forward through
    that chain (double backprop), where each tanh layer also sends a
    second-derivative term to its pre-activation. One primal backprop over
    all columns, seeded with the gap's -1/n and +1/n, carries those terms
    to the parameters. The tests hold it to the taped gap and penalty, and
    to the bits of the loop that allocated its arrays afresh each step
    (tests/critic_oracle.py).

    Construction binds every view and work buffer, so a step allocates
    nothing (a run allocates its steps' interpolates): each numpy call
    writes into a bound array through out=, and the forward pass is a
    models.MlpForward on the bound outputs. Work that is the same
    arithmetic over several arrays is one call over a buffer that holds
    them all: the hidden layers' outputs share one buffer, so their slopes,
    their second-derivative factors and the product of those factors with
    the adjoint's terms are one pass each; a run forms all its steps'
    interpolates at once; the gap's two sums are one reduction; and the
    penalty's weight gradients sit in a vector laid out like the gradient,
    whose bias rows hold -0.0, so one addition adds them and leaves every
    other bit as it is (x + -0.0 is x). The head's products with the ones
    row (delta_L = W_L 1) and with the gap's seed have one term each, so
    they are exact broadcasts of W_L instead of gemms.
    """

    def __init__(self, critic: md.MlpParams, n: int):
        acts = list(critic.activations)
        if (critic.out_dim != 1 or acts[-1] != "identity"
                or any(a != "tanh" for a in acts[:-1])):
            raise ValueError(f"the critic loop needs tanh hidden layers and "
                             f"an identity head of width 1, got {acts} and "
                             f"width {critic.out_dim}")
        m, k = critic.in_dim, 2 * n
        self.n = n
        # columns [a, b] are written once per run; each step copies its
        # interpolates into the last n
        x = np.empty((m + 1, k + n))
        x[m] = 1.0
        self.xa, self.xb, self.xh = x[:m, :n], x[:m, n:k], x[:m, k:]
        self.grad = np.empty_like(critic.flat)
        self.pen = np.empty_like(critic.flat)
        pen_blocks = critic.blocks(self.pen)
        for blk in pen_blocks:
            blk[-1] = -0.0
        self.seed_g = seed_g = np.zeros((1, k + n))
        seed_g[0, :n], seed_g[0, n:k] = -1.0 / n, 1.0 / n
        # the hidden layers' outputs, each with its ones row, stacked in
        # hid; row for row, their slopes s in slopes, and at the
        # interpolates their second-derivative factors -2 h s in curv and
        # the adjoint's second-derivative terms in secs (zero in the gaps)
        ws = [blk[:-1] for blk in critic.blocks()]
        edges = np.cumsum([0] + [w.shape[1] + 1 for w in ws[:-1]]).tolist()
        self.hid = hid = np.empty((edges[-1], k + n))
        self.slopes = slopes = np.empty_like(hid)
        self.curv = curv = np.empty((edges[-1], n))
        self.secs = secs = np.zeros_like(curv)
        outs = ([x] + [hid[a:b] for a, b in zip(edges, edges[1:])]
                + [np.empty((2, k + n))])
        for h in outs[1:]:
            h[-1] = 1.0
        self.forward = md.MlpForward(critic, outs)
        # Layer l, with W_l of shape (fan_in, fan_out), has: its output h
        # (in outs[l + 1], ones row last); the chain's deltas[l] (fan_in,
        # n; the head's is W_L itself, broadcast); the adjoint's
        # d_deltas[l] (fan_in, n) and pen_w (fan_in, fan_out, in pen); the
        # primal backprop's gradient at h, backs[l] (fan_out, k + n; the
        # head's is the gap's seed itself). A hidden layer also has its
        # slope s over all k + n columns, and the chain's gamma, the
        # adjoint's d_gamma and second-derivative term sec (fan_out, n).
        # The suffix _i marks the columns of the interpolates.
        d_blocks = critic.blocks(self.grad)
        deltas = [np.empty((w.shape[0], n)) for w in ws[:-1]] + [ws[-1]]
        d_deltas = [np.empty((w.shape[0], n)) for w in ws]
        backs = [np.empty((w.shape[1], k + n)) for w in ws[:-1]] + [seed_g]
        pen_ws = [blk[:-1] for blk in pen_blocks]
        chain, adjoint, primal = [], [], []
        for l, w in enumerate(ws[:-1]):
            rows = slice(edges[l], edges[l + 1] - 1)
            s, above, back = slopes[rows], deltas[l + 1], backs[l]
            gamma, d_gamma = (np.empty((w.shape[1], n)) for _ in range(2))
            sec = secs[rows]
            chain.append((s[:, k:], above, gamma, w, deltas[l]))
            adjoint.append((d_deltas[l], gamma.T, pen_ws[l], w.T, d_gamma,
                            sec, above, s[:, k:], d_deltas[l + 1]))
            primal.append((back, s, back[:, k:], sec, outs[l], back.T,
                           d_blocks[l], w, backs[l - 1] if l else None))
        self.hid_i, self.slopes_i = hid[:, k:], slopes[:, k:]
        self.chain, self.adjoint = chain[::-1], adjoint
        self.primal = primal[::-1]
        self.delta0, self.d_delta0 = deltas[0], d_deltas[0]
        self.head = (ws[-1], d_deltas[-1], np.ones((1, n)).T, pen_ws[-1],
                     outs[-2], seed_g.T, d_blocks[-1],
                     backs[-2] if len(ws) > 1 else None)
        # the head's a and b columns as the rows of one (2, n) view
        self.head_ab = outs[-1][0, :k].reshape(2, n)
        self.sums = np.empty(2)
        self.norms, self.norms_m1, self.work_n = (np.empty(n), np.empty(n),
                                                  np.empty(n))

    def run(self, opt: _Opt, fa: np.ndarray, fb: np.ndarray,
            gp_factor: float, draws: np.ndarray, where: str):
        """One dual update in place per row u of the (steps, n) uniforms
        `draws`: each ascends mean c(a) - mean c(b) minus gp_factor times
        the gradient penalty at the interpolates u a + (1 - u) b between
        the paired rows of the finite (n, width) batches fa, fb. Returns
        the last step's (gap, penalty), before its update."""
        n, seed_g = self.n, self.seed_g
        xa, xb, xh = self.xa, self.xb, self.xh
        xa[...], xb[...] = fa.T, fb.T
        forward = self.forward
        hid, slopes, hid_i, slopes_i, curv, secs = (
            self.hid, self.slopes, self.hid_i, self.slopes_i, self.curv,
            self.secs)
        chain, adjoint, primal = self.chain, self.adjoint, self.primal
        (w_head, d_delta_head, ones_t, pen_w_head, inp_head, seed_t,
         d_blk_head, below_head) = self.head
        delta0, d_delta0, head_ab, sums = (self.delta0, self.d_delta0,
                                           self.head_ab, self.sums)
        norms, norms_m1, work_n = self.norms, self.norms_m1, self.work_n
        grad, pen_grad = self.grad, self.pen
        sq0 = d_delta0                      # free until the adjoint fills it
        grads = [grad]
        adjoint_scale = gp_factor * 2.0 / n
        # every step's interpolates, (steps, width, n)
        u = draws[:, None, :]
        inter = np.multiply(xa, u)
        inter += np.multiply(np.subtract(1.0, u), xb)
        gap, pen = 0.0, 0.0
        for step, x_i in enumerate(inter):
            np.copyto(xh, x_i)
            forward()
            np.square(hid, out=slopes)
            np.subtract(1.0, slopes, out=slopes)
            np.multiply(hid_i, -2.0, out=curv)
            curv *= slopes_i
            for s_i, above, gamma, w, delta in chain:
                np.multiply(above, s_i, out=gamma)
                w.dot(gamma, out=delta)
            np.square(delta0, out=sq0)
            np.add.reduce(sq0, axis=0, out=norms)
            norms += 1e-24
            np.sqrt(norms, out=norms)
            np.subtract(norms, 1.0, out=norms_m1)
            pen = float(np.add.reduce(np.square(norms_m1, out=work_n))) / n
            sum_a, sum_b = np.add.reduce(head_ab, axis=1, out=sums).tolist()
            gap = sum_a / n - sum_b / n
            if not math.isfinite(pen * gp_factor - gap):
                raise TrainingDiverged(
                    f"non-finite critic loss at {where}, critic step {step}")
            # the penalty's adjoint, forward through the input-gradient chain
            np.divide(norms_m1, norms, out=work_n)
            work_n *= adjoint_scale
            np.multiply(work_n, delta0, out=d_delta0)
            for (d_delta, gamma_t, pen_w, w_t, d_gamma, sec, above, s_i,
                 d_next) in adjoint:
                d_delta.dot(gamma_t, out=pen_w)
                w_t.dot(d_delta, out=d_gamma)
                np.multiply(d_gamma, above, out=sec)
                np.multiply(d_gamma, s_i, out=d_next)
            d_delta_head.dot(ones_t, out=pen_w_head)
            secs *= curv
            # primal backprop over all columns, from the head down
            inp_head.dot(seed_t, out=d_blk_head)
            if below_head is not None:
                np.multiply(w_head, seed_g, out=below_head)
            for g, s, g_i, sec, inp, g_t, d_blk, w, below in primal:
                g *= s
                g_i += sec
                inp.dot(g_t, out=d_blk)
                if below is not None:
                    w.dot(g, out=below)
            grad += pen_grad
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
        x = np.empty((d + 1, 2 * n if labeled else n))
        x[d] = 1.0
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
            xt = np.empty((d + 1, n))
            xt[d] = 1.0
            self.xt = xt[:d]
            self.t_fwd = md.MlpForward(model.g, md.mlp_outputs(model.g, xt))
            self.f_t = self.t_fwd.outs[-1][:-1]
            self.t_back = md.MlpBackward(model.g, self.t_fwd.outs,
                                         to_input=False)
        # the critic's pass over the columns [f_t, hist], seeded with the
        # gradient of lam (mean c(f_t) - mean c(hist))
        xc = np.empty((m + 1, 2 * n))
        xc[m] = 1.0
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
