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


def _loss_and_grad(spec: LossSpec, logits, labels):
    """Per-sample losses min(raw, M) and the gradient of their mean w.r.t.
    the logits. A clamped sample has zero gradient."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = z.shape[0]
    rows = np.arange(n)
    if spec.kind == "cross_entropy_bounded":
        # log-sum-exp shifted by the row max (exact: LSE(z) = c + LSE(z-c))
        c = z.max(axis=1)
        e = np.exp(z - c[:, None])
        s = e.sum(axis=1)
        raw = c + np.log(s) - z[rows, y]
        grad = e / s[:, None]
        grad[rows, y] -= 1.0
    else:
        # sum over wrong classes of relu(1 + z_j - z_y)
        viol = np.maximum(1.0 + z - z[rows, y][:, None], 0.0)
        viol[rows, y] = 0.0
        raw = viol.sum(axis=1)
        grad = (viol > 0.0).astype(np.float64)
        grad[rows, y] = -grad.sum(axis=1)
    grad *= ((raw < spec.bound) / n)[:, None]
    return np.minimum(raw, spec.bound), grad


# ---------------------------------------------------------------------------
# optimizers

class _Opt:
    """Adam (Kingma and Ba 2014) over a fixed list of arrays. Training passes
    each network's flat parameter vector, so a step is a few whole-vector
    operations per network, in place on two work buffers."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.work = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step_count = 0

    def step(self, grads: list[np.ndarray]):
        self.step_count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for p, g, m, v, (s, t) in zip(self.params, grads, self.m, self.v,
                                      self.work):
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
            # p -= lr (m / c1) / (sqrt(v / c2) + eps)
            m *= b1
            m += np.multiply(g, 1 - b1, out=s)
            v *= b2
            np.multiply(g, 1 - b2, out=s)
            v += np.multiply(s, g, out=s)
            np.divide(m, c1, out=s)
            s *= self.lr
            np.divide(v, c2, out=t)
            np.sqrt(t, out=t)
            t += eps
            p -= np.divide(s, t, out=s)


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
    nothing: each numpy call writes into a bound array through out=, and
    the forward pass reruns mlp_layers into the bound outputs. The head's
    products with the ones row (delta_L = W_L 1) and with the gap's seed
    have one term each, so they are an exact broadcast copy and an exact
    broadcast multiply instead of gemms.
    """

    def __init__(self, critic: md.MlpParams, n: int):
        acts = list(critic.activations)
        if (critic.out_dim != 1 or acts[-1] != "identity"
                or any(a != "tanh" for a in acts[:-1])):
            raise ValueError(f"the critic loop needs tanh hidden layers and "
                             f"an identity head of width 1, got {acts} and "
                             f"width {critic.out_dim}")
        m, k = critic.in_dim, 2 * n
        self.critic, self.n = critic, n
        # columns [a, b] are written once per run; each step's interpolates
        # fill the last n
        x = np.empty((m + 1, k + n))
        x[m] = 1.0
        self.xa, self.xb, self.xh = x[:m, :n], x[:m, n:k], x[:m, k:]
        self.x_tmp = np.empty((m, n))
        self.grad = np.empty_like(critic.flat)
        self.seed_g = seed_g = np.zeros((1, k + n))
        seed_g[0, :n], seed_g[0, n:k] = -1.0 / n, 1.0 / n
        # Layer l, with W_l of shape (fan_in, fan_out), has: its output h
        # (in outs[l + 1], ones row last); the chain's deltas[l] (fan_in,
        # n); the adjoint's d_deltas[l] (fan_in, n) and pen_w (fan_in,
        # fan_out); the primal backprop's gradient at h, backs[l]
        # (fan_out, k + n; the head's is the gap's seed itself). A hidden
        # layer also has its slope s over all k + n columns, and the
        # chain's gamma, the adjoint's d_gamma and second-derivative term
        # (fan_out, n). The suffix _i marks the columns of the interpolates.
        blocks, d_blocks = critic.blocks(), critic.blocks(self.grad)
        ws = [blk[:-1] for blk in blocks]
        outs = [x] + [np.empty((w.shape[1] + 1, k + n)) for w in ws]
        for h in outs[1:]:
            h[-1] = 1.0
        deltas = [np.empty((w.shape[0], n)) for w in ws]
        d_deltas = [np.empty_like(d) for d in deltas]
        backs = [np.empty((w.shape[1], k + n)) for w in ws[:-1]] + [seed_g]
        pen_ws = [np.empty(w.shape) for w in ws]
        slope_fills, chain, adjoint, primal = [], [], [], []
        for l, w in enumerate(ws[:-1]):
            h, above, back = outs[l + 1][:-1], deltas[l + 1], backs[l]
            s = np.empty(h.shape)
            # gamma has no reader after pen_w, so it then holds the
            # second-derivative term's factor -2 h s
            gamma, d_gamma, sec = (np.empty((w.shape[1], n)) for _ in range(3))
            slope_fills.append((h, s))
            chain.append((s[:, k:], above, gamma, w, deltas[l]))
            adjoint.append((d_deltas[l], gamma.T, pen_ws[l], w.T, d_gamma,
                            sec, above, gamma, h[:, k:], s[:, k:],
                            d_deltas[l + 1]))
            primal.append((back, s, back[:, k:], sec, outs[l], back.T,
                           d_blocks[l], d_blocks[l][:-1], pen_ws[l], w,
                           backs[l - 1] if l else None))
        self.outs, self.slope_fills = outs, slope_fills
        self.chain, self.adjoint = chain[::-1], adjoint
        self.primal = primal[::-1]
        self.deltas, self.d_deltas = deltas, d_deltas
        self.head = (ws[-1], d_deltas[-1], np.ones((1, n)).T, pen_ws[-1],
                     outs[-2], seed_g.T, d_blocks[-1], d_blocks[-1][:-1],
                     backs[-2] if len(ws) > 1 else None)
        self.head_a, self.head_b = outs[-1][0, :n], outs[-1][0, n:k]
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
        xa, xb, xh, x_tmp = self.xa, self.xb, self.xh, self.x_tmp
        xa[...], xb[...] = fa.T, fb.T
        critic, outs, slope_fills = self.critic, self.outs, self.slope_fills
        chain, adjoint, primal = self.chain, self.adjoint, self.primal
        (w_head, d_delta_head, ones_t, pen_w_head, inp_head, seed_t,
         d_blk_head, d_w_head, below_head) = self.head
        delta_head, delta0, d_delta0 = (self.deltas[-1], self.deltas[0],
                                        self.d_deltas[0])
        head_a, head_b = self.head_a, self.head_b
        norms, norms_m1, work_n = self.norms, self.norms_m1, self.work_n
        sq0 = d_delta0                      # free until the adjoint fills it
        grads = [self.grad]
        adjoint_scale = gp_factor * 2.0 / n
        u_c = np.subtract(1.0, draws)
        gap, pen = 0.0, 0.0
        for step, u in enumerate(draws):
            np.multiply(xa, u, out=xh)
            np.multiply(u_c[step], xb, out=x_tmp)
            xh += x_tmp
            md.mlp_layers(critic, outs[0], outs)
            for h, s in slope_fills:
                np.square(h, out=s)
                np.subtract(1.0, s, out=s)
            np.copyto(delta_head, w_head)
            for s_i, above, gamma, w, delta in chain:
                np.multiply(above, s_i, out=gamma)
                w.dot(gamma, out=delta)
            np.square(delta0, out=sq0)
            np.add.reduce(sq0, axis=0, out=norms)
            norms += 1e-24
            np.sqrt(norms, out=norms)
            np.subtract(norms, 1.0, out=norms_m1)
            pen = float(np.add.reduce(np.square(norms_m1, out=work_n))) / n
            gap = float(np.add.reduce(head_a) / n - np.add.reduce(head_b) / n)
            if not math.isfinite(pen * gp_factor - gap):
                raise TrainingDiverged(
                    f"non-finite critic loss at {where}, critic step {step}")
            # the penalty's adjoint, forward through the input-gradient chain
            np.divide(norms_m1, norms, out=work_n)
            work_n *= adjoint_scale
            np.multiply(work_n, delta0, out=d_delta0)
            for (d_delta, gamma_t, pen_w, w_t, d_gamma, sec, above, tmp, h_i,
                 s_i, d_next) in adjoint:
                d_delta.dot(gamma_t, out=pen_w)
                w_t.dot(d_delta, out=d_gamma)
                np.multiply(d_gamma, above, out=sec)
                np.multiply(h_i, -2.0, out=tmp)
                tmp *= s_i
                sec *= tmp
                np.multiply(d_gamma, s_i, out=d_next)
            d_delta_head.dot(ones_t, out=pen_w_head)
            # primal backprop over all columns, from the head down
            inp_head.dot(seed_t, out=d_blk_head)
            d_w_head += pen_w_head
            if below_head is not None:
                np.multiply(w_head, seed_g, out=below_head)
            for g, s, g_i, sec, inp, g_t, d_blk, d_w, pen_w, w, below in primal:
                g *= s
                g_i += sec
                inp.dot(g_t, out=d_blk)
                d_w += pen_w
                if below is not None:
                    w.dot(g, out=below)
            opt.step(grads)
        return gap, pen


# ---------------------------------------------------------------------------
# adaptation stages

def _check_finite(value, what: str, where: str):
    if not np.isfinite(value).all():
        raise TrainingDiverged(f"non-finite {what} at {where}")


def _primal_dual_step(model: AdaptationModel, opt_model: _Opt,
                      opt_critic: _Opt | None, xs, ys, xt, yt,
                      cfg: TrainConfig, loss_spec: LossSpec, *,
                      loop: _CriticLoop | None, draws, where: str):
    """One batch's primal-dual step in place. Returns (class loss, gap,
    penalty); the last two come from the final critic step, 0 without
    alignment. `loop` is the stage's _CriticLoop for batches of this size,
    or None when the stage does not align; then xt, yt and opt_critic are
    None too. An aligning step trains on the target's labels when
    cfg.labeled_target is set, and on the temporal history when the model
    has a summarizer; `draws` holds its critic steps' interpolation draws,
    (k_critic, batch rows).

    The labeled rows run forward through g and h. When aligning, the critic
    ascends k_critic times on the target features and the source history,
    then the model descends on class loss plus lam times the gap under the
    updated critic. The model gradient is backprop in closed form: the loss
    gradient back through h, the gap's input gradient under the critic, and
    both back through g and, for the temporal history, through the
    summarizer's one gated step from the committed state.
    """
    align = loop is not None
    labeled_target = align and cfg.labeled_target
    temporal = align and model.summarizer is not None
    ns = len(xs)
    y_lab = np.concatenate([ys, yt]) if labeled_target else ys
    # feature-major blocks throughout (see models.mlp_layers): a row of a
    # batch is a column here
    g_outs = md.mlp_layers(model.g, md.feature_block(
        np.concatenate([xs, xt]) if labeled_target else xs))
    h_outs = md.mlp_layers(model.h, g_outs[-1])
    logits = h_outs[-1][:-1].T
    _check_finite(logits, "logits", where)
    losses, d_logits = _loss_and_grad(loss_spec, logits, y_lab)
    loss = ce = float(np.add.reduce(losses) / len(losses))
    d_feats, grad_h = md.mlp_backward(model.h, h_outs, d_logits.T)
    grads = [None, grad_h]
    gap = pen = 0.0
    if align:
        f_s = g_outs[-1][:-1, :ns]
        if labeled_target:
            f_t = g_outs[-1][:-1, ns:]
        else:
            t_outs = md.mlp_layers(model.g, md.feature_block(xt))
            f_t = t_outs[-1][:-1]
        _check_finite(f_s, "source features", where)
        _check_finite(f_t, "target features", where)
        hist = f_s
        if temporal:
            _, readout, cache = md.gru_step(model.summarizer, model.summary_state,
                                            np.add.reduce(f_s, axis=1) / ns)
            hist = f_s * 0.5 + readout[:, None] * 0.5
            _check_finite(hist, "history features", where)
        gap, pen = loop.run(opt_critic, f_t.T, hist.T, cfg.gp_factor, draws,
                            where)
        # lam times the gap under the updated critic: mean c(f_t) - mean c(hist)
        nt, nh = f_t.shape[1], hist.shape[1]
        x_c = np.empty((len(f_t) + 1, nt + nh))
        x_c[:-1, :nt], x_c[:-1, nt:], x_c[-1] = f_t, hist, 1.0
        c_outs = md.mlp_layers(model.critic, x_c)
        c = c_outs[-1][0]
        loss = ce + cfg.lam * (np.add.reduce(c[:nt]) / nt
                               - np.add.reduce(c[nt:]) / nh)
        d_c = np.full((1, len(c)), -cfg.lam / nh)
        d_c[0, :nt] = cfg.lam / nt
        d_cols = md.mlp_backward(model.critic, c_outs, d_c, to_params=False)[0]
        d_t, d_hist = d_cols[:, :nt], d_cols[:, nt:]
        if temporal:
            grad_r, d_mean = md.gru_backward(model.summarizer, cache,
                                             0.5 * np.add.reduce(d_hist, axis=1))
            d_hist = d_hist * 0.5 + d_mean[:, None] / ns
            grads.append(grad_r)
        d_feats[:, :ns] += d_hist
        if labeled_target:
            d_feats[:, ns:] += d_t
    _check_finite(loss, "model loss", where)
    grads[0] = md.mlp_backward(model.g, g_outs, d_feats, to_input=False)[1]
    if align and not labeled_target:
        grads[0] += md.mlp_backward(model.g, t_outs, d_t, to_input=False)[1]
    opt_model.step(grads)
    return ce, gap, pen


def _run_stage(model: AdaptationModel, source: DomainBatch,
               target: DomainBatch | None, cfg: TrainConfig, *, stage: int,
               loss_spec: LossSpec, eval_batch: DomainBatch | None):
    """Train one adaptation stage in place, one _primal_dual_step per batch;
    returns EpochMetrics of the last epoch. A stage with a target aligns: it
    pairs each source batch with target rows, binds one _CriticLoop per
    batch size, on its first batch of that size, and also trains the
    model's summarizer, if it has one. Without a target the stage fits the
    source alone and draws nothing for a target."""
    align = target is not None
    if align and (source.d != target.d or source.k != target.k):
        raise ValueError("source/target dimension mismatch")
    nets = [model.g, model.h]
    if align and model.summarizer is not None:
        nets.append(model.summarizer)
    opt_model = _Opt([n.flat for n in nets], cfg.lr_model)
    opt_critic = _Opt([model.critic.flat], cfg.lr_critic) if align else None
    loops: dict[int, _CriticLoop] = {}
    # the [batch, critic step] tags of an aligning epoch's interpolation draws
    batches = np.arange(len(range(0, source.n, cfg.batch_size)),
                        dtype=np.uint64)[:, None]
    steps = np.arange(cfg.k_critic, dtype=np.uint64)
    xt = yt = loop = step_draws = None
    for epoch in range(cfg.epochs_per_domain):
        loss_sum = gap_sum = pen_sum = 0.0
        order = dc.rng_permutation(dc.substream(cfg.seed, "order", stage, epoch),
                                   source.n)
        if align:
            tpos = 0
            torder = dc.rng_permutation(
                dc.substream(cfg.seed, "torder", stage, epoch), target.n)
            ids = dc.substream(cfg.seed, "gp", stage, epoch, batches, steps,
                               "gp_u")
            draws = dc.uniform_rows(ids.ravel(), cfg.batch_size).reshape(
                *ids.shape, cfg.batch_size)
        for b, start in enumerate(range(0, source.n, cfg.batch_size)):
            src_idx = order[start:start + cfg.batch_size]
            ns = len(src_idx)
            if align:
                tgt_idx = torder[(tpos + np.arange(ns)) % target.n]
                tpos += ns
                xt, yt = target.features[tgt_idx], target.labels[tgt_idx]
                if ns not in loops:
                    loops[ns] = _CriticLoop(model.critic, ns)
                loop, step_draws = loops[ns], draws[b, :, :ns]
            ce, gap, pen = _primal_dual_step(
                model, opt_model, opt_critic, source.features[src_idx],
                source.labels[src_idx], xt, yt, cfg, loss_spec, loop=loop,
                draws=step_draws, where=f"stage {stage} epoch {epoch} batch {b}")
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
