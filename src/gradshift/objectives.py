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
    optimizer: str = "adam"               # or "sgd"
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
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")


@dataclass
class ModelSpec:
    feature_dim: int = 8
    hidden: int = 16
    critic_hidden: int = 16
    summarizer_hidden: int = 32
    summarizer_layers: int = 1

    def __post_init__(self):
        if min(self.feature_dim, self.hidden, self.critic_hidden,
               self.summarizer_hidden, self.summarizer_layers) < 1:
            raise ValueError("model sizes must be >= 1")


@dataclass
class AdaptationModel:
    g: md.MlpParams
    h: md.MlpParams
    critic: md.MlpParams
    summarizer: md.RecurrentParams | None = None
    summary_state: md.SummaryState | None = None

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
            self.summarizer.copy() if self.summarizer else None,
            self.summary_state.copy() if self.summary_state else None)


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
    """Adam-style adaptive or plain sgd over a fixed list of arrays. Training
    passes each network's flat parameter vector, so a step is a few
    whole-vector operations per network, in place on two work buffers."""

    def __init__(self, params: list[np.ndarray], kind: str, lr: float):
        self.params = params
        self.kind = kind
        self.lr = lr
        self.work = [(np.empty_like(p), np.empty_like(p)) for p in params]
        if kind == "adam":
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self.step_count = 0

    def step(self, grads: list[np.ndarray]):
        if self.kind == "sgd":
            for p, g, (s, _) in zip(self.params, grads, self.work):
                p -= np.multiply(g, self.lr, out=s)
            return
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


def critic_ascent(critic: md.MlpParams, opt: _Opt, features_a, features_b,
                  gp_factor: float, gp_seeds, where: str):
    """One dual update in place per seed in the list gp_seeds: each ascends
    mean c(a) - mean c(b) minus gp_factor times the gradient penalty at
    interpolates drawn from that seed, between the paired rows of the two
    equal-size batches. Returns the last step's (gap, penalty), before its
    update.

    Each step's gradient is computed in closed form from one numpy forward
    pass over the columns [a, b, interpolates] of a feature-major block
    (mlp_layers' form). The input gradient at the interpolates is the
    backward chain delta_L = 1, gamma_l = delta_{l+1} * s_l,
    delta_l = W_l gamma_l, with s_l each layer's slope. The penalty's
    adjoint then runs forward through that chain (double backprop), where a
    tanh layer also sends a second-derivative term to its pre-activation.
    One primal backprop over all columns, seeded with the gap's -1/n and
    +1/n, carries those terms to the parameters. The tests hold it to the
    taped gap and penalty.
    """
    if critic.out_dim != 1:
        raise ValueError(f"critic output layer must have size 1, got {critic.out_dim}")
    fa, fb = dc.array(features_a), dc.array(features_b)
    m = critic.in_dim
    for f in (fa, fb):
        if f.ndim != 2 or f.shape[1] != m:
            raise dc.ShapeError(f"critic input width {m} does not "
                                f"match features of shape {f.shape}")
        if len(f) == 0:
            raise ValueError("critic_ascent: empty feature batch")
    if len(fa) != len(fb):
        raise dc.ShapeError(f"critic_ascent pairs its two feature batches, "
                            f"got {len(fa)} and {len(fb)} rows")
    k, n = 2 * len(fa), len(fa)
    # columns [a, b] are written once; each step's interpolates fill the last n
    x = md.feature_block(np.concatenate([fa, fb, np.empty((n, m))]))
    xa, xb, xh = x[:m, :n], x[:m, n:k], x[:m, k:]
    acts, n_layers = critic.activations, len(critic.activations)
    ws = [blk[:-1] for blk in critic.blocks()]
    grad = np.empty_like(critic.flat)
    d_blocks = critic.blocks(grad)
    seed_g = np.zeros((1, k + n))
    seed_g[0, :n], seed_g[0, n:k] = -1.0 / n, 1.0 / n
    deltas = [None] * n_layers + [np.ones((1, n))]
    gammas, second, pen_w = ([None] * n_layers for _ in range(3))
    outs, gap, pen = None, 0.0, 0.0
    for step in range(len(gp_seeds)):
        if step % 64 == 0:          # the next 64 steps' draws in one pass
            u = dc.uniform_rows([dc.substream(s, "gp_u")
                                 for s in gp_seeds[step:step + 64]], n)
        np.multiply(xa, u[step % 64], out=xh)
        xh += (1.0 - u[step % 64]) * xb
        outs = md.mlp_layers(critic, x, outs)
        hs = [h[:-1] for h in outs[1:]]
        # each layer's slope from its output h (None: identity)
        slopes = [None if a == "identity" else (h > 0.0) if a == "relu"
                  else 1.0 - np.square(h) for a, h in zip(acts, hs)]
        for l in reversed(range(n_layers)):
            s = slopes[l]
            gammas[l] = deltas[l + 1] if s is None else deltas[l + 1] * s[:, k:]
            deltas[l] = ws[l] @ gammas[l]
        norms = np.sqrt(np.square(deltas[0]).sum(axis=0) + 1e-24)
        pen = float(np.square(norms - 1.0).sum()) / n
        gap = float(hs[-1][0, :n].sum() / n - hs[-1][0, n:k].sum() / n)
        if not math.isfinite(pen * gp_factor - gap):
            raise TrainingDiverged(
                f"non-finite critic loss at {where}, critic step {step}")
        # the penalty's adjoint, forward through the input-gradient chain
        d_delta = (gp_factor * 2.0 / n) * ((norms - 1.0) / norms) * deltas[0]
        for l in range(n_layers):
            pen_w[l] = d_delta @ gammas[l].T
            if l + 1 == n_layers and acts[l] != "tanh":
                break                     # nothing below uses d_gamma
            d_gamma = ws[l].T @ d_delta
            s = slopes[l]
            if acts[l] == "tanh":
                second[l] = d_gamma * deltas[l + 1] * (-2.0 * hs[l][:, k:] * s[:, k:])
            d_delta = d_gamma if s is None else d_gamma * s[:, k:]
        # primal backprop over all columns
        g = seed_g
        for l in reversed(range(n_layers)):
            if slopes[l] is not None:
                g = g * slopes[l]
            if second[l] is not None:
                g[:, k:] += second[l]
            np.dot(outs[l], g.T, out=d_blocks[l])
            d_blocks[l][:-1] += pen_w[l]
            if l:
                g = ws[l] @ g
        opt.step([grad])
    return gap, pen


# ---------------------------------------------------------------------------
# adaptation stages

def _check_finite(value, what: str, where: str):
    if not np.isfinite(value).all():
        raise TrainingDiverged(f"non-finite {what} at {where}")


def _primal_dual_step(model: AdaptationModel, opt_model: _Opt,
                      opt_critic: _Opt, xs, ys, xt, yt, cfg: TrainConfig,
                      loss_spec: LossSpec, *, align: bool, gp_seed: int,
                      where: str):
    """One batch's primal-dual step in place. Returns (class loss, gap,
    penalty); the last two come from the final critic step, 0 without
    alignment. An aligning step trains on the target's labels when
    cfg.labeled_target is set, and on the temporal history when the model
    has a summarizer.

    The labeled rows run forward through g and h. When aligning, the critic
    ascends k_critic times on the target features and the source history,
    then the model descends on class loss plus lam times the gap under the
    updated critic. The model gradient is backprop in closed form: the loss
    gradient back through h, the gap's input gradient under the critic, and
    both back through g and, for the temporal history, through the
    summarizer's one gated step from the committed state.
    """
    labeled_target = align and cfg.labeled_target
    temporal = align and model.summarizer is not None
    x_lab, y_lab = xs, ys
    if labeled_target:
        x_lab, y_lab = np.concatenate([xs, xt]), np.concatenate([ys, yt])
    # feature-major blocks throughout (see models.mlp_layers): a row of a
    # batch is a column here
    g_outs = md.mlp_layers(model.g, md.feature_block(x_lab))
    h_outs = md.mlp_layers(model.h, g_outs[-1])
    logits = h_outs[-1][:-1].T
    _check_finite(logits, "logits", where)
    losses, d_logits = _loss_and_grad(loss_spec, logits, y_lab)
    loss = ce = float(losses.mean())
    d_feats, grad_h = md.mlp_backward(model.h, h_outs, d_logits.T)
    grads = [None, grad_h]
    gap = pen = 0.0
    if align:
        ns = len(xs)
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
                                            f_s.mean(axis=1))
            hist = f_s * 0.5 + readout[:, None] * 0.5
        gap, pen = critic_ascent(model.critic, opt_critic, f_t.T, hist.T,
                                 cfg.gp_factor, [dc.substream(gp_seed, kk)
                                                 for kk in range(cfg.k_critic)],
                                 where)
        # lam times the gap under the updated critic: mean c(f_t) - mean c(hist)
        nt = f_t.shape[1]
        c_outs = md.mlp_layers(model.critic, md.feature_block(
            np.concatenate([f_t, hist], axis=1).T))
        c = c_outs[-1][0]
        loss = ce + cfg.lam * (c[:nt].mean() - c[nt:].mean())
        d_c = np.full((1, len(c)), -cfg.lam / hist.shape[1])
        d_c[0, :nt] = cfg.lam / nt
        d_cols = md.mlp_backward(model.critic, c_outs, d_c, to_params=False)[0]
        d_t, d_hist = d_cols[:, :nt], d_cols[:, nt:]
        if temporal:
            grad_r, d_mean = md.gru_backward(model.summarizer, cache,
                                             0.5 * d_hist.sum(axis=1))
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


def _run_stage(model: AdaptationModel, source: DomainBatch, target: DomainBatch,
               cfg: TrainConfig, *, align: bool, stage: int,
               loss_spec: LossSpec, eval_batch: DomainBatch | None):
    """Train one adaptation stage in place, one _primal_dual_step per batch;
    returns EpochMetrics. An aligning stage also trains the model's
    summarizer, if it has one."""
    if source.d != target.d or source.k != target.k:
        raise ValueError("source/target dimension mismatch")
    nets = [model.g, model.h]
    if align and model.summarizer is not None:
        nets.append(model.summarizer)
    opt_model = _Opt([n.flat for n in nets], cfg.optimizer, cfg.lr_model)
    opt_critic = _Opt([model.critic.flat], cfg.optimizer, cfg.lr_critic)
    for epoch in range(cfg.epochs_per_domain):
        loss_sum = gap_sum = pen_sum = 0.0
        n_steps = 0
        tpos = 0
        order = dc.rng_permutation(dc.substream(cfg.seed, "order", stage, epoch),
                                   source.n)
        torder = dc.rng_permutation(dc.substream(cfg.seed, "torder", stage, epoch),
                                    target.n)
        for b, start in enumerate(range(0, source.n, cfg.batch_size)):
            src_idx = order[start:start + cfg.batch_size]
            ns = len(src_idx)
            tgt_idx = torder[(tpos + np.arange(ns)) % target.n]
            tpos += ns
            ce, gap, pen = _primal_dual_step(
                model, opt_model, opt_critic, source.features[src_idx],
                source.labels[src_idx], target.features[tgt_idx],
                target.labels[tgt_idx], cfg, loss_spec, align=align,
                gp_seed=dc.substream(cfg.seed, "gp", stage, epoch, b),
                where=f"stage {stage} epoch {epoch} batch {b}")
            loss_sum += ce
            gap_sum += gap
            pen_sum += pen
            n_steps += 1
    acc = 0.0
    if eval_batch is not None:
        acc = md.accuracy(model.g, model.h, eval_batch.features, eval_batch.labels)
    return EpochMetrics(t=target.t, class_loss=loss_sum / max(n_steps, 1),
                        alignment=gap_sum / max(n_steps, 1),
                        gp=pen_sum / max(n_steps, 1), target_acc=acc)


def train_erm(model: AdaptationModel, batch: DomainBatch, cfg: TrainConfig, *,
              stage: int = 0, loss_spec: LossSpec = LossSpec(),
              eval_batch: DomainBatch | None = None):
    """Plain empirical risk minimization sharing an adaptation stage's seed
    and batch order (the lambda=0 degenerate case without the critic loop)."""
    out = model.copy()
    metrics = _run_stage(out, batch, batch, cfg, align=False, stage=stage,
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
                             spec.summarizer_hidden, spec.summarizer_layers, m)
    return replace(model, summarizer=summ, summary_state=md.fresh_state(summ))


def train_schedule(kind: str, seq: DomainSequence, cfg: TrainConfig,
                   model_spec: ModelSpec | None = None, *, holdout: float = 0.25,
                   loss_spec: LossSpec = LossSpec(),
                   start_model: AdaptationModel | None = None,
                   start_stage: int = 0, stage_callback=None):
    """Run one adaptation schedule; returns (final model, per-stage metrics).

    Every schedule is a list of (source, target) stages, trained in order.
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
        stages = [(domains[0], domains[0])]
    elif kind == "direct":
        pooled = DomainBatch(0, np.concatenate([d.features for d in domains[:-1]]),
                             np.concatenate([d.labels for d in domains[:-1]]),
                             seq.k)
        stages = [(pooled, domains[-1])]
    else:
        stages = list(zip(domains[:-1], domains[1:]))
    align = kind != "no_adaptation"
    trace: list[EpochMetrics] = []
    for t in range(start_stage, len(stages)):
        source, target = stages[t]
        metrics = _run_stage(model, source, target, cfg, align=align,
                             stage=t, loss_spec=loss_spec,
                             eval_batch=eval_batch)
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
