"""Learning objectives and adaptation schedules: bounded Lipschitz losses, the
critic-based alignment gap with its gradient-penalty inner loop, and the
no/direct/gradual/temporal training procedures.

Every stochastic draw is a pure function of (seed, structural coordinates), so
a schedule resumed from a stage boundary reproduces the uninterrupted run
bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import diffcore as dc
from . import models as md
from .diffcore import Tape, backward, forward
from .domains import DomainBatch, DomainSequence, split_holdout

SCHEDULES = ("no_adaptation", "direct", "gradual", "gradual_temporal")


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class LossSpec:
    kind: str = "cross_entropy_bounded"   # or "hinge"
    bound: float = 5.0                    # clamp M
    rho: float = 1.0                      # Lipschitz constant in the
                                          # per-logit score metric

    def __post_init__(self):
        if self.kind not in ("cross_entropy_bounded", "hinge"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.bound <= 0 or self.rho <= 0:
            raise ValueError("loss bound and rho must be positive")


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
    summarizer: bool = False


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
    wall_s: float = 0.0
    epoch: int = 0


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
    summ = None
    state = None
    if spec.summarizer:
        summ = md.init_recurrent(dc.substream(seed, "summ"), m,
                                 spec.summarizer_hidden, spec.summarizer_layers, m)
        state = md.fresh_state(summ)
    return AdaptationModel(g, h, critic, summ, state)


# ---------------------------------------------------------------------------
# losses

def loss_eval(spec: LossSpec, logits, labels, tape: Tape):
    """Differentiable bounded loss; returns (scalar node, per-sample values)."""
    node = logits if isinstance(logits, (int, np.integer)) else tape.input(logits)
    z = tape.val(node)
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite logits")
    n, k = z.shape
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (n,) or y.min() < 0 or y.max() >= k:
        raise ValueError(f"labels must be (n,) ints in [0, {k})")
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    oh_node = tape.input(onehot)
    m_node = tape.input(np.full(n, spec.bound))
    if spec.kind == "cross_entropy_bounded":
        # log-sum-exp with a detached row-max shift (exact: LSE(z) = c + LSE(z-c))
        c = z.max(axis=1)
        c_node = tape.input(c)
        shifted = forward(tape, "sub", (node, forward(tape, "broadcast", c_node,
                                                      shape=(n, k), axis=1)))
        lse = forward(tape, "add", (c_node, forward(
            tape, "log", forward(tape, "sum", forward(tape, "exp", shifted), axis=1))))
        zy = forward(tape, "sum", forward(tape, "mul", (node, oh_node)), axis=1)
        raw = forward(tape, "sub", (lse, zy))
    else:
        # sum over wrong classes of relu(1 + z_j - z_y)
        zy = forward(tape, "sum", forward(tape, "mul", (node, oh_node)), axis=1)
        margins = forward(tape, "sub", (node, forward(tape, "broadcast", zy,
                                                      shape=(n, k), axis=1)))
        ones = tape.input(np.ones((n, k)))
        viol = forward(tape, "relu", forward(tape, "add", (margins, ones)))
        not_y = tape.input(1.0 - onehot)
        raw = forward(tape, "sum", forward(tape, "mul", (viol, not_y)), axis=1)
    # clamp to M: min(raw, M) = M - relu(M - raw)
    clamped = forward(tape, "sub", (m_node, forward(
        tape, "relu", forward(tape, "sub", (m_node, raw)))))
    mean = forward(tape, "mean", clamped)
    return mean, tape.val(clamped).copy()


def loss_values_np(spec: LossSpec, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Plain numpy per-sample losses (no tape); matches loss_eval."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = z.shape[0]
    if spec.kind == "cross_entropy_bounded":
        c = z.max(axis=1)
        lse = c + np.log(np.exp(z - c[:, None]).sum(axis=1))
        raw = lse - z[np.arange(n), y]
    else:
        zy = z[np.arange(n), y]
        viol = np.maximum(1.0 + z - zy[:, None], 0.0)
        viol[np.arange(n), y] = 0.0
        raw = viol.sum(axis=1)
    return np.minimum(raw, spec.bound)


# ---------------------------------------------------------------------------
# alignment and penalty

def alignment_gap(critic: md.MlpParams, features_a, features_b, tape: Tape,
                  *, bound: md.BoundMlp | None = None) -> int:
    """Mean critic value on features_a minus mean on features_b (tape node)."""
    b = bound if bound is not None else md.BoundMlp(tape, critic)
    for f in (features_a, features_b):
        shp = tape.shape(f) if isinstance(f, (int, np.integer)) else np.shape(f)
        if shp[0] == 0:
            raise ValueError("alignment_gap: empty feature batch")
    ca = md.critic_forward(critic, features_a, tape, bound=b)
    cb = md.critic_forward(critic, features_b, tape, bound=b)
    return forward(tape, "sub", (forward(tape, "mean", ca),
                                 forward(tape, "mean", cb)))


def gradient_penalty(critic: md.MlpParams, features_a, features_b, tape: Tape,
                     seed: int, *, bound: md.BoundMlp | None = None) -> int:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over per-row random interpolates.

    Interpolates are leaves; gradients flow to the critic parameters through
    the recorded input-gradient computation.
    """
    fa = np.asarray(tape.val(features_a) if isinstance(features_a, (int, np.integer))
                    else features_a, dtype=np.float64)
    fb = np.asarray(tape.val(features_b) if isinstance(features_b, (int, np.integer))
                    else features_b, dtype=np.float64)
    if fa.shape[0] != fb.shape[0]:
        # resample the smaller batch with replacement up to the larger
        n = max(fa.shape[0], fb.shape[0])
        def up(x, tag):
            if x.shape[0] == n:
                return x
            idx = (dc.rng_uniform(dc.substream(seed, "gp_resample", tag),
                                  (n,)) * x.shape[0]).astype(int)
            return x[np.minimum(idx, x.shape[0] - 1)]
        fa, fb = up(fa, 0), up(fb, 1)
    n = fa.shape[0]
    u = dc.rng_uniform(dc.substream(seed, "gp_u"), (n, 1))
    xh = u * fa + (1.0 - u) * fb
    x_node = tape.input(xh)
    b = bound if bound is not None else md.BoundMlp(tape, critic)
    out = md.critic_forward(critic, x_node, tape, bound=b)
    total = forward(tape, "sum", out)
    grad_node = dc.input_gradient(tape, total, x_node)
    sq = forward(tape, "sum", forward(tape, "square", grad_node), axis=1)
    # 1e-24 floor keeps sqrt differentiable at an exactly-zero gradient row
    # without perturbing any realistic norm (x + 1e-24 == x for x >= 1e-8)
    sq = forward(tape, "add", (sq, tape.input(np.full(n, 1e-24))))
    norms = forward(tape, "sqrt", sq)
    ones = tape.input(np.ones(n))
    return forward(tape, "mean", forward(tape, "square",
                                         forward(tape, "sub", (norms, ones))))


# ---------------------------------------------------------------------------
# optimizers

class _Opt:
    """Adam-style adaptive or plain sgd over a fixed list of arrays."""

    def __init__(self, params: list[np.ndarray], kind: str, lr: float):
        self.params = params
        self.kind = kind
        self.lr = lr
        if kind == "adam":
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
            self.step_count = 0

    def step(self, grads: list[np.ndarray]):
        if self.kind == "sgd":
            for p, g in zip(self.params, grads):
                p -= self.lr * g
            return
        self.step_count += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.step_count
        c2 = 1.0 - b2 ** self.step_count
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + eps)


def train_critic(critic: md.MlpParams, features_a: np.ndarray,
                 features_b: np.ndarray, *, steps: int, lr: float = 4e-5,
                 gp_factor: float = 5.0, seed: int = 0,
                 optimizer: str = "adam") -> float:
    """Critic-only dual training on two fixed feature batches (in place).

    Each step is a critic_ascent_step, the inner update of every training
    stage. Returns the final gap.

    The default lr is deliberately slow (the large-scale configs in this
    family run the critic 100x below the model lr): the two-sided penalty
    equilibrates at a slope of 1 + W1/(2 * gp_factor), so a fully converged
    critic overshoots W1 by 10% at gp_factor=5 on unit-distance data, while a
    slow-lr snapshot tracks W1 from below. Training stages (adapt_pair) use
    the faster TrainConfig.lr_critic instead.
    """
    opt = _Opt(critic.arrays(), optimizer, lr)
    gap_val = 0.0
    for step in range(steps):
        gap_val, _ = critic_ascent_step(critic, opt, features_a, features_b,
                                        gp_factor, dc.substream(seed, "gp", step),
                                        f"critic step {step}")
    return gap_val


def critic_ascent_step(critic: md.MlpParams, opt: _Opt, features_a, features_b,
                       gp_factor: float, gp_seed: int, where: str):
    """One dual update in place: ascend mean c(a) - mean c(b) minus gp_factor
    times the gradient penalty. Returns (gap, penalty) before the update."""
    tape = Tape()
    b = md.BoundMlp(tape, critic)
    ca = md.critic_forward(critic, features_a, tape, bound=b)
    cb = md.critic_forward(critic, features_b, tape, bound=b)
    gap_rev = forward(tape, "sub", (forward(tape, "mean", cb),
                                    forward(tape, "mean", ca)))
    pen = gradient_penalty(critic, features_a, features_b, tape, gp_seed, bound=b)
    loss = forward(tape, "add", (gap_rev, forward(
        tape, "mul", (pen, tape.input(np.asarray(gp_factor))))))
    _check_finite(tape.val(loss), "critic loss", where)
    ids = b.param_ids()
    grads = backward(tape, loss, ids)
    opt.step([grads[i] for i in ids])
    return -float(tape.val(gap_rev)), float(tape.val(pen))


# ---------------------------------------------------------------------------
# adaptation stages

def _batch_indices(seed: int, stage: int, epoch: int, n: int, batch_size: int):
    order = dc.rng_permutation(dc.substream(seed, "order", stage, epoch), n)
    return [order[s:s + batch_size] for s in range(0, n, batch_size)]


def _target_batch(seed: int, stage: int, epoch: int, n: int, pos: int, size: int):
    order = dc.rng_permutation(dc.substream(seed, "torder", stage, epoch), n)
    return order[(pos + np.arange(size)) % n]


def _check_finite(value, what: str, where: str):
    if not np.all(np.isfinite(value)):
        raise TrainingDiverged(f"non-finite {what} at {where}")


def _run_stage(model: AdaptationModel, source: DomainBatch, target: DomainBatch,
               cfg: TrainConfig, *, labeled_target: bool, align: bool,
               temporal: bool, stage: int, loss_spec: LossSpec,
               eval_batch: DomainBatch | None):
    """Train one adaptation stage in place; returns EpochMetrics."""
    if source.d != target.d or source.k != target.k:
        raise ValueError("source/target dimension mismatch")
    if temporal and model.summarizer is None:
        raise ValueError("temporal stage requires a model with a summarizer")
    started = time.perf_counter()
    model_arrays = model.g.arrays() + model.h.arrays()
    if align and temporal:
        model_arrays += model.summarizer.arrays()
    opt_model = _Opt(model_arrays, cfg.optimizer, cfg.lr_model)
    opt_critic = _Opt(model.critic.arrays(), cfg.optimizer, cfg.lr_critic)
    for epoch in range(cfg.epochs_per_domain):
        loss_sum = gap_sum = pen_sum = 0.0
        n_steps = 0
        tpos = 0
        for b, src_idx in enumerate(_batch_indices(cfg.seed, stage, epoch,
                                                   source.n, cfg.batch_size)):
            xs, ys = source.features[src_idx], source.labels[src_idx]
            tgt_idx = _target_batch(cfg.seed, stage, epoch, target.n, tpos,
                                    len(src_idx))
            tpos += len(src_idx)
            xt, yt = target.features[tgt_idx], target.labels[tgt_idx]
            pen_val = 0.0
            gap_val = 0.0
            where = f"stage {stage} epoch {epoch} batch {b}"
            if align:
                f_s = md.mlp_eval(model.g, xs)
                f_t = md.mlp_eval(model.g, xt)
                _check_finite(f_s, "source features", where)
                _check_finite(f_t, "target features", where)
                hist = f_s
                if temporal:
                    _, readout = md.summarize_step(
                        model.summarizer, model.summary_state, f_s.mean(axis=0))
                    hist = 0.5 * f_s + 0.5 * readout[None, :]
                for kk in range(cfg.k_critic):
                    gap_val, pen_val = critic_ascent_step(
                        model.critic, opt_critic, f_t, hist, cfg.gp_factor,
                        dc.substream(cfg.seed, "gp", stage, epoch, b, kk), where)
            loss_sum += _model_step(model, opt_model, xs, ys, xt, yt, cfg.lam,
                                    labeled_target=labeled_target, align=align,
                                    temporal=temporal, loss_spec=loss_spec,
                                    where=where)
            gap_sum += gap_val
            pen_sum += pen_val
            n_steps += 1
    acc = 0.0
    if eval_batch is not None:
        acc = md.accuracy(model.g, model.h, eval_batch.features, eval_batch.labels)
    return EpochMetrics(t=target.t, class_loss=loss_sum / max(n_steps, 1),
                        alignment=gap_sum / max(n_steps, 1),
                        gp=pen_sum / max(n_steps, 1), target_acc=acc,
                        wall_s=time.perf_counter() - started,
                        epoch=cfg.epochs_per_domain - 1)


def _model_step(model: AdaptationModel, opt: _Opt, xs, ys, xt, yt, lam: float,
                *, labeled_target: bool, align: bool, temporal: bool,
                loss_spec: LossSpec, where: str) -> float:
    """One descent step on the feature map and classifier (and the summarizer
    when temporal) with the critic frozen; returns the class loss."""
    tape = Tape()
    g_b = md.BoundMlp(tape, model.g)
    h_b = md.BoundMlp(tape, model.h)
    if labeled_target:
        x_lab = np.concatenate([xs, xt])
        y_lab = np.concatenate([ys, yt])
    else:
        x_lab, y_lab = xs, ys
    x_node = tape.input(x_lab)
    feats = g_b(x_node)
    logits = h_b(feats)
    _check_finite(tape.val(logits), "logits", where)
    ce, _ = loss_eval(loss_spec, logits, y_lab, tape)
    wrt = g_b.param_ids() + h_b.param_ids()
    loss = ce
    if align:
        ns = len(xs)
        m_dim = model.g.out_dim
        f_s_node = forward(tape, "slice", feats, starts=[0, 0],
                           stops=[ns, m_dim])
        if labeled_target:
            f_t_node = forward(tape, "slice", feats, starts=[ns, 0],
                               stops=[len(x_lab), m_dim])
        else:
            f_t_node = g_b(tape.input(xt))
        hist_node = f_s_node
        if temporal:
            r_b = md.BoundRecurrent(tape, model.summarizer)
            mean_f = forward(tape, "mean", f_s_node, axis=0)
            _, readout = md.summarize_step(model.summarizer, model.summary_state,
                                           mean_f, tape, bound=r_b)
            half = tape.input(np.full((ns, m_dim), 0.5))
            hist_node = forward(tape, "add", (
                forward(tape, "mul", (f_s_node, half)),
                forward(tape, "mul", (forward(tape, "broadcast", readout,
                                              shape=(ns, m_dim), axis=0),
                                      half))))
            wrt = wrt + r_b.param_ids()
        gap = alignment_gap(model.critic, f_t_node, hist_node, tape)
        lam_node = tape.input(np.asarray(lam))
        loss = forward(tape, "add", (ce, forward(tape, "mul", (gap, lam_node))))
    _check_finite(tape.val(loss), "model loss", where)
    grads = backward(tape, loss, wrt)
    opt.step([grads[i] for i in wrt])
    return float(tape.val(ce))


def adapt_pair(model: AdaptationModel, source: DomainBatch, target: DomainBatch,
               cfg: TrainConfig, labeled_target: bool = True, *, stage: int = 0,
               temporal: bool = False, loss_spec: LossSpec = LossSpec(),
               eval_batch: DomainBatch | None = None):
    """One primal-dual adaptation stage: k_critic critic ascent steps per
    descent step on the feature map and classifier. Returns (model', metrics);
    the input model is not modified."""
    out = model.copy()
    metrics = _run_stage(out, source, target, cfg, labeled_target=labeled_target,
                         align=True, temporal=temporal, stage=stage,
                         loss_spec=loss_spec, eval_batch=eval_batch)
    return out, metrics


def train_erm(model: AdaptationModel, batch: DomainBatch, cfg: TrainConfig, *,
              stage: int = 0, loss_spec: LossSpec = LossSpec(),
              eval_batch: DomainBatch | None = None):
    """Plain empirical risk minimization sharing adapt_pair's seed and batch
    order (the lambda=0 degenerate case without the critic loop)."""
    out = model.copy()
    metrics = _run_stage(out, batch, batch, cfg, labeled_target=False,
                         align=False, temporal=False, stage=stage,
                         loss_spec=loss_spec, eval_batch=eval_batch)
    return out, metrics


def train_schedule(kind: str, seq: DomainSequence, cfg: TrainConfig,
                   model_spec: ModelSpec | None = None, *, holdout: float = 0.25,
                   labeled_target: bool = True, loss_spec: LossSpec = LossSpec(),
                   start_model: AdaptationModel | None = None,
                   start_stage: int = 0, stage_callback=None):
    """Run one adaptation schedule; returns (final model, per-stage metrics).

    Evaluation is always on the held-out split of the final domain.
    `start_model`/`start_stage` resume a gradual schedule from a stage
    boundary; `stage_callback(stage_index, model, metrics)` fires after each
    completed stage.
    """
    if kind not in SCHEDULES:
        raise ValueError(f"unknown schedule {kind!r}; expected one of {SCHEDULES}")
    if seq.T < 2:
        raise ValueError("schedules need T >= 2 domains")
    spec = model_spec if model_spec is not None else ModelSpec()
    temporal = kind == "gradual_temporal"
    if temporal:
        spec = replace(spec, summarizer=True)
    train_seq, eval_seq = split_holdout(seq, holdout,
                                        dc.substream(cfg.seed, "holdout"))
    eval_batch = eval_seq.domains[-1]
    if start_model is not None:
        model = start_model.copy()
    else:
        model = build_model(spec, seq.d, seq.k, dc.substream(cfg.seed, "init"))
    trace: list[EpochMetrics] = []

    def finish_stage(idx, metrics):
        trace.append(metrics)
        if stage_callback is not None:
            stage_callback(idx, model, metrics)

    if kind == "no_adaptation":
        m = _run_stage(model, train_seq.domains[0], train_seq.domains[0], cfg,
                       labeled_target=False, align=False, temporal=False,
                       stage=0, loss_spec=loss_spec, eval_batch=eval_batch)
        finish_stage(0, m)
    elif kind == "direct":
        pool_feats = np.concatenate([d.features for d in train_seq.domains[:-1]])
        pool_labels = np.concatenate([d.labels for d in train_seq.domains[:-1]])
        pooled = DomainBatch(0, pool_feats, pool_labels, seq.k)
        m = _run_stage(model, pooled, train_seq.domains[-1], cfg,
                       labeled_target=labeled_target, align=True,
                       temporal=False, stage=0, loss_spec=loss_spec,
                       eval_batch=eval_batch)
        finish_stage(0, m)
    else:
        for t in range(start_stage, seq.T - 1):
            source = train_seq.domains[t]
            target = train_seq.domains[t + 1]
            m = _run_stage(model, source, target, cfg,
                           labeled_target=labeled_target, align=True,
                           temporal=temporal, stage=t, loss_spec=loss_spec,
                           eval_batch=eval_batch)
            if temporal:
                # commit the finished domain into the recurrent state under
                # the final feature map
                mean_f = md.mlp_eval(model.g, source.features).mean(axis=0)
                model.summary_state, _ = md.summarize_step(
                    model.summarizer, model.summary_state, mean_f)
            finish_stage(t, m)
    return model, trace
