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


def _interpolates(fa: np.ndarray, fb: np.ndarray, seed: int) -> np.ndarray:
    """Per-row random points between two feature batches; a smaller batch is
    first resampled with replacement up to the larger one's size."""
    if fa.shape[0] != fb.shape[0]:
        n = max(fa.shape[0], fb.shape[0])
        def up(x, tag):
            if x.shape[0] == n:
                return x
            idx = (dc.rng_uniform(dc.substream(seed, "gp_resample", tag),
                                  (n,)) * x.shape[0]).astype(int)
            return x[np.minimum(idx, x.shape[0] - 1)]
        fa, fb = up(fa, 0), up(fb, 1)
    u = dc.rng_uniform(dc.substream(seed, "gp_u"), (fa.shape[0], 1))
    return u * fa + (1.0 - u) * fb


def gradient_penalty(critic: md.MlpParams, features_a, features_b, tape: Tape,
                     seed: int, *, bound: md.BoundMlp | None = None) -> int:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over per-row random interpolates.

    The features are fixed arrays and the interpolates leaves; gradients flow
    to the critic parameters through the recorded input-gradient computation.
    This taped penalty is the reference implementation: the tests check it
    against finite differences, and check critic_ascent_step's closed form
    against it.
    """
    xh = _interpolates(np.asarray(features_a, dtype=np.float64),
                       np.asarray(features_b, dtype=np.float64), seed)
    n = xh.shape[0]
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
    slow-lr snapshot tracks W1 from below. Training stages use the faster
    TrainConfig.lr_critic instead.
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
    times the gradient penalty. Returns (gap, penalty) before the update.

    The gradient is computed in closed form from one numpy forward pass over
    the rows [a; b; interpolates]. The input gradient at the interpolates is
    the backward chain delta_L = 1, gamma_l = delta_{l+1} * s_l,
    delta_l = gamma_l W_l^T, with s_l each layer's slope. The penalty's
    adjoint then runs forward through that chain (double backprop), where a
    tanh layer also sends a second-derivative term to its pre-activation.
    One primal backprop over all rows, seeded with the gap's -1/n_a and
    +1/n_b, carries those terms to the parameters. The taped alignment_gap
    and gradient_penalty are the reference it is tested against.
    """
    for f in (features_a, features_b):
        if np.shape(f)[0] == 0:
            raise ValueError("alignment_gap: empty feature batch")
    if critic.out_dim != 1:
        raise ValueError(f"critic output layer must have size 1, got {critic.out_dim}")
    fa, fb = dc.array(features_a), dc.array(features_b)
    for f in (fa, fb):
        if f.ndim != 2 or f.shape[1] != critic.in_dim:
            raise dc.ShapeError(f"critic input width {critic.in_dim} does not "
                                f"match features of shape {f.shape}")
    xh = _interpolates(fa, fb, gp_seed)
    na, nb, k = len(fa), len(fb), len(fa) + len(fb)
    ws, acts = critic.weights, critic.activations
    n_layers = len(ws)
    outs = md.mlp_layers(critic, np.concatenate([fa, fb, xh]))
    # each layer's slope from its output h (None: identity)
    slopes = [None if a == "identity" else (h > 0.0) if a == "relu"
              else 1.0 - np.square(h) for a, h in zip(acts, outs[1:])]
    deltas = [None] * n_layers + [np.ones((len(xh), 1))]
    gammas = [None] * n_layers
    for l in reversed(range(n_layers)):
        s = slopes[l]
        gammas[l] = deltas[l + 1] if s is None else deltas[l + 1] * s[k:]
        deltas[l] = gammas[l] @ ws[l].T
    norms = np.sqrt(np.square(deltas[0]).sum(axis=1) + 1e-24)
    pen = float(np.mean(np.square(norms - 1.0)))
    c = outs[-1][:, 0]
    gap = float(c[:na].mean() - c[na:k].mean())
    _check_finite(pen * gp_factor - gap, "critic loss", where)
    # the penalty's adjoint, forward through the input-gradient chain
    d_delta = (gp_factor * 2.0 / len(xh)) * ((norms - 1.0) / norms)[:, None] \
        * deltas[0]
    grad_w = [None] * n_layers
    second = [None] * n_layers
    for l in range(n_layers):
        grad_w[l] = d_delta.T @ gammas[l]
        d_gamma = d_delta @ ws[l]
        s = slopes[l]
        if acts[l] == "tanh":
            h = outs[l + 1][k:]
            second[l] = d_gamma * deltas[l + 1] * (-2.0 * h * s[k:])
        d_delta = d_gamma if s is None else d_gamma * s[k:]
    # primal backprop over all rows
    g = np.zeros((len(outs[0]), 1))
    g[:na] = -1.0 / na
    g[na:k] = 1.0 / nb
    grad_b = [None] * n_layers
    for l in reversed(range(n_layers)):
        if slopes[l] is not None:
            g = g * slopes[l]
        if second[l] is not None:
            g[k:] += second[l]
        grad_w[l] += outs[l].T @ g
        grad_b[l] = g.sum(axis=0)
        if l:
            g = g @ ws[l].T
    opt.step([a for pair in zip(grad_w, grad_b) for a in pair])
    return gap, pen


# ---------------------------------------------------------------------------
# adaptation stages

def _check_finite(value, what: str, where: str):
    if not np.all(np.isfinite(value)):
        raise TrainingDiverged(f"non-finite {what} at {where}")


def _run_stage(model: AdaptationModel, source: DomainBatch, target: DomainBatch,
               cfg: TrainConfig, *, labeled_target: bool, align: bool,
               temporal: bool, stage: int, loss_spec: LossSpec,
               eval_batch: DomainBatch | None):
    """Train one adaptation stage in place; returns EpochMetrics.

    Each batch is one primal-dual step on one tape. It records the features
    and the class loss; when aligning, the critic ascends k_critic times on
    the recorded features, then the gap under the updated critic is recorded
    and the model descends on class loss plus lam times that gap.
    """
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
    m_dim = model.g.out_dim
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
            xs, ys = source.features[src_idx], source.labels[src_idx]
            tgt_idx = torder[(tpos + np.arange(ns)) % target.n]
            tpos += ns
            xt, yt = target.features[tgt_idx], target.labels[tgt_idx]
            where = f"stage {stage} epoch {epoch} batch {b}"
            tape = Tape()
            g_b = md.BoundMlp(tape, model.g)
            h_b = md.BoundMlp(tape, model.h)
            if labeled_target:
                x_lab = np.concatenate([xs, xt])
                y_lab = np.concatenate([ys, yt])
            else:
                x_lab, y_lab = xs, ys
            feats = g_b(tape.input(x_lab))
            logits = h_b(feats)
            _check_finite(tape.val(logits), "logits", where)
            ce, _ = loss_eval(loss_spec, logits, y_lab, tape)
            wrt = g_b.param_ids() + h_b.param_ids()
            loss = ce
            gap_val = pen_val = 0.0
            if align:
                f_s_node = forward(tape, "slice", feats, starts=[0, 0],
                                   stops=[ns, m_dim])
                if labeled_target:
                    f_t_node = forward(tape, "slice", feats, starts=[ns, 0],
                                       stops=[len(x_lab), m_dim])
                else:
                    f_t_node = g_b(tape.input(xt))
                _check_finite(tape.val(f_s_node), "source features", where)
                _check_finite(tape.val(f_t_node), "target features", where)
                hist_node = f_s_node
                if temporal:
                    r_b = md.BoundRecurrent(tape, model.summarizer)
                    mean_f = forward(tape, "mean", f_s_node, axis=0)
                    _, readout = md.summarize_step(
                        model.summarizer, model.summary_state, mean_f, tape,
                        bound=r_b)
                    half = tape.input(np.full((ns, m_dim), 0.5))
                    hist_node = forward(tape, "add", (
                        forward(tape, "mul", (f_s_node, half)),
                        forward(tape, "mul", (forward(
                            tape, "broadcast", readout, shape=(ns, m_dim),
                            axis=0), half))))
                    wrt = wrt + r_b.param_ids()
                for kk in range(cfg.k_critic):
                    gap_val, pen_val = critic_ascent_step(
                        model.critic, opt_critic, tape.val(f_t_node),
                        tape.val(hist_node), cfg.gp_factor,
                        dc.substream(cfg.seed, "gp", stage, epoch, b, kk), where)
                gap = alignment_gap(model.critic, f_t_node, hist_node, tape)
                loss = forward(tape, "add", (ce, forward(
                    tape, "mul", (gap, tape.input(np.asarray(cfg.lam))))))
            _check_finite(tape.val(loss), "model loss", where)
            grads = backward(tape, loss, wrt)
            opt_model.step([grads[i] for i in wrt])
            loss_sum += float(tape.val(ce))
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


def train_erm(model: AdaptationModel, batch: DomainBatch, cfg: TrainConfig, *,
              stage: int = 0, loss_spec: LossSpec = LossSpec(),
              eval_batch: DomainBatch | None = None):
    """Plain empirical risk minimization sharing an adaptation stage's seed
    and batch order (the lambda=0 degenerate case without the critic loop)."""
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
        metrics = _run_stage(model, source, target, cfg,
                             labeled_target=labeled_target and align,
                             align=align, temporal=temporal, stage=t,
                             loss_spec=loss_spec, eval_batch=eval_batch)
        if temporal:
            # commit the finished domain into the recurrent state under the
            # final feature map
            tape = Tape()
            mean_f = md.mlp_eval(model.g, source.features).mean(axis=0)
            model.summary_state, _ = md.summarize_step(
                model.summarizer, model.summary_state, tape.input(mean_f), tape)
        trace.append(metrics)
        if stage_callback is not None:
            stage_callback(t, model, metrics)
    return model, trace
