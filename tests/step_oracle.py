"""The model's half of a training step as it stood before its arrays were
bound once per batch size in a stage: the bit oracle that
`objectives._ModelStep` is held to. Each step here allocates its arrays
afresh (the feature blocks, the forward outputs, the loss gradient and
every backprop product), and Adam keeps its two moments as two arrays; the
same floating-point operations in the same order give the same bits."""

from __future__ import annotations

import numpy as np

from gradshift import models as md
from gradshift import objectives as ob
from gradshift.objectives import _check_finite


def loss_and_grad(spec: ob.LossSpec, logits, labels):
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


def mlp_backward(params: md.MlpParams, outs: list[np.ndarray], g: np.ndarray,
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


class Opt:
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


def primal_dual_step(model: ob.AdaptationModel, opt_model: Opt,
                     opt_critic: Opt | None, xs, ys, xt, yt,
                     cfg: ob.TrainConfig, loss_spec: ob.LossSpec, *,
                     loop: ob._CriticLoop | None, draws, where: str):
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
    losses, d_logits = loss_and_grad(loss_spec, logits, y_lab)
    loss = ce = float(np.add.reduce(losses) / len(losses))
    d_feats, grad_h = mlp_backward(model.h, h_outs, d_logits.T)
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
        d_cols = mlp_backward(model.critic, c_outs, d_c, to_params=False)[0]
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
    grads[0] = mlp_backward(model.g, g_outs, d_feats, to_input=False)[1]
    if align and not labeled_target:
        grads[0] += mlp_backward(model.g, t_outs, d_t, to_input=False)[1]
    opt_model.step(grads)
    return ce, gap, pen
