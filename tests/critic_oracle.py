"""The critic loop as it stood before its views and work buffers were bound
ahead of its steps: the bit oracle that `objectives._CriticLoop` is held
to. Each step here allocates its arrays afresh; the same floating-point
operations in the same order give the same bits."""

from __future__ import annotations

import math

import numpy as np

from gradshift import diffcore as dc
from gradshift import models as md
from gradshift.objectives import TrainingDiverged, _Opt


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
    gap, pen = 0.0, 0.0
    for step in range(len(gp_seeds)):
        if step % 64 == 0:          # the next 64 steps' draws in one pass
            u = dc.uniform_rows([dc.substream(s, "gp_u")
                                 for s in gp_seeds[step:step + 64]], n)
        np.multiply(xa, u[step % 64], out=xh)
        xh += (1.0 - u[step % 64]) * xb
        outs = md.mlp_layers(critic, x)
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
