"""Critic-only dual training for the tests that hold the trained critic's gap
to the exact W1 (acceptance criterion 11 among them), one batch's critic
steps through their one entry, and the interpolation draws that the critic
loop takes for a list of critic-step seeds."""

from __future__ import annotations

import numpy as np

from gradshift import diffcore as dc
from gradshift import models as md
from gradshift import objectives as ob


def train_critic(critic: md.MlpParams, features_a: np.ndarray,
                 features_b: np.ndarray, *, steps: int, lr: float = 4e-5,
                 gp_factor: float = 5.0, seed: int = 0) -> float:
    """Critic-only dual training on two fixed, equal-size feature batches
    (in place).

    The steps run as one `ascend`, the inner update of every training
    stage. Returns the final gap.

    The default lr is deliberately slow (the large-scale configs in this
    family run the critic 100x below the model lr): the two-sided penalty
    equilibrates at a slope of 1 + W1/(2 * gp_factor), so a fully converged
    critic overshoots W1 by 10% at gp_factor=5 on unit-distance data, while a
    slow-lr snapshot tracks W1 from below. Training stages use the faster
    TrainConfig.lr_critic instead.
    """
    opt = ob._Opt([critic.flat], lr)
    draws = gp_draws([dc.substream(seed, "gp", step) for step in range(steps)],
                     len(features_a))
    return ascend(critic, opt, features_a, features_b, gp_factor, draws,
                  "critic training")[0]


def ascend(critic: md.MlpParams, opt, features_a: np.ndarray,
           features_b: np.ndarray, gp_factor: float, draws: np.ndarray,
           where: str):
    """One batch's critic steps, one per row of draws, through a critic
    loop bound for the batch (`_CriticLoop(critic, n)`, as a training stage
    binds one). Returns the last step's (gap, penalty)."""
    return ob._CriticLoop(critic, len(features_a)).run(
        opt, features_a, features_b, gp_factor, draws, where)


def gp_draws(seeds, n: int) -> np.ndarray:
    """The critic loop's (len(seeds), n) interpolation draws for the critic
    steps with stream ids `seeds`, the rows a training stage draws: row i
    is stream substream(seeds[i], "gp_u"), as in tests/critic_oracle.py."""
    return dc.uniform_rows([dc.substream(s, "gp_u") for s in seeds], n)
