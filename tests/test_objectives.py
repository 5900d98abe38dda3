import dataclasses
import math
import re
import statistics
from contextlib import nullcontext

import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import models as md
from gradshift import objectives as ob
from gradshift import transport as tp
from gradshift.diffcore import Tape, backward, forward
import critic_oracle
import step_oracle
import tape_oracle
from critic_training import ascend, gp_draws, train_critic
from tape_oracle import alignment_gap, gradient_penalty, loss_eval


class TestLossEval:
    def test_uniform_logits_ln2(self):
        spec = ob.LossSpec("cross_entropy_bounded", bound=5.0)
        t = Tape()
        mean, per = loss_eval(spec, np.zeros((4, 2)), np.array([0, 1, 0, 1]), t)
        assert abs(t.val(mean) - math.log(2)) < 1e-12
        assert np.allclose(per, math.log(2))

    def test_confident_goes_to_zero(self):
        spec = ob.LossSpec()
        logits = np.array([[30.0, 0.0], [0.0, 30.0]])
        t = Tape()
        mean, _ = loss_eval(spec, logits, np.array([0, 1]), t)
        assert t.val(mean) < 1e-12

    def test_clamp_at_bound(self):
        spec = ob.LossSpec("cross_entropy_bounded", bound=3.0)
        # true-class probability ~ e^-10: raw CE ~ 10, clamped to 3
        logits = np.array([[0.0, 10.0]])
        t = Tape()
        mean, per = loss_eval(spec, logits, np.array([0]), t)
        assert per[0] == 3.0
        assert abs(t.val(mean) - 3.0) < 1e-15

    def test_matches_numpy_twin(self):
        for kind in ("cross_entropy_bounded", "hinge"):
            spec = ob.LossSpec(kind, bound=4.0)
            logits = dc.rng_normal(3, (10, 3), 0.0, 2.0)
            labels = (dc.rng_uniform(4, (10,)) * 3).astype(np.int64)
            t = Tape()
            mean, per = loss_eval(spec, logits, labels, t)
            ref = ob.loss_values_np(spec, logits, labels)
            assert np.max(np.abs(per - ref)) < 1e-12
            assert abs(t.val(mean) - ref.mean()) < 1e-12

    def test_hinge_bounded(self):
        spec = ob.LossSpec("hinge", bound=2.0)
        logits = dc.rng_normal(5, (20, 4), 0.0, 5.0)
        labels = (dc.rng_uniform(6, (20,)) * 4).astype(np.int64)
        vals = ob.loss_values_np(spec, logits, labels)
        assert np.all(vals >= 0) and np.all(vals <= 2.0)

    def test_nonfinite_logits_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="finite"):
            loss_eval(ob.LossSpec(), np.array([[np.inf, 0.0]]), np.array([0]), t)

    def test_differentiable(self):
        spec = ob.LossSpec()
        h = md.init_mlp(0, [3, 2])
        x = dc.rng_normal(1, (6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        t = Tape()
        b = md.BoundMlp(t, h)
        logits = b(t.input(x))
        mean, _ = loss_eval(spec, logits, y, t)
        g = backward(t, mean, b.param_ids())
        assert any(np.linalg.norm(g[i]) > 0 for i in b.param_ids())

    @pytest.mark.parametrize("kind", ["cross_entropy_bounded", "hinge"])
    def test_gradient_matches_tape(self, kind):
        # wide logits, so that some samples sit at the clamp and pass no
        # gradient, and some hinge terms are inactive
        spec = ob.LossSpec(kind, bound=3.0)
        logits = dc.rng_normal(dc.substream(8, kind), (40, 3), 0.0, 3.0)
        labels = (dc.rng_uniform(9, (40,)) * 3).astype(np.int64)
        values, grad = ob._loss_and_grad(spec, logits, labels)
        t = Tape()
        z = t.input(logits)
        mean, per = loss_eval(spec, z, labels, t)
        assert 0 < np.sum(per == 3.0) < 40
        assert np.max(np.abs(values - per)) < 1e-12
        want = backward(t, mean, [z])[z]
        assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)


class TestAlignmentGap:
    def test_identical_batches_zero(self):
        c = md.init_mlp(1, [4, 8, 1], ["tanh", "identity"])
        f = dc.rng_normal(2, (16, 4))
        t = Tape()
        gap = alignment_gap(c, f, f.copy(), t)
        assert t.val(gap) == 0.0

    def test_linear_critic_mean_difference(self):
        w = dc.rng_normal(3, (4, 1))
        c = md.MlpParams([w], [np.zeros(1)], ["identity"])
        fa = dc.rng_normal(4, (32, 4), 0.5, 1.0)
        fb = dc.rng_normal(5, (32, 4), -0.5, 1.0)
        t = Tape()
        gap = t.val(alignment_gap(c, fa, fb, t))
        expect = float(w.ravel() @ (fa.mean(axis=0) - fb.mean(axis=0)))
        assert abs(gap - expect) < 1e-12

    def test_empty_batch_rejected(self):
        c = md.init_mlp(1, [4, 1])
        t = Tape()
        with pytest.raises(ValueError, match="empty"):
            alignment_gap(c, np.zeros((0, 4)), np.zeros((3, 4)), t)


class TestGradientPenalty:
    def test_unit_norm_linear_critic(self):
        w = np.zeros((3, 1))
        w[0, 0] = 1.0
        c = md.MlpParams([w], [np.zeros(1)], ["identity"])
        t = Tape()
        pen = gradient_penalty(c, dc.rng_normal(1, (8, 3)),
                                  dc.rng_normal(2, (8, 3)), t, seed=3)
        assert t.val(pen) < 1e-24

    def test_norm_three_gives_four(self):
        w = np.zeros((3, 1))
        w[1, 0] = 3.0
        c = md.MlpParams([w], [np.zeros(1)], ["identity"])
        t = Tape()
        pen = gradient_penalty(c, dc.rng_normal(4, (8, 3)),
                                  dc.rng_normal(5, (8, 3)), t, seed=6)
        assert abs(t.val(pen) - 4.0) < 1e-12

    def test_parameter_gradient_vs_fd(self):
        from test_diffcore import fd_scalar, rel_err
        fa = dc.rng_normal(7, (6, 3))
        fb = dc.rng_normal(8, (6, 3), 0.5, 1.0)

        def build(arrays):
            c = md.MlpParams([arrays[0], arrays[2]], [arrays[1], arrays[3]],
                             ["tanh", "identity"])
            t = Tape()
            b = md.BoundMlp(t, c)
            pen = gradient_penalty(c, fa, fb, t, seed=9, bound=b)
            return t, pen, b

        base = md.init_mlp(10, [3, 5, 1], ["tanh", "identity"])
        t, pen, b = build(base.arrays())
        grads = backward(t, pen, b.param_ids())
        fd = fd_scalar(lambda ps: (lambda r: float(r[0].val(r[1])))(build(ps)),
                       base.arrays())
        assert rel_err([grads[i] for i in b.param_ids()], fd) < 1e-4

    def test_any_linear_critic_exact(self):
        # penalty equals (||w|| - 1)^2 for linear critics; the only rounding
        # is the final mean over n identical row values (one ulp)
        for trial in range(10):
            w = dc.rng_normal(dc.substream(31, trial), (4, 1), 0.0, 2.0)
            c = md.MlpParams([w], [np.zeros(1)], ["identity"])
            t = Tape()
            pen = gradient_penalty(c, dc.rng_normal(1, (6, 4)),
                                      dc.rng_normal(2, (6, 4)), t, seed=trial)
            want = (np.sqrt(np.sum(np.square(w.ravel()))) - 1.0) ** 2
            assert abs(float(t.val(pen)) - want) <= 2 * np.finfo(float).eps * want


class _Recorded:
    """Stands in for the optimizer and keeps the gradients it is given."""

    def step(self, grads):
        self.grads = [g.copy() for g in grads]


class _Tee:
    """Keeps each step's gradient and the parameters it was taken at, then
    hands the gradient on to the optimizer it wraps."""

    def __init__(self, opt):
        self.opt = opt
        self.before = []
        self.grads = []

    def step(self, grads):
        self.before.append(np.concatenate([p.ravel() for p in self.opt.params]))
        self.grads.append(np.concatenate([g.ravel() for g in grads]))
        self.opt.step(grads)


def taped_ascent_step(critic, opt, fa, fb, gp_factor, gp_seed):
    """The critic step on one tape: alignment_gap, gradient_penalty and
    backward, the reference for each step of the critic loop's closed
    form."""
    t = Tape()
    b = md.BoundMlp(t, critic)
    gap = alignment_gap(critic, fa, fb, t, bound=b)
    pen = gradient_penalty(critic, fa, fb, t, gp_seed, bound=b)
    loss = forward(t, "sub", (forward(
        t, "mul", (pen, t.input(np.asarray(gp_factor)))), gap))
    ids = b.param_ids()
    grads = backward(t, loss, ids)
    opt.step([grads[i] for i in ids])
    return float(t.val(gap)), float(t.val(pen))


def _paired(pool: np.ndarray, n: int) -> np.ndarray:
    """n rows cycled from a feature pool, as the trainer pairs target rows
    with a source batch of n rows: a pool smaller than n repeats rows."""
    return pool[np.arange(n) % len(pool)]


# (m, c1, c2): random tanh/tanh/identity critics m -> c1 -> c2 -> 1, the
# one shape the critic loop takes, at equal and unequal hidden widths and
# one input feature; the widths training builds (build_model's default
# 8 -> 16 -> 16, and the acceptance runs' 4 and 1 features); hidden layers
# of one unit; and odd and wide hidden widths, whose gemms take other
# kernel edges than the narrow ones
CRITIC_WIDTHS = [(3, 5, 5), (1, 4, 4), (3, 5, 7), (4, 9, 2),
                 (8, 16, 16), (4, 16, 16), (1, 16, 16),
                 (1, 1, 1), (2, 1, 6), (2, 6, 1), (5, 2, 3),
                 (2, 17, 17), (3, 31, 33), (6, 24, 8), (9, 3, 20),
                 (8, 32, 32), (2, 64, 64), (7, 65, 40)]

# every other (hidden activations, head) shape of random critics at depth
# 0-3: the critic loop rejects each
UNSUPPORTED = [hidden + [head]
               for hidden in ([], ["relu"], ["tanh"], ["identity"],
                              ["relu", "relu"], ["tanh", "tanh"],
                              ["identity", "identity"], ["tanh", "relu"],
                              ["tanh", "tanh", "tanh"])
               for head in ("identity", "tanh", "relu")
               if hidden + [head] != ["tanh", "tanh", "identity"]]

# Adam step sizes: the trainer's default lr_critic and a step 20 times larger
CRITIC_LRS = [5e-4, 1e-2]


def _widths_id(widths) -> str:
    return "-".join(map(str, widths))


def _rejection(activations, width) -> str:
    """The critic loop's one ValueError for any other critic shape."""
    return (f"the critic loop needs tanh, tanh and identity layers with a "
            f"head of width 1, got {list(activations)} and width {width}")


def _random_critic(seed, widths) -> md.MlpParams:
    """A tanh/tanh/identity critic m -> c1 -> c2 -> 1 at widths (m, c1, c2),
    with random biases as well as weights."""
    critic = md.init_mlp(dc.substream(seed, "c"), [*widths, 1],
                         ["tanh", "tanh", "identity"])
    for i, b in enumerate(critic.biases):
        b[:] = dc.rng_normal(dc.substream(seed, "b", i), b.shape, 0.0, 0.5)
    return critic


def _assert_rejected(critic, n):
    """The one entry to the critic step, binding a loop for batches of n
    rows, rejects the critic's shape, naming its activations and head
    width, and leaves the critic's bytes untouched."""
    before = critic.flat.tobytes()
    message = _rejection(critic.activations, critic.out_dim)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ob._CriticLoop(critic, n)
    assert critic.flat.tobytes() == before


class TestCriticAscentStep:
    @pytest.mark.parametrize("gp_factor", [0.0, 5.0])
    @pytest.mark.parametrize("nb", [12, 7], ids=["equal", "unequal"])
    @pytest.mark.parametrize("widths", CRITIC_WIDTHS, ids=_widths_id)
    def test_matches_tape(self, widths, nb, gp_factor):
        seed = dc.substream(71, *widths, nb)
        critic = _random_critic(seed, widths)
        m = widths[0]
        fa = dc.rng_normal(dc.substream(seed, "a"), (12, m))
        fb = _paired(dc.rng_normal(dc.substream(seed, "fb"), (nb, m), 0.5, 1.0),
                     12)
        closed, taped = _Recorded(), _Recorded()
        gap, pen = ascend(critic, closed, fa, fb, gp_factor, gp_draws([9], 12),
                          "test")
        gap_ref, pen_ref = taped_ascent_step(critic, taped, fa, fb, gp_factor, 9)
        assert abs(gap - gap_ref) <= 1e-12 * abs(gap_ref)
        assert abs(pen - pen_ref) <= 1e-12 * abs(pen_ref)
        got = np.concatenate([g.ravel() for g in closed.grads])
        want = np.concatenate([g.ravel() for g in taped.grads])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("activations", UNSUPPORTED,
                             ids=lambda a: "-".join(a))
    def test_unsupported_shape_rejected(self, activations):
        # the trainer's critic has two tanh hidden layers under an identity
        # head: a critic of any other depth, hidden activation or head is
        # rejected
        critic = md.init_mlp(dc.substream(78, *activations),
                             [3] + [5] * (len(activations) - 1) + [1],
                             activations)
        _assert_rejected(critic, 12)

    @pytest.mark.parametrize("lr", CRITIC_LRS)
    @pytest.mark.parametrize("gp_factor", [0.0, 5.0])
    @pytest.mark.parametrize("nb", [12, 7], ids=["equal", "unequal"])
    @pytest.mark.parametrize("widths", CRITIC_WIDTHS, ids=_widths_id)
    def test_loop_matches_taped_steps(self, widths, nb, gp_factor, lr):
        # k steps in one critic loop call against k taped steps, each taken at
        # the loop's own iterate (Adam turns rounding noise in a gradient
        # that is zero in exact arithmetic, such as the head bias's, into
        # steps of up to lr, so two separately updated critics drift apart)
        seed = dc.substream(76, *widths, nb)
        critic = _random_critic(seed, widths)
        m = widths[0]
        fa = dc.rng_normal(dc.substream(seed, "a"), (12, m))
        fb = _paired(dc.rng_normal(dc.substream(seed, "fb"), (nb, m), 0.5, 1.0),
                     12)
        seeds = [dc.substream(seed, "gp", kk) for kk in range(4)]
        closed = _Tee(ob._Opt([critic.flat], lr))
        gap, pen = ascend(critic, closed, fa, fb, gp_factor,
                          gp_draws(seeds, 12), "test")
        assert len(closed.grads) == len(seeds)
        assert not np.array_equal(closed.before[-1], closed.before[0])
        for s, before, got in zip(seeds, closed.before, closed.grads):
            ref = critic.copy()
            ref.flat[:] = before
            taped = _Recorded()
            gap_ref, pen_ref = taped_ascent_step(ref, taped, fa, fb, gp_factor, s)
            want = np.concatenate([g.ravel() for g in taped.grads])
            assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
        assert abs(gap - gap_ref) <= 1e-12 * abs(gap_ref)
        assert abs(pen - pen_ref) <= 1e-12 * abs(pen_ref)

    def test_draws_span_blocks(self):
        # one call with 70 rows of draws equals 70 one-row calls bit for bit
        fa = dc.rng_normal(dc.substream(77, "a"), (9, 3))
        fb = dc.rng_normal(dc.substream(77, "b"), (9, 3), 0.5, 1.0)
        critic = md.init_mlp(77, [3, 6, 6, 1], ["tanh", "tanh", "identity"])
        ref = critic.copy()
        draws = gp_draws([dc.substream(77, "gp", step) for step in range(70)], 9)
        got = ascend(critic, ob._Opt([critic.flat], 1e-2), fa, fb,
                     5.0, draws, "test")
        opt = ob._Opt([ref.flat], 1e-2)
        for row in draws:
            want = ascend(ref, opt, fa, fb, 5.0, row[None], "test")
        assert got == want
        assert np.array_equal(critic.flat, ref.flat)

    @pytest.mark.parametrize("lr", CRITIC_LRS)
    def test_train_critic_matches_taped_loop(self, lr):
        fa = dc.rng_normal(dc.substream(72, "a"), (32, 4))
        fb = dc.rng_normal(dc.substream(72, "b"), (32, 4), 0.7, 1.0)
        critic = md.init_mlp(dc.substream(72, "c"), [4, 16, 16, 1],
                             ["tanh", "tanh", "identity"])
        critic.weights[-1][:] = 0.0
        ref = critic.copy()
        gap = train_critic(critic, fa, fb, steps=20, lr=lr, seed=72)
        opt = ob._Opt(ref.arrays(), lr)
        for step in range(20):
            gap_ref, _ = taped_ascent_step(ref, opt, fa, fb, 5.0,
                                           dc.substream(72, "gp", step))
        assert abs(gap - gap_ref) <= 1e-9
        for a, b in zip(critic.arrays(), ref.arrays()):
            assert np.max(np.abs(a - b)) <= 1e-9

    # case -> the critic's activations and head width, or None for the
    # overflow case, whose critic has the trainer's shape
    ERRORS = {
        "out_dim": (["tanh", "tanh", "identity"], 2),
        "relu_hidden": (["relu", "tanh", "identity"], 1),
        "identity_hidden": (["identity", "identity", "identity"], 1),
        "tanh_head": (["tanh", "tanh", "tanh"], 1),
        "relu_head": (["tanh", "tanh", "relu"], 1),
        "overflow": None,
    }

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_errors(self, case):
        # through the one entry: a critic of another shape than tanh, tanh
        # and identity layers with a head of width 1 is rejected before a
        # loop is bound, and neither error updates the critic
        fa = dc.rng_normal(74, (6, 2))
        fb = dc.rng_normal(75, (6, 2))
        if self.ERRORS[case] is None:
            # h2 saturates at about 1, so each head output sums four terms
            # of 1e308 and overflows
            critic = md.init_mlp(73, [2, 4, 4, 1],
                                 ["tanh", "tanh", "identity"])
            critic.biases[1][:] = 10.0
            critic.weights[2][:] = 1e308
            error = ob.TrainingDiverged
            message = "non-finite critic loss at step 3, critic step 0"
        else:
            acts, width = self.ERRORS[case]
            critic = md.init_mlp(73, [2, 4, 4, width], acts)
            error, message = ValueError, re.escape(_rejection(acts, width))
        before = critic.flat.tobytes()
        # the overflow case overflows on purpose
        with pytest.raises(error, match=f"^{message}$"), \
                np.errstate(all="ignore"):
            ob._CriticLoop(critic, 6).run(_Recorded(), fa, fb, 5.0,
                                          gp_draws([1], 6), "step 3")
        assert critic.flat.tobytes() == before


def _oracle_pair(critic, lr, fa, fb, gp_factor, seeds):
    """The stage's critic loop, given the draws of `seeds`, and the oracle
    loop, given the seeds, each on its own copy of critic with a fresh
    Adam: per side, the returned (gap, pen), or the TrainingDiverged
    message, and the critic's bytes afterwards."""
    sides = []
    for ascent, gp in ((ascend, gp_draws(seeds, len(fa))),
                       (critic_oracle.critic_ascent, seeds)):
        c = critic.copy()
        try:
            # a diverging case overflows on purpose, on both sides alike
            with np.errstate(all="ignore"):
                out = ascent(c, ob._Opt([c.flat], lr), fa, fb,
                             gp_factor, gp, "test")
        except ob.TrainingDiverged as e:
            out = str(e)
        sides.append((out, c.flat.tobytes()))
    return sides


class TestCriticBitOracle:
    """The stage's critic loop, its buffers bound ahead of its steps,
    against the loop that allocated its arrays afresh each step
    (tests/critic_oracle.py): the same floating-point operations in the same
    order, so the same (gap, pen) and the same critic bytes after one
    call, for the one critic shape the loop takes, two tanh hidden layers
    of any widths under an identity head."""

    @pytest.mark.parametrize("lr", CRITIC_LRS)
    @pytest.mark.parametrize("gp_factor", [0.0, 5.0])
    @pytest.mark.parametrize("n,steps", [(1, 4), (7, 4), (64, 4), (7, 70)],
                             ids=["n1", "n7", "n64", "n7-70steps"])
    @pytest.mark.parametrize("widths", CRITIC_WIDTHS, ids=_widths_id)
    def test_random_critics(self, widths, n, steps, gp_factor, lr):
        seed = dc.substream(79, *widths, n)
        critic = _random_critic(seed, widths)
        m = widths[0]
        fa = dc.rng_normal(dc.substream(seed, "a"), (n, m))
        fb = dc.rng_normal(dc.substream(seed, "fb"), (n, m), 0.5, 1.0)
        seeds = [dc.substream(seed, "gp", step) for step in range(steps)]
        got, want = _oracle_pair(critic, lr, fa, fb, gp_factor, seeds)
        assert got == want

    @pytest.mark.parametrize("lr", CRITIC_LRS)
    @pytest.mark.parametrize("gp_factor", [0.0, 5.0])
    def test_moons_critic(self, gp_factor, lr):
        # the training critic's shape, 8 -> 16 -> 16 -> 1 with a zero head,
        # on a batch of 64 and one batch's k_critic = 5 steps
        critic = md.init_mlp(dc.substream(81, "c"), [8, 16, 16, 1],
                             ["tanh", "tanh", "identity"])
        critic.weights[-1][:] = 0.0
        fa = dc.rng_normal(dc.substream(81, "a"), (64, 8))
        fb = dc.rng_normal(dc.substream(81, "b"), (64, 8), 0.5, 1.0)
        seeds = [dc.substream(81, "gp", kk) for kk in range(5)]
        got, want = _oracle_pair(critic, lr, fa, fb, gp_factor, seeds)
        assert got == want
        assert isinstance(got[0], tuple)

    def test_width_one_features(self):
        # one input feature: the chain's input-side products are K = 1
        critic = md.init_mlp(82, [1, 4, 4, 1], ["tanh", "tanh", "identity"])
        fa = dc.rng_normal(dc.substream(82, "a"), (9, 1))
        fb = dc.rng_normal(dc.substream(82, "b"), (9, 1), 0.5, 1.0)
        seeds = [dc.substream(82, "gp", kk) for kk in range(6)]
        got, want = _oracle_pair(critic, 1e-2, fa, fb, 5.0, seeds)
        assert got == want

    def test_bound_loops_reused(self):
        # a training stage binds one loop per batch size: two loops of 8 and
        # 5 rows, each rerun with the other's calls between, match the oracle
        critic = md.init_mlp(dc.substream(83, "c"), [4, 6, 6, 1],
                             ["tanh", "tanh", "identity"])
        ref = critic.copy()
        loops = {n: ob._CriticLoop(critic, n) for n in (8, 5)}
        opt = ob._Opt([critic.flat], 1e-2)
        opt_ref = ob._Opt([ref.flat], 1e-2)
        for call, n in enumerate([8, 8, 5, 8, 5]):
            fa = dc.rng_normal(dc.substream(83, "a", call), (n, 4))
            fb = dc.rng_normal(dc.substream(83, "b", call), (n, 4), 0.5, 1.0)
            seeds = [dc.substream(83, "gp", call, kk) for kk in range(3)]
            got = loops[n].run(opt, fa, fb, 5.0, gp_draws(seeds, n), "test")
            want = critic_oracle.critic_ascent(ref, opt_ref, fa, fb, 5.0,
                                               seeds, "test")
            assert got == want
            assert critic.flat.tobytes() == ref.flat.tobytes()

    def test_diverges_mid_loop(self):
        # Adam at lr 1e307 moves every parameter by about lr a step: it
        # saturates both tanh layers and grows the head until the gap's sum
        # overflows at the third step; both loops stop there with the
        # critic of their last update
        critic = md.init_mlp(85, [2, 3, 3, 1], ["tanh", "tanh", "identity"])
        fa = dc.rng_normal(74, (6, 2))
        fb = dc.rng_normal(75, (6, 2))
        got, want = _oracle_pair(critic, 1e307, fa, fb, 5.0, [1, 2, 3, 4])
        assert got[0] == "non-finite critic loss at test, critic step 2"
        assert got == want
        assert got[1] != critic.flat.tobytes()


def _adam_nets(case):
    """The networks one optimizer holds: a critic-like net alone, or a
    temporal model's g, h and summarizer, as a stage's model step holds
    them."""
    if case == "one":
        return [md.init_mlp(80, [3, 5, 4, 1], ["tanh", "relu", "identity"])]
    model = ob.build_model(ob.ModelSpec(feature_dim=4, hidden=8), 2, 3, 80)
    return [model.g, model.h, md.init_recurrent(81, 4, 6, 4)]


class TestOptimizer:
    @pytest.mark.parametrize("lr,case", [
        pytest.param(lr, case, id=str(lr) if case == "one" else f"{lr}-{case}")
        for case in ("one", "g-h-summarizer") for lr in CRITIC_LRS])
    def test_flat_update_matches_per_array(self, lr, case):
        # _Opt updates each flat vector in whole-array ops, its two moments
        # stacked; the same update written out array by array, vector after
        # vector, gives the same bits
        nets = _adam_nets(case)
        ref = [[a.copy() for a in net.arrays()] for net in nets]
        m = [[np.zeros_like(a) for a in arrays] for arrays in ref]
        v = [[np.zeros_like(a) for a in arrays] for arrays in ref]
        b1, b2, eps = 0.9, 0.999, 1e-8
        opt = ob._Opt([net.flat for net in nets], lr)
        for step in range(1, 8):
            grads = [dc.rng_normal(dc.substream(80, step, i), net.flat.shape)
                     for i, net in enumerate(nets)]
            opt.step(grads)
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            for grad, arrays, ms, vs in zip(grads, ref, m, v):
                ofs = 0
                for p, mi, vi in zip(arrays, ms, vs):
                    g = grad[ofs:ofs + p.size].reshape(p.shape)
                    ofs += p.size
                    mi *= b1
                    mi += (1 - b1) * g
                    vi *= b2
                    vi += (1 - b2) * g * g
                    p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
        for net, arrays in zip(nets, ref):
            assert [float(x).hex() for x in net.flat] == \
                [float(x).hex() for a in arrays for x in a.ravel()]
        assert opt.mv.tobytes() == np.stack(
            [np.concatenate([a.ravel() for ms in m for a in ms]),
             np.concatenate([a.ravel() for vs in v for a in vs])]).tobytes()


def _model_step_cases():
    for schedule in ob.SCHEDULES:
        for loss in ("cross_entropy_bounded", "hinge"):
            for labeled in (True, False):
                for lr in (1e-3, 1e-2):
                    yield pytest.param(
                        schedule, loss, labeled, lr,
                        id=f"{schedule}-{loss}-"
                           f"{'labeled' if labeled else 'unlabeled'}-{lr}")


class TestModelStep:
    @pytest.mark.parametrize("schedule,loss,labeled,lr_model",
                             list(_model_step_cases()))
    def test_matches_tape(self, monkeypatch, schedule, loss, labeled,
                          lr_model):
        # every batch of a short schedule: the closed-form model gradient
        # against the taped one under the same, just updated, critic
        seq = dom.make_rotating_moons(3, 48, total_degrees=60.0,
                                      noise_sigma=0.1, seed=12)
        cfg = ob.TrainConfig(seed=12, epochs_per_domain=2, batch_size=16,
                             k_critic=2, lam=2.0, lr_model=lr_model,
                             lr_critic=0.05, labeled_target=labeled)
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8,
                            summarizer_hidden=6)
        run = ob._ModelStep.run
        errors = []

        def checked(self, opt_model, opt_critic, xs, ys, xt, yt, draws,
                    where):
            got = _Recorded()
            ce, gap, pen = run(self, got, opt_critic, xs, ys, xt, yt, draws,
                               where)
            align = self.loop is not None
            ce_ref, want = tape_oracle.taped_model_step(
                self.model, xs, ys, xt, yt, cfg, ob.LossSpec(loss),
                align=align, labeled_target=align and labeled,
                temporal=align and schedule == "gradual_temporal")
            assert [g.shape for g in got.grads] == [g.shape for g in want]
            assert abs(ce - ce_ref) <= 1e-12 * ce_ref
            got_v, want_v = np.concatenate(got.grads), np.concatenate(want)
            errors.append(np.linalg.norm(got_v - want_v)
                          / np.linalg.norm(want_v))
            opt_model.step(got.grads)
            return ce, gap, pen

        monkeypatch.setattr(ob._ModelStep, "run", checked)
        ob.train_schedule(schedule, seq, cfg, spec, loss_spec=ob.LossSpec(loss))
        assert len(errors) >= 6 and max(errors) <= 1e-10

    def test_training_records_no_tape(self, monkeypatch):
        made = []
        init = dc.Tape.__init__

        def counting(self):
            made.append(self)
            init(self)

        monkeypatch.setattr(dc.Tape, "__init__", counting)
        seq, cfg = small_task(13)
        spec = ob.ModelSpec(feature_dim=4, hidden=8, summarizer_hidden=8)
        for kind in ob.SCHEDULES:
            ob.train_schedule(kind, seq, cfg, spec)
        assert made == []
        dc.Tape()
        assert len(made) == 1


def _oracle_step_cases():
    for schedule in ob.SCHEDULES:
        for loss in ("cross_entropy_bounded", "hinge"):
            for labeled in (True, False):
                yield pytest.param(
                    schedule, loss, labeled, 1e-2, 10,
                    id=f"{schedule}-{loss}-"
                       f"{'labeled' if labeled else 'unlabeled'}")
        for labeled in (True, False):
            tag = f"{schedule}-{'labeled' if labeled else 'unlabeled'}"
            # batches of 7 leave a ragged batch of one row (of two where
            # direct pools two domains)
            yield pytest.param(schedule, "cross_entropy_bounded", labeled,
                               1e-2, 7, id=f"{tag}-batch7")
            # lr 1e160 diverges within the first stage
            yield pytest.param(schedule, "cross_entropy_bounded", labeled,
                               1e160, 10, id=f"{tag}-diverging")


def _step_outcome(step):
    """A step's (class loss, gap, penalty), or the message it diverged with."""
    try:
        return step()
    except ob.TrainingDiverged as e:
        return str(e)


class TestModelStepBitOracle:
    """The stage's model step, its arrays bound once per batch size, against
    the step that allocated them afresh, with the Adam that kept its two
    moments as two arrays (tests/step_oracle.py): the same floating-point
    operations in the same order, so after every batch the same (class
    loss, gap, penalty) or divergence message, the same model bytes and the
    same optimizer state."""

    @pytest.mark.parametrize("schedule,loss,labeled,lr_model,batch",
                             list(_oracle_step_cases()))
    def test_schedule(self, monkeypatch, schedule, loss, labeled, lr_model,
                      batch):
        # 48 rows a domain, 36 after the holdout (72 where direct pools two
        # domains): the last batch of an epoch is ragged
        seq = dom.make_rotating_moons(3, 48, total_degrees=60.0,
                                      noise_sigma=0.1, seed=21)
        cfg = ob.TrainConfig(seed=21, epochs_per_domain=2, batch_size=batch,
                             k_critic=2, lam=0.7, lr_model=lr_model,
                             lr_critic=0.05, labeled_target=labeled)
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8,
                            summarizer_hidden=6)
        run = ob._ModelStep.run
        twin = {}
        sizes = []

        def checked(self, opt_model, opt_critic, xs, ys, xt, yt, draws,
                    where):
            align = self.loop is not None
            if twin.get("opt") is not opt_model:
                # a new stage: the oracle starts from the model as it stands,
                # with fresh optimizers over the same networks
                ref = self.model.copy()
                nets = [ref.g, ref.h]
                if align and ref.summarizer is not None:
                    nets.append(ref.summarizer)
                twin.update(opt=opt_model, model=ref, loops={},
                            opt_model=step_oracle.Opt(
                                [n.flat for n in nets], self.cfg.lr_model),
                            opt_critic=step_oracle.Opt(
                                [ref.critic.flat], self.cfg.lr_critic)
                            if align else None)
            ref, n = twin["model"], len(xs)
            loop = None
            if align:
                loop = twin["loops"].get(n) or twin["loops"].setdefault(
                    n, ob._CriticLoop(ref.critic, n))
            want = _step_outcome(lambda: step_oracle.primal_dual_step(
                ref, twin["opt_model"], twin["opt_critic"], xs, ys, xt, yt,
                self.cfg, self.loss_spec, loop=loop, draws=draws,
                where=where))
            got = _step_outcome(lambda: run(self, opt_model, opt_critic, xs,
                                            ys, xt, yt, draws, where))
            assert got == want
            model = self.model
            for a, b in ((model.g, ref.g), (model.h, ref.h),
                         (model.critic, ref.critic),
                         (model.summarizer, ref.summarizer)):
                assert (a is None and b is None) or \
                    a.flat.tobytes() == b.flat.tobytes()
            for opt, old in ((opt_model, twin["opt_model"]),
                             (opt_critic, twin["opt_critic"])):
                assert (opt is None) == (old is None)
                if opt is not None:
                    assert opt.step_count == old.step_count
                    old_mv = np.stack([np.concatenate(old.m),
                                       np.concatenate(old.v)])
                    assert opt.mv.tobytes() == old_mv.tobytes()
            sizes.append(n)
            if isinstance(got, str):
                raise ob.TrainingDiverged(got)
            return got

        monkeypatch.setattr(ob._ModelStep, "run", checked)
        diverging = lr_model > 1
        with np.errstate(all="ignore") if diverging else nullcontext():
            try:
                ob.train_schedule(schedule, seq, cfg, spec,
                                  loss_spec=ob.LossSpec(loss))
            except ob.TrainingDiverged:
                assert diverging
            else:
                assert not diverging
        if not diverging:
            rows = 72 if schedule == "direct" else 36
            assert sorted(set(sizes)) == [rows % batch, batch]


def small_task(seed, T=3, n=120, degrees=40.0):
    seq = dom.make_rotating_moons(T, n, total_degrees=degrees,
                                  noise_sigma=0.1, seed=seed)
    cfg = ob.TrainConfig(seed=seed, epochs_per_domain=5, batch_size=32)
    return seq, cfg


def adapt_pair(model, source, target, cfg, labeled_target=True, *, stage=0):
    """One primal-dual adaptation stage on a copy of model; returns
    (adapted model, metrics) and leaves the input model as it was."""
    out = model.copy()
    cfg = dataclasses.replace(cfg, labeled_target=labeled_target)
    metrics = ob._run_stage(out, source, target, cfg, stage=stage,
                            loss_spec=ob.LossSpec(), eval_batch=None)
    return out, metrics


class TestAdaptPair:
    def test_stage_binds_one_loop_per_batch_size(self, monkeypatch):
        # 375 rows at batch 64 are five batches of 64 and one of 55: over
        # three epochs an aligning stage binds two critic loops, each on
        # its size's first batch, and a non-aligning stage binds none
        sizes = []
        init = ob._CriticLoop.__init__

        def counting(self, critic, n):
            sizes.append(n)
            init(self, critic, n)

        monkeypatch.setattr(ob._CriticLoop, "__init__", counting)
        seq = dom.make_rotating_moons(2, 375, total_degrees=24.0,
                                      noise_sigma=0.1, seed=14)
        cfg = ob.TrainConfig(seed=14, epochs_per_domain=3, batch_size=64)
        model = ob.build_model(ob.ModelSpec(), seq.d, seq.k, seed=14)
        adapt_pair(model, *seq.domains, cfg)
        assert sizes == [64, 55]
        ob.train_erm(model, seq.domains[0], cfg)
        assert sizes == [64, 55]

    def test_lambda_zero_matches_erm_bitwise(self):
        seq, cfg = small_task(1)
        cfg.lam = 0.0
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8)
        model = ob.build_model(spec, seq.d, seq.k, seed=7)
        src = seq.domains[0]
        adapted, _ = adapt_pair(model, src, seq.domains[1], cfg,
                                labeled_target=False, stage=0)
        erm, _ = ob.train_erm(model, src, cfg, stage=0)
        for a, b in zip(adapted.g.arrays() + adapted.h.arrays(),
                        erm.g.arrays() + erm.h.arrays()):
            assert np.array_equal(a, b)

    def test_source_equals_target_small_alignment(self):
        seq, cfg = small_task(2)
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8)
        model = ob.build_model(spec, seq.d, seq.k, seed=8)
        src = seq.domains[0]
        same = dom.DomainBatch(1, src.features.copy(), src.labels.copy(), src.k)
        _, metrics = adapt_pair(model, src, same, cfg, stage=0)
        assert abs(metrics.alignment) < 0.2

    def test_input_model_unchanged(self):
        seq, cfg = small_task(3)
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8)
        model = ob.build_model(spec, seq.d, seq.k, seed=9)
        before = [a.copy() for a in model.g.arrays()]
        adapt_pair(model, seq.domains[0], seq.domains[1], cfg)
        for a, b in zip(model.g.arrays(), before):
            assert np.array_equal(a, b)

    def test_adjacent_domain_adaptation_helps(self):
        # adapting one 24-degree step beats the unadapted source model,
        # median over 5 seeds
        gains = []
        for seed in range(1, 6):
            seq = dom.make_rotating_moons(6, 300, total_degrees=120.0,
                                          noise_sigma=0.1, seed=seed)
            tr, ev = dom.split_holdout(seq, 0.25, seed=seed)
            cfg = ob.TrainConfig(seed=seed, epochs_per_domain=10, batch_size=32)
            spec = ob.ModelSpec(feature_dim=8, hidden=16)
            model = ob.build_model(spec, seq.d, seq.k, seed=dc.substream(seed, "m"))
            base, _ = ob.train_erm(model, tr.domains[2], cfg, stage=0)
            ev_batch = ev.domains[3]
            acc_before = md.accuracy(base.g, base.h, ev_batch.features,
                                     ev_batch.labels)
            adapted, _ = adapt_pair(base, tr.domains[2], tr.domains[3], cfg,
                                    stage=1)
            acc_after = md.accuracy(adapted.g, adapted.h, ev_batch.features,
                                    ev_batch.labels)
            gains.append(acc_after - acc_before)
        assert statistics.median(gains) >= 0.0

    def test_divergence_guard(self):
        seq, cfg = small_task(4)
        cfg.lr_model = 1e160
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8)
        model = ob.build_model(spec, seq.d, seq.k, seed=10)
        with pytest.raises(ob.TrainingDiverged), np.errstate(all="ignore"):
            adapt_pair(model, seq.domains[0], seq.domains[1], cfg)

    def test_non_finite_history_diverges(self):
        # a temporal stage's history features are checked where they are
        # made, so a non-finite summary is a located divergence
        seq, cfg = small_task(4)
        model = ob.initial_model("gradual_temporal", seq,
                                 ob.ModelSpec(feature_dim=4, hidden=8), 10)
        model.summarizer.b_out[:] = np.inf
        with pytest.raises(ob.TrainingDiverged, match="^non-finite history "
                           "features at stage 0 epoch 0 batch 0$"), \
                np.errstate(all="ignore"):
            adapt_pair(model, seq.domains[0], seq.domains[1], cfg)


class TestTrainSchedule:
    def test_trace_lengths(self):
        seq, cfg = small_task(5, T=4)
        _, trace_g = ob.train_schedule("gradual", seq, cfg,
                                       ob.ModelSpec(feature_dim=4, hidden=8))
        assert len(trace_g) == 3
        _, trace_d = ob.train_schedule("direct", seq, cfg,
                                       ob.ModelSpec(feature_dim=4, hidden=8))
        assert len(trace_d) == 1
        _, trace_n = ob.train_schedule("no_adaptation", seq, cfg,
                                       ob.ModelSpec(feature_dim=4, hidden=8))
        assert len(trace_n) == 1

    def test_t2_gradual_equals_direct_shape(self):
        # at T=2 both schedules do the same work up to batching
        accs = {"gradual": [], "direct": []}
        for seed in range(1, 6):
            seq = dom.make_rotating_moons(2, 200, total_degrees=24.0,
                                          noise_sigma=0.1, seed=seed)
            cfg = ob.TrainConfig(seed=seed, epochs_per_domain=10, batch_size=32)
            for kind in accs:
                _, trace = ob.train_schedule(
                    kind, seq, cfg, ob.ModelSpec(feature_dim=4, hidden=8))
                accs[kind].append(trace[-1].target_acc)
        med_g = statistics.median(accs["gradual"])
        med_d = statistics.median(accs["direct"])
        assert abs(med_g - med_d) <= 0.02

    def test_unknown_schedule(self):
        seq, cfg = small_task(6)
        with pytest.raises(ValueError, match="unknown schedule"):
            ob.train_schedule("bogus", seq, cfg)

    def test_temporal_uses_summarizer(self):
        seq, cfg = small_task(7)
        model, trace = ob.train_schedule(
            "gradual_temporal", seq, cfg,
            ob.ModelSpec(feature_dim=4, hidden=8, summarizer_hidden=8))
        assert model.summarizer is not None
        assert model.summary_state.shape == (8,)
        assert np.any(model.summary_state != 0.0)
        assert len(trace) == seq.T - 1

    def test_deterministic(self):
        seq, cfg = small_task(8)
        spec = ob.ModelSpec(feature_dim=4, hidden=8)
        m1, t1 = ob.train_schedule("gradual", seq, cfg, spec)
        m2, t2 = ob.train_schedule("gradual", seq, cfg, spec)
        for a, b in zip(m1.g.arrays(), m2.g.arrays()):
            assert np.array_equal(a, b)
        assert [m.target_acc for m in t1] == [m.target_acc for m in t2]

    def test_resume_from_stage_boundary(self):
        seq, cfg = small_task(9, T=4)
        spec = ob.ModelSpec(feature_dim=4, hidden=8)
        full_model, full_trace = ob.train_schedule("gradual", seq, cfg, spec)
        snapshots = {}
        def grab(idx, model, metrics):
            snapshots[idx] = model.copy()
        ob.train_schedule("gradual", seq, cfg, spec, stage_callback=grab)
        resumed_model, resumed_trace = ob.train_schedule(
            "gradual", seq, cfg, spec, start_model=snapshots[1], start_stage=2)
        for a, b in zip(full_model.g.arrays(), resumed_model.g.arrays()):
            assert np.array_equal(a, b)
        assert [m.target_acc for m in full_trace[2:]] == \
               [m.target_acc for m in resumed_trace]

    def test_resume_past_single_stage_trains_nothing(self):
        seq, cfg = small_task(10)
        spec = ob.ModelSpec(feature_dim=4, hidden=8)
        start = ob.build_model(spec, seq.d, seq.k, seed=11)
        model, trace = ob.train_schedule("direct", seq, cfg, spec,
                                         start_model=start, start_stage=1)
        assert trace == []
        for got, want in zip(model.g.arrays() + model.h.arrays() +
                             model.critic.arrays(),
                             start.g.arrays() + start.h.arrays() +
                             start.critic.arrays()):
            assert np.array_equal(got, want)


class TestMonotoneTrace:
    def test_final_stage_not_worse_than_first(self):
        # qualitative monotone-improvement property, 5-seed median
        gains = []
        for seed in range(1, 6):
            seq = dom.make_rotating_moons(4, 200, total_degrees=90.0,
                                          noise_sigma=0.1, seed=seed)
            cfg = ob.TrainConfig(seed=seed, epochs_per_domain=8, batch_size=32)
            _, trace = ob.train_schedule(
                "gradual", seq, cfg, ob.ModelSpec(feature_dim=4, hidden=8))
            gains.append(trace[-1].target_acc - trace[0].target_acc)
        assert statistics.median(gains) >= 0.0


class TestCriticDual:
    def test_gap_tracks_w1_on_gaussians(self):
        # trained critic gap within [0.7, 1.05] of exact W1 on the same
        # feature samples (reduced-size version of the acceptance check)
        feats_a = dc.rng_normal(dc.substream(55, "a"), (256, 1), 0.0, 0.1)
        feats_b = dc.rng_normal(dc.substream(55, "b"), (256, 1), 1.0, 0.1)
        critic = md.init_mlp(dc.substream(55, "c"), [1, 16, 16, 1],
                             ["tanh", "tanh", "identity"])
        critic.weights[-1][:] = 0.0
        gap_val = train_critic(critic, feats_a, feats_b, steps=2000, seed=55)
        exact = tp.w1_exact(feats_a, feats_b).distance
        assert 0.7 * exact <= gap_val <= 1.05 * exact

    def test_converged_gap_respects_duality_on_small_drift(self):
        # fully converged critic: equilibrium slope is 1 + W1/(2*gp), so with
        # W1=0.3 and gp=5 the gap must stay within 1.05 * W1
        feats_a = dc.rng_normal(dc.substream(66, "a"), (256, 1), 0.0, 0.1)
        feats_b = dc.rng_normal(dc.substream(66, "b"), (256, 1), 0.3, 0.1)
        critic = md.init_mlp(dc.substream(66, "c"), [1, 16, 16, 1],
                             ["tanh", "tanh", "identity"])
        critic.weights[-1][:] = 0.0
        gap_val = train_critic(critic, feats_a, feats_b, steps=3000,
                               lr=5e-4, seed=66)
        exact = tp.w1_exact(feats_a, feats_b).distance
        assert gap_val <= 1.05 * exact
        assert gap_val >= 0.7 * exact
