import dataclasses
import math
import statistics

import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift import domains as dom
from gradshift import models as md
from gradshift import objectives as ob
from gradshift import transport as tp
from gradshift.diffcore import Tape, backward, forward
import tape_oracle
from critic_training import train_critic
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
    backward, the reference for each step of critic_ascent's closed form."""
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


# hidden activations of random critics, depths 1-3 (the head is identity)
CRITIC_LAYERS = [[], ["relu"], ["tanh"], ["identity"], ["relu", "relu"],
                 ["tanh", "tanh"], ["identity", "identity"], ["tanh", "relu"]]


class TestCriticAscentStep:
    @pytest.mark.parametrize("gp_factor", [0.0, 5.0])
    @pytest.mark.parametrize("nb", [12, 7], ids=["equal", "unequal"])
    @pytest.mark.parametrize("hidden", CRITIC_LAYERS,
                             ids=lambda h: "-".join(h) or "linear")
    def test_matches_tape(self, hidden, nb, gp_factor):
        seed = dc.substream(71, len(hidden), *hidden, nb)
        sizes = [3] + [5] * len(hidden) + [1]
        critic = md.init_mlp(dc.substream(seed, "c"), sizes, hidden + ["identity"])
        for i, b in enumerate(critic.biases):
            b[:] = dc.rng_normal(dc.substream(seed, "b", i), b.shape, 0.0, 0.5)
        fa = dc.rng_normal(dc.substream(seed, "a"), (12, 3))
        fb = _paired(dc.rng_normal(dc.substream(seed, "fb"), (nb, 3), 0.5, 1.0),
                     12)
        closed, taped = _Recorded(), _Recorded()
        gap, pen = ob.critic_ascent(critic, closed, fa, fb, gp_factor, [9],
                                    "test")
        gap_ref, pen_ref = taped_ascent_step(critic, taped, fa, fb, gp_factor, 9)
        assert abs(gap - gap_ref) <= 1e-12 * abs(gap_ref)
        assert abs(pen - pen_ref) <= 1e-12 * abs(pen_ref)
        got = np.concatenate([g.ravel() for g in closed.grads])
        want = np.concatenate([g.ravel() for g in taped.grads])
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("head", ["tanh", "relu"])
    def test_nonlinear_head_matches_tape(self, head):
        # a tanh head sends a second-derivative term of its own
        critic = md.init_mlp(dc.substream(78, head), [3, 5, 1], ["tanh", head])
        for i, b in enumerate(critic.biases):
            b[:] = dc.rng_normal(dc.substream(78, "b", i), b.shape, 0.0, 0.5)
        fa = dc.rng_normal(dc.substream(78, "a"), (12, 3))
        fb = dc.rng_normal(dc.substream(78, "fb"), (12, 3), 0.5, 1.0)
        closed, taped = _Recorded(), _Recorded()
        gap, pen = ob.critic_ascent(critic, closed, fa, fb, 5.0, [9], "test")
        gap_ref, pen_ref = taped_ascent_step(critic, taped, fa, fb, 5.0, 9)
        assert abs(gap - gap_ref) <= 1e-12 * abs(gap_ref)
        assert abs(pen - pen_ref) <= 1e-12 * abs(pen_ref)
        want = np.concatenate([g.ravel() for g in taped.grads])
        assert np.linalg.norm(closed.grads[0] - want) <= 1e-10 * np.linalg.norm(want)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("gp_factor", [0.0, 5.0])
    @pytest.mark.parametrize("nb", [12, 7], ids=["equal", "unequal"])
    @pytest.mark.parametrize("hidden", CRITIC_LAYERS,
                             ids=lambda h: "-".join(h) or "linear")
    def test_loop_matches_taped_steps(self, hidden, nb, gp_factor, optimizer):
        # k steps in one critic_ascent against k taped steps, each taken at
        # the loop's own iterate (Adam turns rounding noise in a gradient
        # that is zero in exact arithmetic, such as the head bias's, into
        # steps of up to lr, so two separately updated critics drift apart)
        seed = dc.substream(76, len(hidden), *hidden, nb)
        sizes = [3] + [5] * len(hidden) + [1]
        critic = md.init_mlp(dc.substream(seed, "c"), sizes, hidden + ["identity"])
        for i, b in enumerate(critic.biases):
            b[:] = dc.rng_normal(dc.substream(seed, "b", i), b.shape, 0.0, 0.5)
        fa = dc.rng_normal(dc.substream(seed, "a"), (12, 3))
        fb = _paired(dc.rng_normal(dc.substream(seed, "fb"), (nb, 3), 0.5, 1.0),
                     12)
        seeds = [dc.substream(seed, "gp", kk) for kk in range(4)]
        closed = _Tee(ob._Opt([critic.flat], optimizer, 1e-2))
        gap, pen = ob.critic_ascent(critic, closed, fa, fb, gp_factor, seeds,
                                    "test")
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
        # the loop draws its interpolation points 64 steps at a time; 70
        # steps in one call equal 70 one-step calls bit for bit
        fa = dc.rng_normal(dc.substream(77, "a"), (9, 3))
        fb = dc.rng_normal(dc.substream(77, "b"), (9, 3), 0.5, 1.0)
        critic = md.init_mlp(77, [3, 6, 1], ["tanh", "identity"])
        ref = critic.copy()
        seeds = [dc.substream(77, "gp", step) for step in range(70)]
        got = ob.critic_ascent(critic, ob._Opt([critic.flat], "adam", 1e-2),
                               fa, fb, 5.0, seeds, "test")
        opt = ob._Opt([ref.flat], "adam", 1e-2)
        for s in seeds:
            want = ob.critic_ascent(ref, opt, fa, fb, 5.0, [s], "test")
        assert got == want
        assert np.array_equal(critic.flat, ref.flat)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_train_critic_matches_taped_loop(self, optimizer):
        fa = dc.rng_normal(dc.substream(72, "a"), (32, 4))
        fb = dc.rng_normal(dc.substream(72, "b"), (32, 4), 0.7, 1.0)
        critic = md.init_mlp(dc.substream(72, "c"), [4, 16, 16, 1],
                             ["tanh", "tanh", "identity"])
        critic.weights[-1][:] = 0.0
        ref = critic.copy()
        gap = train_critic(critic, fa, fb, steps=20, lr=1e-2, seed=72,
                              optimizer=optimizer)
        opt = ob._Opt(ref.arrays(), optimizer, 1e-2)
        for step in range(20):
            gap_ref, _ = taped_ascent_step(ref, opt, fa, fb, 5.0,
                                           dc.substream(72, "gp", step))
        assert abs(gap - gap_ref) <= 1e-9
        for a, b in zip(critic.arrays(), ref.arrays()):
            assert np.max(np.abs(a - b)) <= 1e-9

    @pytest.mark.parametrize("case,error,message", [
        ("empty", ValueError, "critic_ascent: empty feature batch"),
        ("unequal", dc.ShapeError,
         "critic_ascent pairs its two feature batches, got 6 and 5 rows"),
        ("out_dim", ValueError, "critic output layer must have size 1, got 2"),
        ("non_finite", ValueError,
         r"array values must be finite \(NaN/Inf rejected\)"),
        ("overflow", ob.TrainingDiverged,
         "non-finite critic loss at step 3, critic step 0"),
    ])
    def test_errors(self, case, error, message):
        critic = md.init_mlp(73, [2, 4, 1], ["tanh", "identity"])
        fa = dc.rng_normal(74, (6, 2))
        fb = dc.rng_normal(75, (6, 2))
        if case == "empty":
            fb = np.zeros((0, 2))
        elif case == "unequal":
            fb = fb[:5]
        elif case == "out_dim":
            critic = md.init_mlp(73, [2, 4, 2], ["tanh", "identity"])
        elif case == "non_finite":
            fb[2, 1] = np.nan
        else:
            critic = md.MlpParams([np.full((2, 1), 1e300)], [np.zeros(1)],
                                  ["identity"])
            fa = fa * 1e10
        before = [a.copy() for a in critic.arrays()]
        # the overflow case overflows on purpose; a mark cannot lift the
        # module's error filter, since pytest applies the module's mark last
        with pytest.raises(error, match=f"^{message}$"), \
                np.errstate(all="ignore"):
            ob.critic_ascent(critic, _Recorded(), fa, fb, 5.0, [1], "step 3")
        for a, b in zip(critic.arrays(), before):
            assert np.array_equal(a, b)


class TestOptimizer:
    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_flat_update_matches_per_array(self, optimizer):
        # _Opt updates a network's flat vector in whole-vector ops; the same
        # update written out array by array gives the same bits
        net = md.init_mlp(80, [3, 5, 4, 1], ["tanh", "relu", "identity"])
        ref = [a.copy() for a in net.arrays()]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        opt = ob._Opt([net.flat], optimizer, lr)
        for step in range(1, 8):
            grad = dc.rng_normal(dc.substream(80, step), net.flat.shape)
            opt.step([grad])
            c1, c2 = 1.0 - b1 ** step, 1.0 - b2 ** step
            ofs = 0
            for p, mi, vi in zip(ref, m, v):
                g = grad[ofs:ofs + p.size].reshape(p.shape)
                ofs += p.size
                if optimizer == "sgd":
                    p -= lr * g
                    continue
                mi *= b1
                mi += (1 - b1) * g
                vi *= b2
                vi += (1 - b2) * g * g
                p -= lr * (mi / c1) / (np.sqrt(vi / c2) + eps)
        assert [float(x).hex() for x in net.flat] == \
            [float(x).hex() for a in ref for x in a.ravel()]


def _model_step_cases():
    for schedule in ob.SCHEDULES:
        for layers in ([1, 2] if schedule == "gradual_temporal" else [1]):
            for loss in ("cross_entropy_bounded", "hinge"):
                for labeled in (True, False):
                    for optimizer in ("adam", "sgd"):
                        yield pytest.param(
                            schedule, layers, loss, labeled, optimizer,
                            id=f"{schedule}-{layers}-{loss}-"
                               f"{'labeled' if labeled else 'unlabeled'}-"
                               f"{optimizer}")


class TestModelStep:
    @pytest.mark.parametrize("schedule,layers,loss,labeled,optimizer",
                             list(_model_step_cases()))
    def test_matches_tape(self, monkeypatch, schedule, layers, loss, labeled,
                          optimizer):
        # every batch of a short schedule: the closed-form model gradient
        # against the taped one under the same, just updated, critic
        seq = dom.make_rotating_moons(3, 48, total_degrees=60.0,
                                      noise_sigma=0.1, seed=12)
        cfg = ob.TrainConfig(seed=12, epochs_per_domain=2, batch_size=16,
                             k_critic=2, lam=2.0, lr_critic=0.05,
                             optimizer=optimizer, labeled_target=labeled)
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8,
                            summarizer_hidden=6, summarizer_layers=layers)
        step = ob._primal_dual_step
        errors = []

        def checked(model, opt_model, opt_critic, xs, ys, xt, yt, cfg,
                    loss_spec, *, align, gp_seed, where):
            got = _Recorded()
            ce, gap, pen = step(model, got, opt_critic, xs, ys, xt, yt, cfg,
                                loss_spec, align=align, gp_seed=gp_seed,
                                where=where)
            ce_ref, want = tape_oracle.taped_model_step(
                model, xs, ys, xt, yt, cfg, loss_spec, align=align,
                labeled_target=align and labeled,
                temporal=align and schedule == "gradual_temporal")
            assert [g.shape for g in got.grads] == [g.shape for g in want]
            assert abs(ce - ce_ref) <= 1e-12 * ce_ref
            got_v, want_v = np.concatenate(got.grads), np.concatenate(want)
            errors.append(np.linalg.norm(got_v - want_v)
                          / np.linalg.norm(want_v))
            opt_model.step(got.grads)
            return ce, gap, pen

        monkeypatch.setattr(ob, "_primal_dual_step", checked)
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
        spec = ob.ModelSpec(feature_dim=4, hidden=8, summarizer_hidden=8,
                            summarizer_layers=2)
        for kind in ob.SCHEDULES:
            ob.train_schedule(kind, seq, cfg, spec)
        assert made == []
        dc.Tape()
        assert len(made) == 1


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
    metrics = ob._run_stage(out, source, target, cfg, align=True, stage=stage,
                            loss_spec=ob.LossSpec(), eval_batch=None)
    return out, metrics


class TestAdaptPair:
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
        cfg.optimizer = "sgd"
        spec = ob.ModelSpec(feature_dim=4, hidden=8, critic_hidden=8)
        model = ob.build_model(spec, seq.d, seq.k, seed=10)
        with pytest.raises(ob.TrainingDiverged), np.errstate(all="ignore"):
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
        assert model.summary_state.count == seq.T - 1
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
