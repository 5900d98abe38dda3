import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift import models as md
from gradshift.diffcore import Tape, backward, forward
from tape_oracle import BoundRecurrent, critic_forward, summarize_step


class TestInitMlp:
    def test_deterministic(self):
        a = md.init_mlp(3, [2, 4, 2])
        b = md.init_mlp(3, [2, 4, 2])
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)

    def test_biases_zero(self):
        p = md.init_mlp(0, [5, 7, 3], ["tanh", "identity"])
        assert all(np.array_equal(b, np.zeros_like(b)) for b in p.biases)

    def test_glorot_bound(self):
        p = md.init_mlp(11, [100, 100])
        bound = np.sqrt(6.0 / 200.0)
        assert np.all(np.abs(p.weights[0]) <= bound)
        assert np.abs(p.weights[0]).max() > 0.9 * bound  # actually fills the range

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            md.init_mlp(0, [4])

    def test_bad_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            md.MlpParams([np.zeros((2, 3)), np.zeros((4, 1))],
                         [np.zeros(3), np.zeros(1)], ["relu", "identity"])


class TestLayerBlocks:
    def test_blocks_are_views_of_stacked_layers(self):
        # each layer's [W; b] block is a zero-copy view of flat; a reorder of
        # arrays() would break the bias-folded kernels
        p = md.init_mlp(18, [3, 5, 4, 2], ["tanh", "relu", "identity"])
        for i, b in enumerate(p.biases):
            b[:] = dc.rng_normal(dc.substream(18, i), b.shape)
        blocks = p.blocks()
        assert len(blocks) == 3
        for blk, w, b in zip(blocks, p.weights, p.biases):
            assert blk.shape == (w.shape[0] + 1, w.shape[1])
            assert np.array_equal(blk, np.vstack([w, b]))
            assert np.shares_memory(blk, p.flat)
        vec = np.arange(p.flat.size, dtype=np.float64)
        ofs, want = 0, []
        for a in p.arrays():
            want.append(vec[ofs:ofs + a.size].reshape(a.shape))
            ofs += a.size
        for blk, w, b in zip(p.blocks(vec), want[0::2], want[1::2]):
            assert np.array_equal(blk, np.vstack([w, b]))

    def test_feature_block(self):
        x = dc.rng_normal(19, (4, 3))
        a = md.feature_block(x)
        assert a.shape == (4, 4)
        assert np.array_equal(a[:3], x.T) and np.array_equal(a[3], np.ones(4))
        p = md.init_mlp(20, [3, 6, 2], ["relu", "identity"])
        outs = md.mlp_layers(p, a)
        assert [o.shape for o in outs] == [(4, 4), (7, 4), (3, 4)]
        assert all(np.array_equal(o[-1], np.ones(4)) for o in outs)
        assert np.array_equal(md.mlp_eval(p, x), outs[-1][:-1].T)


class TestForwards:
    def test_identity_map(self):
        p = md.MlpParams([np.eye(3)], [np.zeros(3)], ["identity"])
        x = dc.rng_normal(4, (5, 3))
        t = Tape()
        out = md.BoundMlp(t, p)(t.input(x))
        assert np.array_equal(t.val(out), x)

    def test_zero_weights_zero_features(self):
        p = md.MlpParams([np.zeros((3, 4))], [np.zeros(4)], ["relu"])
        t = Tape()
        out = md.BoundMlp(t, p)(t.input(dc.rng_normal(0, (6, 3))))
        assert np.array_equal(t.val(out), np.zeros((6, 4)))

    def test_vs_hand_rolled_forward(self):
        p = md.init_mlp(8, [2, 8, 4], ["relu", "identity"])
        x = dc.rng_normal(9, (7, 2))
        t = Tape()
        out = t.val(md.BoundMlp(t, p)(t.input(x)))
        # independent forward, written out by hand
        h = np.maximum(x @ p.weights[0] + p.biases[0], 0.0)
        ref = h @ p.weights[1] + p.biases[1]
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_zero_classifier_uniform_softmax(self):
        h = md.MlpParams([np.zeros((4, 3))], [np.zeros(3)], ["identity"])
        t = Tape()
        logits = t.val(md.BoundMlp(t, h)(t.input(dc.rng_normal(1, (5, 4)))))
        assert np.array_equal(logits, np.zeros((5, 3)))
        sm = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        assert np.allclose(sm, 1.0 / 3.0)

    def test_argmax_flips(self):
        assert np.argmax([2.0, 0.0]) != np.argmax([0.0, 2.0])

    def test_composition_equals_fused(self):
        g = md.init_mlp(5, [3, 8, 4], ["relu", "tanh"])
        h = md.init_mlp(6, [4, 6, 2], ["relu", "identity"])
        x = dc.rng_normal(7, (9, 3))
        t = Tape()
        composed = t.val(md.BoundMlp(t, h)(md.BoundMlp(t, g)(t.input(x))))
        fused = md.MlpParams(g.weights + h.weights, g.biases + h.biases,
                             g.activations + h.activations)
        t2 = Tape()
        mono = t2.val(md.BoundMlp(t2, fused)(t2.input(x)))
        assert np.max(np.abs(composed - mono)) < 1e-12
        assert np.max(np.abs(composed - md.mlp_eval(fused, x))) < 1e-12

    def test_critic_shapes(self):
        c = md.init_mlp(2, [4, 8, 1], ["tanh", "identity"])
        t = Tape()
        out = critic_forward(c, dc.rng_normal(3, (6, 4)), t)
        assert t.shape(out) == (6,)

    def test_linear_critic_dot_products(self):
        w = dc.rng_normal(1, (4, 1))
        c = md.MlpParams([w], [np.zeros(1)], ["identity"])
        x = dc.rng_normal(2, (5, 4))
        t = Tape()
        assert np.allclose(t.val(critic_forward(c, x, t)), x @ w.ravel(),
                           atol=1e-15)

    def test_constant_critic(self):
        c = md.MlpParams([np.zeros((3, 1))], [np.full(1, 2.5)], ["identity"])
        t = Tape()
        assert np.array_equal(t.val(critic_forward(c, np.ones((4, 3)), t)),
                              np.full(4, 2.5))

    def test_critic_gap_identical_batches(self):
        c = md.init_mlp(4, [3, 5, 1], ["relu", "identity"])
        x = dc.rng_normal(5, (8, 3))
        t = Tape()
        a = t.val(critic_forward(c, x, t))
        b = t.val(critic_forward(c, x, t))
        assert a.mean() - b.mean() == 0.0

    def test_wrong_critic_width_rejected(self):
        c = md.init_mlp(0, [3, 4, 2])
        with pytest.raises(ValueError, match="size 1"):
            critic_forward(c, np.zeros((2, 3)), Tape())

    def test_forward_gradients_vs_fd(self):
        g = md.init_mlp(12, [3, 6, 4], ["tanh", "identity"])
        x = dc.rng_normal(13, (5, 3))

        def scalar(params_flat):
            p = md.MlpParams([params_flat[0], params_flat[2]],
                             [params_flat[1], params_flat[3]],
                             ["tanh", "identity"])
            t = Tape()
            out = md.BoundMlp(t, p)(t.input(x))
            return float(t.val(forward(t, "mean", forward(t, "square", out))))

        t = Tape()
        bound = md.BoundMlp(t, g)
        out = bound(t.input(x))
        loss = forward(t, "mean", forward(t, "square", out))
        grads = backward(t, loss, bound.param_ids())
        from test_diffcore import fd_scalar, rel_err
        fd = fd_scalar(scalar, g.arrays())
        assert rel_err([grads[i] for i in bound.param_ids()], fd) < 1e-5

    @pytest.mark.parametrize("acts", [["identity"], ["relu", "identity"],
                                      ["tanh", "relu", "tanh"]])
    def test_backward_matches_tape(self, acts):
        sizes = [3] + [5] * (len(acts) - 1) + [2]
        p = md.init_mlp(dc.substream(14, len(acts)), sizes, acts)
        for i, b in enumerate(p.biases):
            b[:] = dc.rng_normal(dc.substream(15, i), b.shape, 0.0, 0.5)
        x = dc.rng_normal(16, (7, 3))
        d_out = dc.rng_normal(17, (7, 2))
        d_x, grad = md.mlp_backward(p, md.mlp_layers(p, md.feature_block(x)),
                                    d_out.T)
        t = Tape()
        xid = t.input(x)
        bound = md.BoundMlp(t, p)
        loss = forward(t, "sum", forward(t, "mul", (bound(xid), t.input(d_out))))
        g = backward(t, loss, bound.param_ids() + [xid])
        want = np.concatenate([g[i].ravel() for i in bound.param_ids()])
        assert np.linalg.norm(grad - want) <= 1e-12 * np.linalg.norm(want)
        assert np.linalg.norm(d_x.T - g[xid]) <= 1e-12 * np.linalg.norm(g[xid])
        # each half alone: the same bits, and None for the other
        outs = md.mlp_layers(p, md.feature_block(x))
        no_x, only_p = md.mlp_backward(p, outs, d_out.T, to_input=False)
        only_x, no_p = md.mlp_backward(p, outs, d_out.T, to_params=False)
        assert no_x is None and no_p is None
        assert np.array_equal(only_p, grad) and np.array_equal(only_x, d_x)


class TestSummarizer:
    @pytest.mark.parametrize("layers", [1, 2])
    def test_closed_form_matches_tape(self, layers):
        r = md.init_recurrent(31, 3, 4, layers, 3)
        for i, a in enumerate(r.arrays()):
            a += dc.rng_normal(dc.substream(32, i), a.shape, 0.0, 0.3)
        state = md.SummaryState([dc.rng_normal(dc.substream(33, i), (4,))
                                 for i in range(layers)], 2)
        x = dc.rng_normal(34, (3,))
        w = dc.rng_normal(35, (3,))
        new, readout, cache = md.gru_step(r, state, x)
        grad, d_x = md.gru_backward(r, cache, w)
        t = Tape()
        xid = t.input(x)
        bound = BoundRecurrent(t, r)
        ref_state, ref_read = summarize_step(r, state, xid, t, bound=bound)
        assert np.max(np.abs(readout - t.val(ref_read))) < 1e-12
        for a, b in zip(new.hidden, ref_state.hidden):
            assert np.max(np.abs(a - b)) < 1e-12
        assert new.count == 3
        loss = forward(t, "sum", forward(t, "mul", (ref_read, t.input(w))))
        g = backward(t, loss, bound.param_ids() + [xid])
        want = np.concatenate([g[i].ravel() for i in bound.param_ids()])
        assert np.linalg.norm(grad - want) <= 1e-10 * np.linalg.norm(want)
        assert np.linalg.norm(d_x - g[xid]) <= 1e-10 * np.linalg.norm(g[xid])

    def test_zero_params_halves_state(self):
        r = md.init_recurrent(0, 4, 3, 1, 4)
        for lay in r.layers:
            lay.w_z[:] = 0; lay.w_r[:] = 0; lay.w_h[:] = 0
        state = md.SummaryState([np.array([1.0, -2.0, 4.0])], 0)
        t = Tape()
        new_state, _ = summarize_step(r, state, t.input(np.zeros(4)), t)
        assert np.allclose(new_state.hidden[0], [0.5, -1.0, 2.0])
        assert new_state.count == 1

    def test_deterministic(self):
        r = md.init_recurrent(5, 4, 3, 2, 4)
        state = md.fresh_state(r)
        x = dc.rng_normal(1, (4,))
        t1, t2 = Tape(), Tape()
        s1, r1 = summarize_step(r, state, t1.input(x), t1)
        s2, r2 = summarize_step(r, state, t2.input(x), t2)
        assert np.array_equal(t1.val(r1), t2.val(r2))
        for a, b in zip(s1.hidden, s2.hidden):
            assert np.array_equal(a, b)

    def test_vs_scalar_reimplementation(self):
        # independently re-derive the gate equations with plain numpy
        r = md.init_recurrent(77, 3, 5, 2, 3)
        state = md.SummaryState([dc.rng_normal(10, (5,)), dc.rng_normal(11, (5,))], 2)
        x = dc.rng_normal(12, (3,))
        t = Tape()
        got_state, read = summarize_step(r, state, t.input(x), t)
        got_read = t.val(read)

        def sigma(v):
            return np.where(v >= 0, 1.0 / (1.0 + np.exp(-v)),
                            np.exp(v) / (1.0 + np.exp(v)))

        inp = x
        ref_hidden = []
        for lay, s in zip(r.layers, state.hidden):
            sx = np.concatenate([s, inp])
            z = sigma(sx @ lay.w_z + lay.b_z)
            rr = sigma(sx @ lay.w_r + lay.b_r)
            cand = np.tanh(np.concatenate([rr * s, inp]) @ lay.w_h + lay.b_h)
            s_new = (1.0 - z) * s + z * cand
            ref_hidden.append(s_new)
            inp = s_new
        ref_read = ref_hidden[-1] @ r.w_out + r.b_out
        for a, b in zip(got_state.hidden, ref_hidden):
            assert np.max(np.abs(a - b)) < 1e-12
        assert np.max(np.abs(got_read - ref_read)) < 1e-12
        assert got_state.count == 3

    def test_dimension_mismatch(self):
        r = md.init_recurrent(0, 4, 3, 1, 4)
        t = Tape()
        with pytest.raises(ValueError, match="input size"):
            summarize_step(r, md.fresh_state(r), t.input(np.zeros(5)), t)

    def test_on_tape_differentiable(self):
        r = md.init_recurrent(3, 3, 4, 1, 3)
        state = md.fresh_state(r)
        x = dc.rng_normal(8, (3,))
        t = Tape()
        xid = t.input(x)
        bound = BoundRecurrent(t, r)
        _, readout = summarize_step(r, state, xid, t, bound=bound)
        loss = forward(t, "sum", forward(t, "square", readout))
        grads = backward(t, loss, bound.param_ids() + [xid])
        assert any(np.linalg.norm(grads[i]) > 0 for i in bound.param_ids())
        assert np.linalg.norm(grads[xid]) > 0

    def test_parameter_gradients_vs_fd(self):
        from test_diffcore import fd_scalar, rel_err
        state = md.SummaryState([dc.rng_normal(20, (3,))], 1)
        x = dc.rng_normal(21, (2,))
        base = md.init_recurrent(22, 2, 3, 1, 2)

        def build(arrays):
            lay = md.GruLayer(*arrays[:6])
            r = md.RecurrentParams([lay], arrays[6], arrays[7], 3, 2)
            t = Tape()
            b = BoundRecurrent(t, r)
            _, readout = summarize_step(r, state, t.input(x), t, bound=b)
            loss = forward(t, "sum", forward(t, "square", readout))
            return t, loss, b

        t, loss, b = build(base.arrays())
        grads = backward(t, loss, b.param_ids())
        fd = fd_scalar(lambda ps: (lambda r: float(r[0].val(r[1])))(build(ps)),
                       base.arrays())
        assert rel_err([grads[i] for i in b.param_ids()], fd) < 1e-5
