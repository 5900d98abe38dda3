import numpy as np
import pytest

from gradshift import diffcore as dc
from gradshift.diffcore import Tape, backward, forward, rng_fill
from tape_oracle import input_gradient


def fd_scalar(build, params, h=1e-5):
    """Central finite differences of a scalar-valued builder over param arrays."""
    grads = []
    for pi in range(len(params)):
        g = np.zeros_like(params[pi])
        for i in range(params[pi].size):
            plus = [p.copy() for p in params]
            minus = [p.copy() for p in params]
            plus[pi].ravel()[i] += h
            minus[pi].ravel()[i] -= h
            g.ravel()[i] = (build(plus) - build(minus)) / (2 * h)
        grads.append(g)
    return grads


def rel_err(a, b):
    num = np.linalg.norm(np.concatenate([x.ravel() for x in a])
                         - np.concatenate([x.ravel() for x in b]))
    den = max(np.linalg.norm(np.concatenate([x.ravel() for x in b])), 1e-12)
    return num / den


class TestForward:
    def test_relu(self):
        t = Tape()
        x = t.input([-1.0, 2.0])
        y = forward(t, "relu", x)
        assert np.array_equal(t.val(y), [0.0, 2.0])

    def test_matmul_hand(self):
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        b = np.array([[1.0], [-1.0], [2.0]])
        t = Tape()
        y = forward(t, "matmul", (t.input(a), t.input(b)))
        # hand product: rows dot column
        assert np.array_equal(t.val(y), [[1 - 2 + 6], [4 - 5 + 12]])

    def test_mean(self):
        t = Tape()
        y = forward(t, "mean", t.input([1.0, 2.0, 3.0]))
        assert t.val(y) == 2.0

    def test_shape_mismatch_names_op(self):
        t = Tape()
        a = t.input(np.zeros((2, 3)))
        b = t.input(np.zeros((3, 3)))
        with pytest.raises(dc.ShapeError, match="add"):
            forward(t, "add", (a, b))
        with pytest.raises(dc.ShapeError, match="matmul"):
            forward(t, "matmul", (a, a))

    def test_unknown_primitive(self):
        t = Tape()
        x = t.input([1.0])
        with pytest.raises(ValueError, match="unknown primitive"):
            forward(t, "conv2d", x)

    def test_nonfinite_input_rejected(self):
        t = Tape()
        with pytest.raises(ValueError, match="finite"):
            t.input([np.nan])
        with pytest.raises(ValueError, match="finite"):
            t.input([np.inf, 0.0])

    def test_concat_slice_broadcast(self):
        t = Tape()
        a = t.input([1.0, 2.0])
        b = t.input([3.0])
        c = forward(t, "concat", (a, b), axis=0)
        assert np.array_equal(t.val(c), [1, 2, 3])
        s = forward(t, "slice", c, starts=[1], stops=[3])
        assert np.array_equal(t.val(s), [2, 3])
        m = forward(t, "broadcast", a, shape=(3, 2), axis=0)
        assert np.array_equal(t.val(m), [[1, 2]] * 3)
        col = forward(t, "broadcast", a, shape=(2, 4), axis=1)
        assert np.array_equal(t.val(col), [[1] * 4, [2] * 4])


class TestBackward:
    def test_power_rule(self):
        t = Tape()
        x = t.input(np.asarray(3.0))
        y = forward(t, "square", x)
        g = backward(t, y, [x])
        assert g[x] == 6.0

    def test_relu_flat_on_negatives(self):
        t = Tape()
        x = t.input([-1.0])
        y = forward(t, "sum", forward(t, "relu", x))
        assert backward(t, y, [x])[x][0] == 0.0

    def test_relu_subgradient_at_zero_is_zero(self):
        t = Tape()
        x = t.input([0.0])
        y = forward(t, "sum", forward(t, "relu", x))
        assert backward(t, y, [x])[x][0] == 0.0

    def test_nonscalar_output_rejected(self):
        t = Tape()
        x = t.input([1.0, 2.0])
        with pytest.raises(dc.TapeError, match="scalar"):
            backward(t, x, [x])

    def test_unknown_wrt_rejected(self):
        t = Tape()
        x = t.input(np.asarray(1.0))
        with pytest.raises(dc.TapeError, match="not on this tape"):
            backward(t, x, [99])

    def test_tape_unchanged_by_backward(self):
        t = Tape()
        x = t.input([1.0, -2.0])
        y = forward(t, "mean", forward(t, "square", x))
        n = len(t)
        backward(t, y, [x])
        assert len(t) == n

    def test_wrt_subset_bit_identical(self):
        # leaves outside wrt get no adjoint; the others must not change
        t = Tape()
        x = t.input(dc.rng_normal(1, (4, 3)))
        w = t.input(dc.rng_normal(2, (3, 2)))
        c = t.input(np.full((4, 2), 0.5))
        h = forward(t, "tanh", forward(t, "matmul", (x, w)))
        y = forward(t, "sum", forward(t, "mul", (h, c)))
        full = backward(t, y, [x, w, c])
        for nid in (x, w, c):
            assert np.array_equal(backward(t, y, [nid])[nid], full[nid])

    def test_mlp_gradient_vs_fd(self):
        # random 3-layer perceptron, MSE head, checked against central differences
        sizes = [(4, 8), (8, 8), (8, 2)]
        seed = 7

        def run(params):
            t = Tape()
            x = t.input(rng_fill(dc.substream(seed, "x"), (5, 4), ("normal", 0, 1)))
            tgt = t.input(rng_fill(dc.substream(seed, "t"), (5, 2), ("normal", 0, 1)))
            h = x
            pids = []
            for li in range(3):
                w = t.input(params[2 * li])
                b = t.input(params[2 * li + 1])
                pids += [w, b]
                z = forward(t, "matmul", (h, w))
                z = forward(t, "add", (z, forward(t, "broadcast", b,
                                                  shape=t.shape(z), axis=0)))
                h = forward(t, "tanh", z) if li < 2 else z
            d = forward(t, "sub", (h, tgt))
            loss = forward(t, "mean", forward(t, "square", d))
            return t, loss, pids

        params = []
        for li, (fi, fo) in enumerate(sizes):
            params.append(rng_fill(dc.substream(seed, "w", li), (fi, fo),
                                   ("normal", 0, 0.5)))
            params.append(rng_fill(dc.substream(seed, "b", li), (fo,),
                                   ("normal", 0, 0.1)))
        t, loss, pids = run(params)
        g = backward(t, loss, pids)
        ad = [g[p] for p in pids]

        def scalar(ps):
            tt, ll, _ = run(ps)
            return float(tt.val(ll))

        fd = fd_scalar(scalar, params)
        assert rel_err(ad, fd) < 1e-5


# randomized per-primitive gradient checks (scalarized through mean of square)
PRIM_CASES = [
    ("add", 2, (3, 4)),
    ("sub", 2, (3, 4)),
    ("mul", 2, (3, 4)),
    ("relu", 1, (3, 4)),
    ("tanh", 1, (3, 4)),
    ("sigmoid", 1, (3, 4)),
    ("exp", 1, (3, 4)),
    ("log", 1, (3, 4)),
    ("square", 1, (3, 4)),
    ("sqrt", 1, (3, 4)),
    ("sum", 1, (3, 4)),
    ("mean", 1, (3, 4)),
]


@pytest.mark.parametrize("op,arity,shape", PRIM_CASES)
def test_primitive_gradients_vs_fd(op, arity, shape):
    for trial in range(100):
        seed = dc.substream(1234, op, trial)
        shape = (2, 3)

        def make(i):
            x = rng_fill(dc.substream(seed, i), shape, ("normal", 0, 1))
            if op in ("log", "sqrt"):
                x = np.abs(x) + 0.5
            return x

        params = [make(i) for i in range(arity)]

        def scalar(ps):
            t = Tape()
            ids = [t.input(p) for p in ps]
            y = forward(t, op, ids if arity > 1 else ids[0])
            out = forward(t, "mean", forward(t, "square", y))
            return float(t.val(out))

        t = Tape()
        ids = [t.input(p) for p in params]
        y = forward(t, op, ids if arity > 1 else ids[0])
        out = forward(t, "mean", forward(t, "square", y))
        g = backward(t, out, ids)
        assert rel_err([g[i] for i in ids], fd_scalar(scalar, params)) < 1e-5


@pytest.mark.parametrize("op,kw", [
    ("matmul", {}),
    ("sum_axis0", {}),
    ("sum_axis1", {}),
    ("mean_axis0", {}),
    ("concat", {}),
    ("slice", {}),
    ("broadcast0", {}),
    ("broadcast1", {}),
])
def test_structural_gradients_vs_fd(op, kw):
    seed = dc.substream(99, op)

    def build(ps, record=False):
        t = Tape()
        ids = [t.input(p) for p in ps]
        if op == "matmul":
            y = forward(t, "matmul", ids)
        elif op == "concat":
            y = forward(t, "concat", ids, axis=1)
        elif op == "slice":
            y = forward(t, "slice", ids[0], starts=[1, 0], stops=[3, 2])
        elif op == "broadcast0":
            y = forward(t, "broadcast", ids[0], shape=(4, ps[0].shape[0]), axis=0)
        elif op == "broadcast1":
            y = forward(t, "broadcast", ids[0], shape=(ps[0].shape[0], 4), axis=1)
        else:
            kind, ax = op.split("_axis")
            y = forward(t, kind, ids[0], axis=int(ax))
        out = forward(t, "mean", forward(t, "square", y))
        return (t, out, ids) if record else float(t.val(out))

    if op == "matmul":
        params = [rng_fill(dc.substream(seed, 0), (3, 4), ("normal", 0, 1)),
                  rng_fill(dc.substream(seed, 1), (4, 2), ("normal", 0, 1))]
    elif op == "concat":
        params = [rng_fill(dc.substream(seed, 0), (3, 2), ("normal", 0, 1)),
                  rng_fill(dc.substream(seed, 1), (3, 3), ("normal", 0, 1))]
    elif op in ("broadcast0", "broadcast1"):
        params = [rng_fill(dc.substream(seed, 0), (3,), ("normal", 0, 1))]
    else:
        params = [rng_fill(dc.substream(seed, 0), (3, 4), ("normal", 0, 1))]
    t, out, ids = build(params, record=True)
    g = backward(t, out, ids)
    assert rel_err([g[i] for i in ids], fd_scalar(lambda ps: build(ps), params)) < 1e-5


class TestInputGradient:
    def test_linear_critic_gives_weights(self):
        w = np.array([[1.5], [-2.0], [0.5]])
        x = np.array([[0.3, 0.1, -0.7], [1.0, 2.0, 3.0]])
        t = Tape()
        xid = t.input(x)
        wid = t.input(w)
        out = forward(t, "sum", forward(t, "matmul", (xid, wid)))
        gid = input_gradient(t, out, xid)
        assert np.allclose(t.val(gid), np.broadcast_to(w.ravel(), x.shape),
                           atol=0, rtol=0)

    def test_quadratic_gives_x(self):
        x = np.array([1.0, -2.0, 0.5])
        t = Tape()
        xid = t.input(x)
        half = t.input(np.asarray(0.5))
        out = forward(t, "mul", (forward(t, "sum", forward(t, "square", xid)), half))
        gid = input_gradient(t, out, xid)
        assert np.array_equal(t.val(gid), x)

    def test_second_nesting_rejected(self):
        t = Tape()
        x = t.input([1.0, 2.0])
        out = forward(t, "sum", forward(t, "square", x))
        g = input_gradient(t, out, x)
        s = forward(t, "sum", forward(t, "square", g))
        with pytest.raises(dc.TapeError, match="nesting limit"):
            input_gradient(t, s, x)

    def test_non_leaf_rejected(self):
        t = Tape()
        x = t.input([1.0])
        y = forward(t, "square", x)
        s = forward(t, "sum", y)
        with pytest.raises(dc.TapeError, match="leaf"):
            input_gradient(t, s, y)

    def test_penalty_parameter_gradient_vs_fd(self):
        # 2-layer critic; differentiate (||grad_x f||-1)^2 w.r.t. weights
        seed = 21
        x = rng_fill(dc.substream(seed, "x"), (6, 3), ("normal", 0, 1))

        def build(ps):
            w1, b1, w2 = ps
            t = Tape()
            xid = t.input(x)
            w1id, b1id, w2id = t.input(w1), t.input(b1), t.input(w2)
            z = forward(t, "matmul", (xid, w1id))
            z = forward(t, "add", (z, forward(t, "broadcast", b1id,
                                              shape=t.shape(z), axis=0)))
            h = forward(t, "tanh", z)
            o = forward(t, "matmul", (h, w2id))
            s = forward(t, "sum", o)
            gid = input_gradient(t, s, xid)
            sq = forward(t, "sum", forward(t, "square", gid), axis=1)
            norms = forward(t, "sqrt", sq)
            ones = t.input(np.ones(x.shape[0]))
            pen = forward(t, "mean", forward(t, "square",
                                             forward(t, "sub", (norms, ones))))
            return t, pen, [w1id, b1id, w2id]

        params = [rng_fill(dc.substream(seed, "w1"), (3, 5), ("normal", 0, 0.8)),
                  rng_fill(dc.substream(seed, "b1"), (5,), ("normal", 0, 0.2)),
                  rng_fill(dc.substream(seed, "w2"), (5, 1), ("normal", 0, 0.8))]
        t, pen, pids = build(params)
        g = backward(t, pen, pids)
        fd = fd_scalar(lambda ps: (lambda r: float(r[0].val(r[1])))(build(ps)), params)
        assert rel_err([g[p] for p in pids], fd) < 1e-4


class TestRng:
    def test_determinism(self):
        a = rng_fill(5, (4, 3), ("uniform", -1, 1))
        b = rng_fill(5, (4, 3), ("uniform", -1, 1))
        assert np.array_equal(a, b)

    def test_zero_variance_normal(self):
        assert np.array_equal(rng_fill(9, (100,), ("normal", 0, 0)), np.zeros(100))

    def test_normal_mean_lln(self):
        z = rng_fill(123, (100000,), ("normal", 0, 1))
        assert abs(z.mean()) < 0.02

    def test_uniform_bounds(self):
        u = rng_fill(3, (10000,), ("uniform", 2.0, 5.0))
        assert u.min() >= 2.0 and u.max() < 5.0

    def test_bad_params(self):
        with pytest.raises(ValueError):
            rng_fill(0, (2,), ("uniform", 1.0, 0.0))
        with pytest.raises(ValueError):
            rng_fill(0, (2,), ("normal", 0.0, -1.0))

    def test_substream_order_sensitive(self):
        assert dc.substream(7, "a", 1) != dc.substream(7, 1, "a")

    @pytest.mark.parametrize("seed,want", [
        (0, [18394905722114103887, 17824971123127853533, 3981890831246442756,
             11459064407607986843, 0]),
        (2 ** 64 - 1, [15762913138612538069, 17519071339639777313,
                       10701626305488384819, 13209434657261796193,
                       2 ** 64 - 1]),
    ], ids=["0", "2^64-1"])
    def test_substream_golden(self, seed, want):
        # fixed stream ids: string tags are hashed once and remembered, and
        # that must not change any id
        for _ in range(2):
            got = [dc.substream(seed, "gp_u"), dc.substream(seed, 7),
                   dc.substream(seed, "gp", 3, "x"),
                   dc.substream(seed, 2 ** 64 - 1, "w", -1), dc.substream(seed)]
            assert got == want

    def test_uniform_rows_match_per_seed_draws(self):
        seeds = [0, 2 ** 64 - 1] + [dc.substream(s, "gp_u")
                                    for s in (0, 1, 2 ** 64 - 1,
                                              dc.substream(5, "gp", 3))]
        rows = dc.uniform_rows(seeds, 9)
        assert rows.shape == (len(seeds), 9)
        for s, row in zip(seeds, rows):
            want = dc.rng_uniform(s, (9, 1))
            assert [float(x).hex() for x in row] == \
                [float(x).hex() for x in want.ravel()]

    @pytest.mark.parametrize("n", [1, 6, 9])
    @pytest.mark.parametrize("count", [1, 5])
    def test_normal_rows_match_per_seed_draws(self, n, count):
        seeds = [dc.substream(3, "trial", i) for i in range(count)]
        rows = dc.normal_rows(seeds, n)
        assert rows.shape == (count, n)
        for s, row in zip(seeds, rows):
            assert [float(x).hex() for x in row] == \
                [float(x).hex() for x in dc.rng_normal(s, (n,))]

    def test_permutation(self):
        p = dc.rng_permutation(11, 50)
        assert sorted(p.tolist()) == list(range(50))
        assert np.array_equal(p, dc.rng_permutation(11, 50))


def replay(tape: Tape) -> bool:
    """Recompute every non-leaf value from its inputs; True if bit-identical."""
    for node in tape.nodes:
        if node.op == "input":
            continue
        vals = [tape.nodes[i].value for i in node.inputs]
        redo = np.asarray(dc._compute(node.op, vals, node.aux), dtype=np.float64)
        if redo.shape != node.value.shape or not np.array_equal(redo, node.value):
            return False
    return True


def test_replay_bit_exact():
    t = Tape()
    x = t.input(rng_fill(1, (4, 4), ("normal", 0, 1)))
    w = t.input(rng_fill(2, (4, 2), ("normal", 0, 1)))
    y = forward(t, "tanh", forward(t, "matmul", (x, w)))
    forward(t, "mean", forward(t, "square", y))
    assert replay(t)


def test_gradients_bit_identical_across_runs():
    def run():
        t = Tape()
        x = t.input(rng_fill(7, (5, 3), ("normal", 0, 1)))
        w = t.input(rng_fill(8, (3, 2), ("normal", 0, 1)))
        y = forward(t, "sigmoid", forward(t, "matmul", (x, w)))
        out = forward(t, "mean", forward(t, "square", y))
        return backward(t, out, [x, w]), x, w

    (g1, x1, w1), (g2, x2, w2) = run(), run()
    assert np.array_equal(g1[x1], g2[x2])
    assert np.array_equal(g1[w1], g2[w2])
