"""Taped forms of the training computations: the gradient oracle.

Training computes every gradient in closed form with numpy. The functions
here record the same computations on a `diffcore` tape, so `backward` (and,
for the gradient penalty, one nested `input_gradient` pass) gives the
reference gradients the closed forms are held to.
"""

from __future__ import annotations

import numpy as np

from gradshift import diffcore as dc
from gradshift import models as md
from gradshift import objectives as ob
from gradshift.diffcore import Tape, TapeError, backward, forward


# ---------------------------------------------------------------------------
# nested input gradient

def _ancestors(tape: Tape, root: int) -> set:
    seen = {root}
    stack = [root]
    while stack:
        for nid in tape.nodes[stack.pop()].inputs:
            if nid not in seen:
                seen.add(nid)
                stack.append(nid)
    return seen


def input_gradient(tape: Tape, scalar_output: int, wrt_input: int) -> int:
    """Record the gradient of a scalar node w.r.t. a leaf as new tape nodes.

    The returned node holds the input-gradient array and, because the adjoint
    computation was itself recorded, `backward` can differentiate through it
    once (e.g. a gradient-penalty scalar w.r.t. network parameters). Exactly
    one nesting level is supported: the nodes a pass records are kept in
    `tape.grad_pass_nodes`, and a pass over any of them is refused.
    """
    tape._check_id(scalar_output)
    tape._check_id(wrt_input)
    nodes = tape.nodes
    if nodes[scalar_output].value.shape != ():
        raise TapeError("input_gradient requires a scalar output node")
    if nodes[wrt_input].op != "input":
        raise TapeError("wrt_input must be a leaf input node")
    done = getattr(tape, "grad_pass_nodes", set())
    anc = _ancestors(tape, scalar_output)
    if anc & done:
        raise TapeError("second-order nesting limit is one")
    # nodes both reachable from the leaf and feeding the output
    desc = {wrt_input}
    for nid in range(wrt_input + 1, scalar_output + 1):
        if any(i in desc for i in nodes[nid].inputs):
            desc.add(nid)
    live = desc & anc
    first = len(nodes)
    try:
        if scalar_output not in live:
            return tape.input(np.zeros(nodes[wrt_input].value.shape))
        adj = {scalar_output: tape.input(np.ones(()))}
        for nid in sorted(live, reverse=True):
            if nid not in adj or nodes[nid].op == "input":
                continue
            for in_id, contrib in _vjp_symbolic(tape, nid, adj[nid],
                                                live.__contains__):
                adj[in_id] = forward(tape, "add", (adj[in_id], contrib)) \
                    if in_id in adj else contrib
        return adj[wrt_input]
    finally:
        tape.grad_pass_nodes = done | set(range(first, len(nodes)))


def _transpose(tape: Tape, x: int) -> int:
    """x^T from public primitives: each row of x, summed to a vector and
    broadcast to a column. Every value is an exact copy."""
    p, q = tape.shape(x)
    cols = [forward(tape, "broadcast", forward(
        tape, "sum", forward(tape, "slice", x, starts=[i, 0], stops=[i + 1, q]),
        axis=0), shape=(q, 1), axis=1) for i in range(p)]
    return forward(tape, "concat", cols, axis=1)


def _vjp_symbolic(tape: Tape, nid: int, g: int, wanted):
    """Adjoint contributions of node nid as tape nodes (mirrors
    diffcore._vjp_numeric for the ops a critic records). A live node's single
    input is live, so only binary ops and concat consult wanted."""
    node = tape.nodes[nid]
    op, ids, aux = node.op, node.inputs, node.aux
    f = forward
    const = tape.input

    def neg(x):
        return f(tape, "sub", (const(np.zeros(tape.shape(x))), x))

    if op in ("add", "sub", "mul", "matmul"):
        a, b = ids
        out = []
        if wanted(a):
            out.append((a, f(tape, "matmul", (g, _transpose(tape, b)))
                        if op == "matmul" else
                        f(tape, "mul", (g, b)) if op == "mul" else g))
        if wanted(b):
            out.append((b, f(tape, "matmul", (_transpose(tape, a), g))
                        if op == "matmul" else f(tape, "mul", (g, a))
                        if op == "mul" else neg(g) if op == "sub" else g))
        return out
    if op == "relu":
        # mask is piecewise constant in the input, so a detached leaf is the
        # exact a.e. derivative for the second-order pass as well
        mask = const((tape.nodes[ids[0]].value > 0).astype(np.float64))
        return [(ids[0], f(tape, "mul", (g, mask)))]
    if op == "tanh":
        one = const(np.ones(tape.shape(nid)))
        d = f(tape, "sub", (one, f(tape, "square", (nid,))))
        return [(ids[0], f(tape, "mul", (g, d)))]
    if op == "sigmoid":
        one = const(np.ones(tape.shape(nid)))
        d = f(tape, "mul", (nid, f(tape, "sub", (one, nid))))
        return [(ids[0], f(tape, "mul", (g, d)))]
    if op == "exp":
        return [(ids[0], f(tape, "mul", (g, nid)))]
    if op == "square":
        two_x = f(tape, "mul", (const(np.full(tape.shape(ids[0]), 2.0)), ids[0]))
        return [(ids[0], f(tape, "mul", (g, two_x)))]
    if op in ("sum", "mean"):
        x_shape = tape.shape(ids[0])
        axis = aux
        if op == "mean":
            n = (int(np.prod(x_shape)) if axis is None else x_shape[axis])
            g = f(tape, "mul", (g, const(np.full(tape.shape(g), 1.0 / n))))
        return [(ids[0], f(tape, "broadcast", (g,), shape=x_shape, axis=axis))]
    if op == "broadcast":
        axis = None if tape.shape(ids[0]) == () else aux[1]
        return [(ids[0], f(tape, "sum", (g,), axis=axis))]
    if op == "concat":
        outs = []
        ofs = 0
        gshape = tape.shape(g)
        for i in ids:
            starts = [0] * len(gshape)
            stops = list(gshape)
            starts[aux] = ofs
            stops[aux] = ofs + tape.shape(i)[aux]
            if wanted(i):
                outs.append((i, f(tape, "slice", (g,), starts=starts,
                                  stops=stops)))
            ofs = stops[aux]
        return outs
    raise TapeError(f"no symbolic gradient rule for {op!r}")


# ---------------------------------------------------------------------------
# taped losses, critic terms and summarizer

def critic_forward(c: md.MlpParams, features, tape: Tape, *,
                   bound: md.BoundMlp | None = None) -> int:
    """One scalar per row; the final layer must have width 1."""
    if c.out_dim != 1:
        raise ValueError(f"critic output layer must have size 1, got {c.out_dim}")
    b = bound if bound is not None else md.BoundMlp(tape, c)
    out = b(features if isinstance(features, (int, np.integer))
            else tape.input(features))
    # (n,1) -> (n,) without a reshape primitive
    return forward(tape, "sum", out, axis=1)


def loss_eval(spec: ob.LossSpec, logits, labels, tape: Tape):
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


def alignment_gap(critic: md.MlpParams, features_a, features_b, tape: Tape,
                  *, bound: md.BoundMlp | None = None) -> int:
    """Mean critic value on features_a minus mean on features_b (tape node)."""
    b = bound if bound is not None else md.BoundMlp(tape, critic)
    for f in (features_a, features_b):
        shp = tape.shape(f) if isinstance(f, (int, np.integer)) else np.shape(f)
        if shp[0] == 0:
            raise ValueError("alignment_gap: empty feature batch")
    ca = critic_forward(critic, features_a, tape, bound=b)
    cb = critic_forward(critic, features_b, tape, bound=b)
    return forward(tape, "sub", (forward(tape, "mean", ca),
                                 forward(tape, "mean", cb)))


def interpolates(fa: np.ndarray, fb: np.ndarray, seed: int) -> np.ndarray:
    """Per-row random points between two paired feature batches, one scalar
    draw per row from stream substream(seed, "gp_u"): the penalty's points
    at the draws a training stage makes for a critic step with that seed."""
    u = dc.rng_uniform(dc.substream(seed, "gp_u"), (fa.shape[0], 1))
    return u * fa + (1.0 - u) * fb


def gradient_penalty(critic: md.MlpParams, features_a, features_b, tape: Tape,
                     seed: int, *, bound: md.BoundMlp | None = None) -> int:
    """Mean (||grad_x critic(x_hat)|| - 1)^2 over per-row random interpolates.

    The features are fixed arrays and the interpolates leaves; gradients flow
    to the critic parameters through the recorded input-gradient computation.
    """
    xh = interpolates(np.asarray(features_a, dtype=np.float64),
                      np.asarray(features_b, dtype=np.float64), seed)
    n = xh.shape[0]
    x_node = tape.input(xh)
    b = bound if bound is not None else md.BoundMlp(tape, critic)
    out = critic_forward(critic, x_node, tape, bound=b)
    total = forward(tape, "sum", out)
    grad_node = input_gradient(tape, total, x_node)
    sq = forward(tape, "sum", forward(tape, "square", grad_node), axis=1)
    # 1e-24 floor keeps sqrt differentiable at an exactly-zero gradient row
    # without perturbing any realistic norm (x + 1e-24 == x for x >= 1e-8)
    sq = forward(tape, "add", (sq, tape.input(np.full(n, 1e-24))))
    norms = forward(tape, "sqrt", sq)
    ones = tape.input(np.ones(n))
    return forward(tape, "mean", forward(tape, "square",
                                         forward(tape, "sub", (norms, ones))))


class BoundRecurrent:
    """RecurrentParams registered as leaves on one tape."""

    def __init__(self, tape: Tape, params: md.RecurrentParams):
        self.tape = tape
        self.params = params
        self.ids = [tape.input(a) for a in params.arrays()]

    def param_ids(self) -> list[int]:
        return list(self.ids)

    def step(self, s: int, x_row: int) -> tuple[int, int]:
        """One gated update on (1, dim) rows; returns the new state row and
        the (1, out_dim) readout row."""
        t = self.tape
        wz, wr, wh, bz, br, bh, w_out, b_out = self.ids

        def affine(a, w, b):
            z = forward(t, "matmul", (a, w))
            return forward(t, "add", (z, forward(t, "broadcast", b,
                                                 shape=t.shape(z), axis=0)))

        sx = forward(t, "concat", (s, x_row), axis=1)
        z = forward(t, "sigmoid", affine(sx, wz, bz))
        r = forward(t, "sigmoid", affine(sx, wr, br))
        rsx = forward(t, "concat", (forward(t, "mul", (r, s)), x_row), axis=1)
        cand = forward(t, "tanh", affine(rsx, wh, bh))
        one = t.input(np.ones(t.shape(z)))
        keep = forward(t, "mul", (forward(t, "sub", (one, z)), s))
        new_s = forward(t, "add", (keep, forward(t, "mul", (z, cand))))
        return new_s, affine(new_s, w_out, b_out)


def summarize_step(r: md.RecurrentParams, state: np.ndarray, x: int,
                   tape: Tape, *, bound: BoundRecurrent | None = None):
    """Absorb one domain's mean feature vector, the (input_size,) node x, into
    the (hidden,) recurrent state on the tape. Returns (new state, readout
    node), differentiable w.r.t. the summarizer parameters and x."""
    if tape.shape(x) != (r.input_size,):
        raise ValueError(f"summary vector shape {tape.shape(x)} does not "
                         f"match summarizer input size {r.input_size}")
    x_row = forward(tape, "broadcast", x, shape=(1, r.input_size), axis=0)
    b = bound if bound is not None else BoundRecurrent(tape, r)
    s_row = forward(tape, "broadcast", tape.input(state), shape=(1, r.hidden),
                    axis=0)
    new_row, readout_row = b.step(s_row, x_row)
    # (1, d) -> (d,) squeeze
    new_state = tape.val(forward(tape, "sum", new_row, axis=0)).copy()
    return new_state, forward(tape, "sum", readout_row, axis=0)


# ---------------------------------------------------------------------------
# the model half of a primal-dual step

def taped_model_step(model: ob.AdaptationModel, xs, ys, xt, yt,
                     cfg: ob.TrainConfig, loss_spec: ob.LossSpec, *,
                     labeled_target: bool, align: bool, temporal: bool):
    """The model's descent direction for one batch on one tape, under the
    model's current critic: class loss plus lam times the alignment gap.
    Returns (class loss, [flat gradient of g, of h and, for a temporal
    history, of the summarizer]), the layout _primal_dual_step hands its
    optimizer."""
    tape = Tape()
    g_b = md.BoundMlp(tape, model.g)
    h_b = md.BoundMlp(tape, model.h)
    ns, m_dim = len(xs), model.g.out_dim
    x_lab, y_lab = xs, ys
    if labeled_target:
        x_lab, y_lab = np.concatenate([xs, xt]), np.concatenate([ys, yt])
    feats = g_b(tape.input(x_lab))
    ce, _ = loss_eval(loss_spec, h_b(feats), y_lab, tape)
    loss, bounds = ce, [g_b, h_b]
    if align:
        f_s = forward(tape, "slice", feats, starts=[0, 0], stops=[ns, m_dim])
        if labeled_target:
            f_t = forward(tape, "slice", feats, starts=[ns, 0],
                          stops=[len(x_lab), m_dim])
        else:
            f_t = g_b(tape.input(xt))
        hist = f_s
        if temporal:
            r_b = BoundRecurrent(tape, model.summarizer)
            mean_f = forward(tape, "mean", f_s, axis=0)
            _, readout = summarize_step(model.summarizer, model.summary_state,
                                        mean_f, tape, bound=r_b)
            half = tape.input(np.full((ns, m_dim), 0.5))
            hist = forward(tape, "add", (
                forward(tape, "mul", (f_s, half)),
                forward(tape, "mul", (forward(tape, "broadcast", readout,
                                              shape=(ns, m_dim), axis=0), half))))
            bounds.append(r_b)
        gap = alignment_gap(model.critic, f_t, hist, tape)
        loss = forward(tape, "add", (ce, forward(
            tape, "mul", (gap, tape.input(np.asarray(cfg.lam))))))
    ids = [b.param_ids() for b in bounds]
    grads = backward(tape, loss, [i for b in ids for i in b])
    return float(tape.val(ce)), [np.concatenate([grads[i].ravel() for i in b])
                                 for b in ids]
