"""Reverse-mode gradients of every primitive, checked against finite
differences and hand values, and loopy BP's message kernels, which take
and return arrays, against the unfused formula and 80-bit arithmetic."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdparse.autodiff as ad
from sdparse import lbp

from conftest import numeric_grad
from autodiff_reference import lstm
from message_reference import cavity_message, transpose_node


def _scalarize(build, *arrays):
    """Backprop a weighted sum of ``build(*params)`` and return leaf grads.

    Weighting with fixed pseudo-random coefficients makes the scalar
    sensitive to every output coordinate.
    """
    params = [ad.parameter(a) for a in arrays]
    out = build(*params)
    coeffs = np.arange(1.0, out.data.size + 1.0).reshape(out.data.shape)
    loss = ad.tensor_sum(ad.mul(out, ad.constant(coeffs)))
    ad.backward(loss, np.ones(()))

    def value():
        fresh = build(*[ad.constant(a) for a in arrays])
        return float(np.sum(fresh.data * coeffs))

    return [p.grad for p in params], value


def _check(build, *arrays, tol=1e-7, step=1e-6):
    grads, value = _scalarize(build, *arrays)
    numeric = numeric_grad(value, list(arrays), step=step)
    for got, want in zip(grads, numeric):
        assert got is not None
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


def test_add_sub_mul_div_elementwise(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0
    _check(lambda x, y: ad.add(x, y), a, b)
    _check(lambda x, y: ad.sub(x, y), a, b)
    _check(lambda x, y: ad.mul(x, y), a, b)


def test_broadcasting_folds_gradients_back(rng):
    a = rng.normal(size=(3, 4))
    row = rng.normal(size=(4,))
    scalar = np.array(1.5)
    _check(lambda x, y: ad.add(x, y), a, row)
    _check(lambda x, y: ad.mul(x, y), a, scalar)
    _check(lambda x, y: ad.sub(x, ad.mul(y, y)), a, row)


def test_matmul_shapes(rng):
    m = rng.normal(size=(3, 4))
    n = rng.normal(size=(4, 2))
    _check(lambda x, y: ad.matmul(x, y), m, n)


def test_linear_is_the_product_with_the_transpose(rng):
    x = rng.normal(size=(3, 4))
    w = rng.normal(size=(2, 4))
    np.testing.assert_array_equal(ad.linear(ad.constant(x), ad.constant(w)).data, x @ w.T)
    _check(lambda a, b: ad.linear(a, b), x, w)
    # a constant input gets no gradient computed
    out = ad.linear(ad.constant(x), ad.parameter(w))
    assert out._vjp(np.ones((3, 2)))[0] is None


def test_structural_ops(rng):
    a = rng.normal(size=(2, 6))
    b = rng.normal(size=(3, 6))
    _check(lambda x: ad.reshape(x, (3, 4)), a)
    _check(lambda x: ad.transpose(x), a)
    _check(lambda x, y: ad.concat([x, y], axis=0), a, b)
    # the references' transpose node, which permutes any axes
    cube = rng.normal(size=(2, 3, 4))
    for axes in ((0, 2, 1), (1, 0, 2), (2, 0, 1)):
        np.testing.assert_array_equal(transpose_node(ad.constant(cube), axes).data,
                                      np.transpose(cube, axes))
        _check(lambda x: transpose_node(x, axes), cube)


class _AddWithoutAt:
    """np.add, whose ``at`` fails the test."""

    def __call__(self, *args, **kwargs):
        return np.add(*args, **kwargs)

    def at(self, *args):
        pytest.fail("np.add.at was called")


class _NumpyWithoutAddAt:
    """numpy, but for np.add.at."""

    add = _AddWithoutAt()

    def __getattr__(self, name):
        return getattr(np, name)


def test_take(rng, monkeypatch):
    a = rng.normal(size=(5, 3))
    _check(lambda x: ad.take(x, np.array([0, 2, 2, 4])), a)
    # the reversal the encoder's backward direction reads its rows through
    _check(lambda x: ad.take(x, np.arange(5)[::-1]), a)
    # repeated rows must accumulate, not overwrite
    p = ad.parameter(np.ones((3, 2)))
    out = ad.tensor_sum(ad.take(p, np.array([1, 1, 1])))
    ad.backward(out, np.ones(()))
    np.testing.assert_array_equal(p.grad, [[0, 0], [3, 3], [0, 0]])
    # a strictly decreasing index names each row once: its backward is
    # bitwise np.add.at into zeros, with one fancy-index add instead
    idx = np.array([4, 3, 1, 0])
    g = rng.normal(size=(4, 3))
    g[:, 0] = -0.0
    want = np.zeros((5, 3))
    np.add.at(want, idx, g)
    p = ad.parameter(a)
    out = ad.take(p, idx)
    monkeypatch.setattr(ad, "np", _NumpyWithoutAddAt())
    ad.backward(out, g)
    assert p.grad.tobytes() == want.tobytes()   # signed zeros included


# strictly increasing and strictly decreasing (scattered by one fancy-index
# add), then unsorted, repeated, and negative indices (np.add.at); -1 and 4
# name the same row
TAKE_INDICES = [[0, 2, 3, 4], [[0, 1], [3, 4]], [], [4, 2, 1], [4, 0, 2], [1, 1, 3], [-1, 4],
                [4, -1], [-5, 2]]


@pytest.mark.parametrize("indices", TAKE_INDICES, ids=str)
def test_take_backward_is_bitwise_a_scatter_add(rng, indices):
    idx = np.array(indices, dtype=np.intp)
    g = rng.normal(size=idx.shape + (3,))
    g[..., 0] = -0.0
    p = ad.parameter(rng.normal(size=(5, 3)))
    ad.backward(ad.take(p, idx), g)
    want = np.zeros((5, 3))
    np.add.at(want, idx, g)
    assert p.grad.tobytes() == want.tobytes()   # signed zeros included


def test_reductions(rng):
    a = rng.normal(size=(3, 4))
    _check(lambda x: ad.tensor_sum(x), a)
    _check(lambda x: ad.tensor_sum(x, axis=0), a)
    _check(lambda x: ad.logsumexp(x, axis=1), a)
    _check(lambda x: ad.logsumexp(x, axis=0), a)


@pytest.mark.parametrize("by_columns", [False, True], ids=["rows", "transposed-view"])
def test_prefix_trilinear_matches_a_loop_and_finite_differences(rng, by_columns):
    # N = 5 running positions, R = 3 grid columns, M = 4; the mean-field
    # field reads the co-parent grid as stored and the sibling grid as a
    # transposed view
    N, R, M = 5, 3, 4
    grid = rng.normal(size=(R, N) if by_columns else (N, R))
    u, v, w = rng.normal(size=(N, M)), rng.normal(size=(N, M)), rng.normal(size=(R, M))

    def build(g, *factors):
        return ad.prefix_trilinear(ad.transpose(g) if by_columns else g, *factors)

    G = grid.T if by_columns else grid
    want = np.array([[sum(G[k, r] * np.sum(u[k] * v[s] * w[r]) for k in range(s + 1))
                      for r in range(R)] for s in range(N)])
    got = build(*(ad.constant(a) for a in (grid, u, v, w))).data
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
    _check(build, grid, u, v, w)


def test_nonlinearities(rng):
    a = rng.normal(size=(3, 4))
    _check(lambda x: ad.sigmoid(x), a)
    _check(lambda x: ad.softplus(x), a)
    # keep samples away from the kink where the derivative jumps
    shifted = a + np.where(a >= 0, 0.5, -0.5)
    _check(lambda x: ad.leaky_relu(x, 0.1), shifted)


def test_leaky_relu_slope_values():
    x = ad.parameter(np.array([-2.0, 3.0]))
    out = ad.leaky_relu(x, 0.1)
    np.testing.assert_allclose(out.data, [-0.2, 3.0])
    ad.backward(ad.tensor_sum(out), np.ones(()))
    np.testing.assert_allclose(x.grad, [0.1, 1.0])


def test_sigmoid_softplus_extreme_inputs_are_finite():
    x = ad.constant(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    s = ad.sigmoid(x)
    sp = ad.softplus(x)
    assert np.all(np.isfinite(s.data)) and np.all(np.isfinite(sp.data))
    np.testing.assert_allclose(s.data[2], 0.5)
    np.testing.assert_allclose(sp.data[-1], 800.0)


def test_softplus_gradient_is_the_logistic_at_every_scale():
    vals = np.array([-800.0, -40.0, -1.5, 0.0, 1e-9, 2.5, 40.0, 800.0])
    x = ad.parameter(vals)
    ad.backward(ad.tensor_sum(ad.softplus(x)), np.ones(()))
    want = np.exp(-np.logaddexp(0.0, -vals))
    np.testing.assert_allclose(x.grad, want, rtol=1e-14, atol=1e-300)
    assert x.grad[-1] == 1.0 and x.grad[0] == 0.0


# ------------------------------------------------ loopy-BP message kernels
# ``lbp``'s array kernels, checked with this module's ``_check`` and
# ``softplus``: the message as a node (``cavity_message``) against the
# unfused softplus difference and finite differences, and the kernel's
# arrays against 80-bit arithmetic.

# every (c, s) pair of these, as a full grid and with c broadcast along s
SHIFT_VALUES = np.array([0.0, 1.0, -1.0, 40.0, -40.0, 800.0, -800.0])
SHIFT_SHAPES = [((7, 7), (7, 7)), ((7, 1), (7, 7))]


def _shift_inputs(c_shape):
    c = np.broadcast_to(SHIFT_VALUES[:, None], (7, 7)).copy()
    s = np.broadcast_to(SHIFT_VALUES[None, :], (7, 7)).copy()
    return (c if c_shape == (7, 7) else SHIFT_VALUES[:, None].copy()), s


def _two_softplus_message(c, s):
    """The per-message reference node on the kernel's guard form: with
    SHIFT_BOUND below every |s|, each cell takes the two-softplus
    fallback."""
    return cavity_message(c, None, s, lbp.message_shift(s.data))


@pytest.mark.parametrize("c_shape,s_shape", SHIFT_SHAPES)
def test_softplus_shift_matches_the_unfused_formula(monkeypatch, c_shape, s_shape):
    monkeypatch.setattr(lbp, "SHIFT_BOUND", -1.0)
    c0, s0 = _shift_inputs(c_shape)
    upstream = np.arange(1.0, 50.0).reshape(7, 7) / 7.0

    def run(build):
        c, s = ad.parameter(c0), ad.parameter(s0)
        out = build(c, s)
        ad.backward(out, upstream)
        return out.data, c.grad, s.grad

    got = run(_two_softplus_message)
    want = run(lambda c, s: ad.sub(ad.softplus(ad.add(c, s)), ad.softplus(c)))
    np.testing.assert_array_equal(got[0], want[0])
    for g, w in zip(got[1:], want[1:]):
        assert g.shape == w.shape
        np.testing.assert_allclose(g, w, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("c_shape,s_shape", SHIFT_SHAPES)
def test_softplus_shift_matches_finite_differences(monkeypatch, c_shape, s_shape):
    monkeypatch.setattr(lbp, "SHIFT_BOUND", -1.0)
    c, s = _shift_inputs(c_shape)
    _check(_two_softplus_message, c, s, step=1e-4)


def _message_cells():
    """(c (R,), s (R, M)): each row one cavity and the scores it is checked
    against, padded with s = 0. The rows hold the grid above, (40, -50),
    (2, 1e-12), s at, just inside and just outside the bound (at c = 40,
    1 + P cancels to 1e-13 just inside -bound, P = logistic(c) expm1(s)),
    and, at c = 5, the scores that put P just above and just below -1/2."""
    bound = lbp.SHIFT_BOUND
    edges = [bound, np.nextafter(bound, 0.0), np.nextafter(bound, 99.0)]
    half = np.log1p(-0.5 * (1.0 + np.exp(-5.0)))
    rows = {c: list(SHIFT_VALUES) for c in SHIFT_VALUES}
    rows[40.0] += [-50.0] + edges + [-e for e in edges]
    rows[2.0] = [1e-12] + edges + [-e for e in edges]
    rows[-1.0] += edges + [-e for e in edges]
    rows[5.0] = list(half + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9]))
    width = max(map(len, rows.values()))
    return (np.array(list(rows)),
            np.array([values + [0.0] * (width - len(values)) for values in rows.values()]))


def _longdouble_message(c, s):
    """(message, d/dc, d/ds) in 80-bit arithmetic, rounded to float64."""
    c, s = np.longdouble(c), np.longdouble(s)

    def softplus(x):
        return np.maximum(x, 0) + np.log1p(np.exp(-np.abs(x)))

    def logistic(x):
        return np.where(x >= 0, 1 / (1 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1 + np.exp(-np.abs(x))))

    shifted = logistic(c + s)
    return tuple(np.float64(v) for v in (softplus(c + s) - softplus(c),
                                         shifted - logistic(c), shifted))


@pytest.mark.parametrize("broadcast", [False, True], ids=["full-source", "broadcast-source"])
@pytest.mark.parametrize("with_reverse", [False, True], ids=["first-sweep", "with-reverse"])
def test_cavity_message_matches_a_longdouble_reference(broadcast, with_reverse):
    """``message_kernel``'s message, and the derivatives d/ds =
    logistic(c + s) and d/dc = logistic(c + s) - logistic(c) read from its
    logistic(c) and ``shifted_logistic``, against 80-bit arithmetic."""
    c_values, s = _message_cells()
    shape = s.shape
    # a reverse message constant along each row, so source - reverse is
    # exactly the row's cavity
    rows = (np.arange(shape[0]) % 5 - 2) * 0.5 if with_reverse else np.zeros(shape[0])
    source = (c_values + rows)[:, None]
    source = source if broadcast else np.broadcast_to(source, shape).copy()
    reverse = np.broadcast_to(rows[:, None], shape).copy() if with_reverse else None
    shift = lbp.message_shift(s)
    out, logistic, guarded = lbp.message_kernel(source, reverse, s, shift, keep=True)
    shifted = lbp.shifted_logistic(logistic, shift[0], guarded)
    want, want_dc, want_ds = _longdouble_message(np.broadcast_to(c_values[:, None], shape), s)
    np.testing.assert_allclose(out, want, rtol=0, atol=1e-14)
    np.testing.assert_allclose(shifted, want_ds, rtol=0, atol=1e-14)
    np.testing.assert_allclose(shifted - logistic, want_dc, rtol=0, atol=1e-14)
    # a cell with no score sends exactly nothing and passes back nothing
    assert np.all(out[s == 0] == 0.0)
    assert np.all((shifted - logistic)[s == 0] == 0.0)


def _forward_shifted(source, reverse, s):
    """The reference for ``shifted_logistic``: logistic(c + s) by the
    kernel's forward arithmetic, (logistic(c) + P) / (1 + P) with
    P = logistic(c) expm1(s), and the two-softplus form on the guarded
    cells; with the number of guarded cells."""
    expm1_s, wide = lbp.message_shift(s)
    logistic = np.negative(source) if reverse is None else np.subtract(reverse, source)
    with np.errstate(over="ignore"):
        logistic = 1.0 / (np.exp(logistic) + 1.0)
    scaled = logistic * expm1_s
    shifted = (logistic + scaled) / (scaled + 1.0)
    guard = scaled < -0.5
    if wide is not None:
        guard |= wide
    cells = np.nonzero(guard)
    c = np.broadcast_to(source, s.shape)[cells]
    if reverse is not None:
        c = c - reverse[cells]
    shifted[cells] = lbp._two_softplus(c, s[cells])[2]
    return shifted, int(np.count_nonzero(guard))


@pytest.mark.parametrize("broadcast", [False, True], ids=["full-source", "broadcast-source"])
@pytest.mark.parametrize("with_reverse", [False, True], ids=["first-sweep", "with-reverse"])
def test_shifted_logistic_rebuilds_the_forward_value_bitwise(rng, broadcast, with_reverse):
    """The backward's rebuilt logistic(c + s) is bit for bit the value the
    forward computes, on the checked cells and on random scores up to
    trained scale, guarded cells included."""
    c_values, s_cells = _message_cells()
    s = np.concatenate([s_cells, rng.normal(scale=20.0, size=(c_values.size, 40))], axis=1)
    source = (c_values + rng.normal(scale=3.0, size=c_values.size))[:, None]
    source = source if broadcast else source + rng.normal(size=s.shape)
    reverse = rng.normal(scale=3.0, size=s.shape) if with_reverse else None
    shift = lbp.message_shift(s)
    _, logistic, guarded = lbp.message_kernel(source, reverse, s, shift, keep=True)
    got = lbp.shifted_logistic(logistic, shift[0], guarded)
    want, guards = _forward_shifted(source, reverse, s)
    assert guards and guarded[0].size == guards
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("broadcast", [False, True], ids=["full-source", "broadcast-source"])
@pytest.mark.parametrize("with_reverse", [False, True], ids=["first-sweep", "with-reverse"])
def test_cavity_message_matches_finite_differences(rng, broadcast, with_reverse):
    """The gradients read from ``message_kernel``'s logistic(c) and
    ``shifted_logistic``, summed over a broadcast source, against finite
    differences of its message."""
    shape = (4, 5)
    # scores from small to guarded: P < -1/2 at large c and s < -1, and
    # the last column past the bound
    s = rng.normal(scale=3.0, size=shape)
    s[:, -1] = [-40.0, 35.0, -31.0, 45.0]
    source = rng.normal(scale=3.0, size=(4, 1) if broadcast else shape)
    reverse = rng.normal(size=shape) if with_reverse else None
    upstream = np.arange(1.0, s.size + 1.0).reshape(shape)

    def value():
        message = lbp.message_kernel(source, reverse, s, lbp.message_shift(s))[0]
        return float(np.sum(upstream * message))

    shift = lbp.message_shift(s)
    _, logistic, guarded = lbp.message_kernel(source, reverse, s, shift, keep=True)
    shifted = lbp.shifted_logistic(logistic, shift[0], guarded)
    dc = upstream * (shifted - logistic)
    got = [dc.sum(axis=1, keepdims=True) if broadcast else dc, upstream * shifted]
    arrays = [source, s]
    if with_reverse:
        got.append(-dc)
        arrays.append(reverse)
    for g, want in zip(got, numeric_grad(value, arrays, step=1e-4)):
        np.testing.assert_allclose(g, want, rtol=1e-7, atol=1e-7)


def _lstm_weights(rng, in_dim, h):
    """(Wx, Wh, b) of one direction, then of the other."""
    return [w for _ in range(2) for w in (rng.normal(size=(4 * h, in_dim)),
                                          rng.normal(size=(4 * h, h)), rng.normal(size=(4 * h,)))]


@pytest.mark.parametrize("steps", [1, 5])
@pytest.mark.parametrize("masked", [False, True])
def test_lstm_matches_finite_differences(rng, steps, masked):
    """``bilstm``: both directions' weights and the input."""
    in_dim, h = 3, 2
    x = rng.normal(size=(steps, in_dim))
    masks = [np.array([2.0, 0.0]), np.array([0.0, 2.0])] if masked else None
    _check(lambda x, *p: ad.bilstm(x, p[:3], p[3:], masks), x, *_lstm_weights(rng, in_dim, h))


def test_lstm_steps_follow_the_gate_equations(rng):
    """Each half of ``bilstm``'s output is one LSTM direction's states, the
    backward one over the rows reversed and returned to their positions."""
    in_dim, h, steps = 3, 2, 4
    x = rng.normal(size=(steps, in_dim))
    weights = _lstm_weights(rng, in_dim, h)
    masks = [np.array([0.0, 2.0]), np.array([1.5, 0.5])]
    out = ad.bilstm(ad.constant(x), [ad.constant(w) for w in weights[:3]],
                    [ad.constant(w) for w in weights[3:]], masks).data

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    for direction, rows, positions in ((0, x, range(steps)),
                                       (1, x[::-1], range(steps - 1, -1, -1))):
        Wx, Wh, b = weights[3 * direction:3 * direction + 3]
        mask = masks[direction]
        hid, cell = np.zeros(h), np.zeros(h)
        for row, t in zip(rows, positions):
            z = Wx @ row + Wh @ (hid * mask) + b
            cell = sig(z[h:2 * h]) * cell + sig(z[:h]) * np.tanh(z[2 * h:3 * h])
            hid = sig(z[3 * h:]) * np.tanh(cell)
            np.testing.assert_allclose(out[t, direction * h:(direction + 1) * h], hid,
                                       rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("h", [2, 32])
def test_bilstm_is_bitwise_two_directions_joined_by_reversals(rng, h, masked):
    """The fused layer against the composition it replaced: one LSTM node
    per direction (``autodiff_reference.lstm``), the backward one over
    the rows reversed by ``take``, joined by a ``take`` and a ``concat``;
    output and every gradient byte for byte."""
    steps, in_dim = 9, 5
    x0 = rng.normal(size=(steps, in_dim))
    weights0 = _lstm_weights(rng, in_dim, h)
    masks = [(rng.random(h) >= 0.25) / 0.75 for _ in range(2)] if masked else [None, None]
    upstream = rng.normal(size=(steps, 2 * h))

    def run(layer):
        x = ad.parameter(x0)
        hidden = ad.mul(x, ad.constant(np.ones_like(x0)))  # an interior input, as in the model
        weights = [ad.parameter(w) for w in weights0]
        out = layer(hidden, weights)
        ad.backward(out, upstream)
        return [out.data, x.grad] + [w.grad for w in weights]

    reverse = np.arange(steps)[::-1]

    def composed(hidden, weights):
        fw = lstm(hidden, *weights[:3], recur_mask=masks[0])
        bw = lstm(ad.take(hidden, reverse), *weights[3:], recur_mask=masks[1])
        return ad.concat([fw, ad.take(bw, reverse)], axis=1)

    got = run(lambda hidden, w: ad.bilstm(hidden, w[:3], w[3:], None if not masked else masks))
    for a, b in zip(got, run(composed), strict=True):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_logsumexp_extreme_inputs_match_numpy():
    vals = np.array([[1000.0, 1000.0 + np.log(2.0)], [-1000.0, -999.0]])
    out = ad.logsumexp(ad.constant(vals), axis=1)
    want = np.logaddexp(vals[:, 0], vals[:, 1])
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, want, atol=1e-12)


def test_clamp_forward_and_gradient_mask(rng):
    x = ad.parameter(np.array([-50.0, -1.0, 0.5, 2.0, 99.0]))
    out = ad.clamp(x, -30.0, 30.0)
    np.testing.assert_allclose(out.data, [-30.0, -1.0, 0.5, 2.0, 30.0])
    ad.backward(ad.tensor_sum(ad.mul(out, out)), np.ones(()))
    # saturated coordinates transmit no gradient
    np.testing.assert_allclose(x.grad, [0.0, -2.0, 1.0, 4.0, 0.0])


def test_diamond_graph_accumulates_both_paths():
    x = ad.parameter(np.array(3.0))
    y = ad.mul(x, x)          # x^2
    z = ad.add(y, ad.mul(y, ad.constant(np.array(2.0))))  # 3 x^2
    ad.backward(z, np.ones(()))
    np.testing.assert_allclose(x.grad, 18.0)


def test_leaf_grads_accumulate_across_sweeps_but_interior_reset():
    x = ad.parameter(np.array(2.0))
    y = ad.mul(x, x)
    ad.backward(y, np.ones(()))
    first = float(x.grad)
    ad.backward(y, np.ones(()))
    assert float(x.grad) == pytest.approx(2.0 * first)


# graphs whose leaves' first gradients are fresh arrays, the add node's own
# gradient (given to two leaves, or to one beside a broadcast sum), a
# read-only broadcast view, and a view through transpose and reshape of
# the output's gradient
LEAF_GRAPHS = {
    "add": (lambda a, b: ad.add(a, b), [(3, 4), (3, 4)]),
    "add-broadcast": (lambda a, b: ad.add(a, b), [(3, 4), (4,)]),
    "tensor_sum": (lambda a: ad.tensor_sum(a, axis=1), [(3, 4)]),
    "transpose-reshape": (lambda a: ad.reshape(ad.transpose(a), (12,)), [(3, 4)]),
    "matmul-bias": (lambda a, b, c: ad.add(ad.matmul(a, b), c), [(3, 4), (4, 2), (2,)]),
}


def _graph_nodes(out):
    nodes, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            stack.extend(node._parents)
    return list(nodes.values())


@pytest.mark.parametrize("graph", sorted(LEAF_GRAPHS))
def test_leaf_grads_sum_the_sweeps_and_no_other_gradient_changes(rng, graph):
    build, shapes = LEAF_GRAPHS[graph]
    start = [rng.normal(size=shape) for shape in shapes]
    seeds = [rng.normal(size=build(*map(ad.constant, start)).shape) for _ in range(3)]

    def one_sweep(seed):
        leaves = [ad.parameter(a.copy()) for a in start]
        ad.backward(build(*leaves), seed)
        return [leaf.grad for leaf in leaves]

    per_sweep = [one_sweep(seed) for seed in seeds]
    leaves = [ad.parameter(a.copy()) for a in start]
    out = build(*leaves)
    held = []   # (node, its gradient array, that array's values) after a sweep
    for k, seed in enumerate(seeds):
        ad.backward(out, seed)
        for node, array, values in held:
            # only a leaf's own gradient may be written into
            if not (node._vjp is None and node.grad is array):
                np.testing.assert_array_equal(array, values)
        for leaf, sweeps in zip(leaves, zip(*per_sweep)):
            want = sweeps[0]
            for g in sweeps[1:k + 1]:
                want = want + g
            np.testing.assert_array_equal(leaf.grad, want)
        held = [(node, node.grad, np.array(node.grad)) for node in _graph_nodes(out)]


@pytest.mark.parametrize("graph", sorted(LEAF_GRAPHS))
def test_backward_frees_interior_gradients_and_outputs_keep_their_seeds(rng, graph):
    build, shapes = LEAF_GRAPHS[graph]
    leaves = [ad.parameter(rng.normal(size=shape)) for shape in shapes]
    # two outputs over the same leaves, each with an interior node below
    # it, swept one after the other
    outputs = [build(*leaves), ad.neg(build(*leaves))]
    seeds = [rng.normal(size=out.shape) for out in outputs]
    for out, seed in zip(outputs, seeds):
        ad.backward(out, seed)
    for out, seed in zip(outputs, seeds):
        np.testing.assert_array_equal(out.grad, seed)
    interior = [node for out in outputs for node in _graph_nodes(out)
                if node._vjp is not None and all(node is not out for out in outputs)]
    assert interior and all(node.grad is None for node in interior)
    assert all(leaf.grad is not None for leaf in leaves)


def test_an_output_gradient_passed_to_a_leaf_is_not_written_by_a_second_sweep(rng):
    a, b, c = (ad.parameter(rng.normal(size=shape)) for shape in [(3, 4), (4,), (4,)])
    # both adds pass the output's gradient through, so the interior one
    # hands the output's own array to the leaf, unowned
    out = ad.add(ad.add(a, b), c)
    first, second = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    ad.backward(out, first)
    held = out.grad
    assert a.grad is held
    ad.backward(out, second)
    np.testing.assert_array_equal(held, first)
    np.testing.assert_array_equal(out.grad, second)
    np.testing.assert_array_equal(a.grad, first + second)


def _hook_graph(rng):
    """A loss over leaves that cover each way of reaching one: ``a`` read by
    two nodes, ``w`` through a transpose and a reshape, ``q`` only by a
    node whose vjp gives it no gradient, ``s`` only below an interior node
    that gets none, and ``r`` by that node and an ordinary one."""
    leaves = {name: ad.parameter(rng.normal(size=shape)) for name, shape in [
        ("a", (3, 4)), ("b", (4, 2)), ("c", (3, 4)), ("w", (2, 6)),
        ("q", (3, 2)), ("r", (3, 2)), ("s", (3, 2))]}
    L = leaves
    hidden = ad.neg(L["s"])
    # a node built by hand, as lbp and potentials build theirs, whose vjp
    # passes its gradient to r alone
    picky = ad.Tensor(L["r"].data + L["q"].data + hidden.data, requires_grad=True,
                      _parents=(L["r"], L["q"], hidden), _vjp=lambda g: (g, None, None))
    viewed = ad.reshape(ad.transpose(L["w"]), (3, 4))
    out = ad.add(ad.mul(L["a"], L["c"]), viewed)
    out = ad.add(ad.matmul(out, ad.transpose(ad.mul(L["a"], L["a"]))), ad.constant(1.0))
    out = ad.add(ad.tensor_sum(ad.matmul(out, ad.matmul(L["a"], L["b"]))),
                 ad.tensor_sum(ad.mul(picky, L["r"])))
    return leaves, out


def test_on_leaf_reports_each_leaf_with_a_gradient_once_when_it_is_final(rng):
    leaves, out = _hook_graph(rng)
    names = {id(leaf): name for name, leaf in leaves.items()}
    for sweep in range(2):
        reported = []
        ad.backward(out, rng.normal(), on_leaf=lambda leaf: reported.append(
            (names[id(leaf)], leaf.grad.copy())))
        assert sorted(name for name, _ in reported) == ["a", "b", "c", "r", "w"]
        for name, grad in reported:
            # a second sweep adds into the first's gradients
            np.testing.assert_array_equal(grad, leaves[name].grad)
        assert leaves["q"].grad is None and leaves["s"].grad is None


def test_on_leaf_is_called_before_the_sweep_reaches_the_nodes_below(rng):
    """A head's weight is reported before the encoder below it is swept."""
    x = ad.parameter(rng.normal(size=(5, 3)))
    first, second = ad.parameter(rng.normal(size=(4, 3))), ad.parameter(rng.normal(size=(2, 4)))
    steps = []

    def vjp(g):
        steps.append("below")
        return (g,)

    below = ad.Tensor(x.data.copy(), requires_grad=True, _parents=(x,), _vjp=vjp)
    out = ad.tensor_sum(ad.linear(ad.linear(below, first), second))
    ad.backward(out, 1.0, on_leaf=lambda leaf: steps.append(
        {id(x): "x", id(first): "first", id(second): "second"}[id(leaf)]))
    assert steps == ["second", "first", "below", "x"]


def test_backward_with_seed_matrix(rng):
    x = ad.parameter(rng.normal(size=(2, 3)))
    out = ad.mul(x, ad.constant(np.full((2, 3), 2.0)))
    seed = rng.normal(size=(2, 3))
    ad.backward(out, seed)
    np.testing.assert_allclose(x.grad, 2.0 * seed)


def test_constant_requires_no_grad():
    c = ad.constant(np.array([1.0, 2.0]))
    assert not c.requires_grad and c.grad is None


def test_no_grad_records_no_tape_entry_and_computes_the_same_values():
    x = ad.parameter(np.array([0.5, -1.0, 2.0]))
    taped = ad.softplus(ad.mul(x, x))
    with ad.no_grad():
        assert not ad.records((x,))
        fresh = ad.softplus(ad.mul(x, x))
    assert taped.requires_grad and taped._vjp is not None
    assert not fresh.requires_grad and fresh._parents == () and fresh._vjp is None
    assert fresh.data.tobytes() == taped.data.tobytes()
    with pytest.raises(ValueError):
        with ad.no_grad():
            raise ValueError("the block's body failed")
    assert ad.records((x,)) and not ad.records((ad.constant(1.0),))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_logsumexp_matches_reference(xs):
    arr = np.array(xs)
    got = ad.logsumexp(ad.constant(arr), axis=0).data
    want = np.logaddexp.reduce(arr)
    np.testing.assert_allclose(got, want, atol=1e-12)
