"""Reverse-mode gradients of every primitive, checked against finite
differences and hand values."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sdparse.autodiff as ad

from conftest import numeric_grad


def _scalarize(build, *arrays):
    """Backprop a weighted sum of ``build(*params)`` and return leaf grads.

    Weighting with fixed pseudo-random coefficients makes the scalar
    sensitive to every output coordinate.
    """
    params = [ad.parameter(a) for a in arrays]
    out = build(*params)
    coeffs = np.arange(1.0, out.data.size + 1.0).reshape(out.data.shape)
    loss = ad.tensor_sum(ad.mul(out, ad.constant(coeffs)))
    ad.backward([loss], [np.ones(())])

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
    _check(lambda x, y: ad.div(x, y), a, b)


def test_broadcasting_folds_gradients_back(rng):
    a = rng.normal(size=(3, 4))
    row = rng.normal(size=(4,))
    scalar = np.array(1.5)
    _check(lambda x, y: ad.add(x, y), a, row)
    _check(lambda x, y: ad.mul(x, y), a, scalar)
    _check(lambda x, y: ad.div(x, ad.add(ad.mul(y, y), ad.constant(np.array(1.0)))), a, row)


def test_matmul_shapes(rng):
    m = rng.normal(size=(3, 4))
    n = rng.normal(size=(4, 2))
    v = rng.normal(size=(4,))
    u = rng.normal(size=(3,))
    _check(lambda x, y: ad.matmul(x, y), m, n)
    _check(lambda x, y: ad.matmul(x, y), m, v)
    _check(lambda x, y: ad.matmul(x, y), u, m)


def test_structural_ops(rng):
    a = rng.normal(size=(2, 6))
    b = rng.normal(size=(3, 6))
    _check(lambda x: ad.reshape(x, (3, 4)), a)
    _check(lambda x: ad.transpose(x), a)
    _check(lambda x, y: ad.concat([x, y], axis=0), a, b)
    _check(lambda x, y: ad.stack([ad.tensor_sum(x, axis=1), ad.tensor_sum(y, axis=1)[:2]], axis=0), a, b)


def test_getitem_and_take(rng):
    a = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    _check(lambda x: x[1:4], a)
    _check(lambda x: ad.take(x, idx), a)
    # repeated rows must accumulate, not overwrite
    p = ad.parameter(np.ones((3, 2)))
    out = ad.tensor_sum(ad.take(p, np.array([1, 1, 1])))
    ad.backward([out], [np.ones(())])
    np.testing.assert_array_equal(p.grad, [[0, 0], [3, 3], [0, 0]])


def test_segment_sum_forward_and_grad(rng):
    a = rng.normal(size=(6, 2))
    ids = np.array([0, 2, 0, 1, 2, 2])
    out = ad.segment_sum(ad.constant(a), ids, 4)
    want = np.zeros((4, 2))
    np.add.at(want, ids, a)
    np.testing.assert_allclose(out.data, want)
    _check(lambda x: ad.segment_sum(x, ids, 4), a)


def test_segment_sum_empty_segment_gets_zero(rng):
    a = rng.normal(size=(2, 3))
    out = ad.segment_sum(ad.constant(a), np.array([0, 3]), 5)
    np.testing.assert_array_equal(out.data[1], 0.0)
    np.testing.assert_array_equal(out.data[2], 0.0)


def test_reductions(rng):
    a = rng.normal(size=(3, 4))
    _check(lambda x: ad.tensor_sum(x), a)
    _check(lambda x: ad.tensor_sum(x, axis=0), a)
    _check(lambda x: ad.tensor_sum(x, axis=1, keepdims=True), a)
    _check(lambda x: ad.logsumexp(x, axis=1), a)
    _check(lambda x: ad.logsumexp(x, axis=0), a)


def test_cumsum_matches_numpy_and_finite_differences(rng):
    a = rng.normal(size=(3, 4))
    cube = rng.normal(size=(3, 4, 2))
    for axis in (0, 1):
        np.testing.assert_array_equal(ad.cumsum(ad.constant(a), axis).data,
                                      np.cumsum(a, axis=axis))
        _check(lambda x: ad.cumsum(x, axis), a)
        _check(lambda x: ad.cumsum(x, axis), cube)


def test_nonlinearities(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4))
    _check(lambda x: ad.exp(x), a)
    _check(lambda x: ad.log(ad.add(ad.mul(x, x), ad.constant(np.ones(())))), a)
    _check(lambda x: ad.tanh(x), a)
    _check(lambda x: ad.sigmoid(x), a)
    _check(lambda x: ad.softplus(x), a)
    _check(lambda x, y: ad.logaddexp(x, y), a, b)
    # keep samples away from the kink where the derivative jumps
    shifted = a + np.where(a >= 0, 0.5, -0.5)
    _check(lambda x: ad.leaky_relu(x, 0.1), shifted)


def test_leaky_relu_slope_values():
    x = ad.parameter(np.array([-2.0, 3.0]))
    out = ad.leaky_relu(x, 0.1)
    np.testing.assert_allclose(out.data, [-0.2, 3.0])
    ad.backward([ad.tensor_sum(out)], [np.ones(())])
    np.testing.assert_allclose(x.grad, [0.1, 1.0])


def test_sigmoid_softplus_extreme_inputs_are_finite():
    x = ad.constant(np.array([-800.0, -30.0, 0.0, 30.0, 800.0]))
    s = ad.sigmoid(x)
    sp = ad.softplus(x)
    assert np.all(np.isfinite(s.data)) and np.all(np.isfinite(sp.data))
    np.testing.assert_allclose(s.data[2], 0.5)
    np.testing.assert_allclose(sp.data[-1], 800.0)


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
    ad.backward([ad.tensor_sum(ad.mul(out, out))], [np.ones(())])
    # saturated coordinates transmit no gradient
    np.testing.assert_allclose(x.grad, [0.0, -2.0, 1.0, 4.0, 0.0])


def test_diamond_graph_accumulates_both_paths():
    x = ad.parameter(np.array(3.0))
    y = ad.mul(x, x)          # x^2
    z = ad.add(y, ad.mul(y, ad.constant(np.array(2.0))))  # 3 x^2
    ad.backward([z], [np.ones(())])
    np.testing.assert_allclose(x.grad, 18.0)


def test_leaf_grads_accumulate_across_sweeps_but_interior_reset():
    x = ad.parameter(np.array(2.0))
    y = ad.mul(x, x)
    ad.backward([y], [np.ones(())])
    first = float(x.grad)
    ad.backward([y], [np.ones(())])
    assert float(x.grad) == pytest.approx(2.0 * first)


def test_backward_with_seed_matrix(rng):
    x = ad.parameter(rng.normal(size=(2, 3)))
    out = ad.mul(x, ad.constant(np.full((2, 3), 2.0)))
    seed = rng.normal(size=(2, 3))
    ad.backward([out], [seed])
    np.testing.assert_allclose(x.grad, 2.0 * seed)


def test_constant_requires_no_grad():
    c = ad.constant(np.array([1.0, 2.0]))
    assert not c.requires_grad and c.grad is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=8))
def test_logsumexp_matches_reference(xs):
    arr = np.array(xs)
    got = ad.logsumexp(ad.constant(arr), axis=0).data
    want = np.logaddexp.reduce(arr)
    np.testing.assert_allclose(got, want, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-700, max_value=700),
    st.floats(min_value=-700, max_value=700),
)
def test_logaddexp_matches_numpy(a, b):
    got = ad.logaddexp(ad.constant(np.array(a)), ad.constant(np.array(b))).data
    np.testing.assert_allclose(got, np.logaddexp(a, b), atol=1e-12)
