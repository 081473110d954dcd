"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64. A ``Tensor`` wraps an ndarray plus an optional tape
entry (parent tensors and a vector-Jacobian-product closure). Ops only
record a tape entry when some input requires gradients, so constant
subgraphs cost nothing on the backward pass.

``backward(outputs, seeds)`` runs one reverse sweep. Gradients of interior
nodes are reset at the start of every sweep; gradients of leaves (the
actual parameters) accumulate across sweeps until the caller clears them,
which is what lets a batch sum per-sentence gradients.

The op set is what the parser needs: elementwise arithmetic with
broadcasting, matmul, axis permutations, gathers (take), reductions,
running sums (cumsum), stable nonlinearities, and two fused nodes:
``lstm``, a whole LSTM direction (no per-token tape entries), and
``softplus_shift``, the loopy-BP message update.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "constant", "parameter", "backward",
    "add", "sub", "mul", "div", "neg", "matmul", "transpose",
    "reshape", "concat", "take", "tensor_sum", "cumsum",
    "exp", "log", "tanh", "sigmoid", "softplus", "softplus_shift", "leaky_relu", "lstm",
    "logaddexp", "logsumexp", "clamp",
]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def backward(self, seed=None):
        if seed is None:
            seed = np.ones_like(self.data)
        backward([self], [seed])

    # the operator sugar the parser uses
    def __add__(self, other):
        return add(self, _wrap(other))

    def __getitem__(self, key):
        return _getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(data, requires_grad=True)


def _wrap(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _op(data, parents, vjp):
    if any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def backward(outputs, seeds):
    """Reverse sweep from ``outputs`` seeded with ``seeds``.

    Interior-node gradients are cleared first so a tensor reused across
    sweeps cannot leak stale gradient; leaf gradients accumulate.
    """
    topo = []
    visited = set()
    stack = [(o, False) for o in outputs]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited and p.requires_grad:
                stack.append((p, False))

    for node in topo:
        if node._vjp is not None:
            node.grad = None

    for out, seed in zip(outputs, seeds):
        g = np.broadcast_to(np.asarray(seed, dtype=np.float64), out.data.shape)
        out.grad = np.array(g) if out.grad is None else out.grad + g

    for node in reversed(topo):
        if node.grad is None or node._vjp is None:
            continue
        for parent, pgrad in zip(node._parents, node._vjp(node.grad)):
            if pgrad is None or not parent.requires_grad:
                continue
            parent.grad = pgrad if parent.grad is None else parent.grad + pgrad


# ---------------------------------------------------------------- arithmetic

def add(a, b):
    a, b = _wrap(a), _wrap(b)
    return _op(a.data + b.data, (a, b),
               lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    a, b = _wrap(a), _wrap(b)
    return _op(a.data - b.data, (a, b),
               lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    a, b = _wrap(a), _wrap(b)
    return _op(a.data * b.data, (a, b),
               lambda g: (_unbroadcast(g * b.data, a.data.shape),
                          _unbroadcast(g * a.data, b.data.shape)))


def div(a, b):
    a, b = _wrap(a), _wrap(b)
    return _op(a.data / b.data, (a, b),
               lambda g: (_unbroadcast(g / b.data, a.data.shape),
                          _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)))


def neg(a):
    a = _wrap(a)
    return _op(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    """Matrix product for the 2D@2D, 2D@1D and 1D@2D cases."""
    a, b = _wrap(a), _wrap(b)
    ad, bd = a.data, b.data
    out = ad @ bd

    def vjp(g):
        if ad.ndim == 2 and bd.ndim == 2:
            return g @ bd.T, ad.T @ g
        if ad.ndim == 2 and bd.ndim == 1:
            return np.outer(g, bd), ad.T @ g
        if ad.ndim == 1 and bd.ndim == 2:
            return g @ bd.T, np.outer(ad, g)
        raise ValueError(f"unsupported matmul ranks {ad.ndim}@{bd.ndim}")

    return _op(out, (a, b), vjp)


def transpose(a, axes=None):
    """Permute the axes (reverse them when ``axes`` is None); the result
    is a view, and the backward pass applies the inverse permutation."""
    a = _wrap(a)
    inverse = None if axes is None else np.argsort(axes)
    return _op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a, shape):
    a = _wrap(a)
    old = a.data.shape
    return _op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def _getitem(a, key):
    a = _wrap(a)
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=np.float64)
        full[key] += g
        return (full,)

    return _op(a.data[key], (a,), vjp)


def take(a, indices):
    """Gather rows (axis 0). Backward scatter-adds, so repeats are fine."""
    a = _wrap(a)
    idx = np.asarray(indices, dtype=np.intp)
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=np.float64)
        np.add.at(full, idx, g)
        return (full,)

    return _op(a.data[idx], (a,), vjp)


def tensor_sum(a, axis=None, keepdims=False):
    a = _wrap(a)
    shape = a.data.shape

    # a read-only broadcast view: no vjp writes into its incoming gradient
    def vjp(g):
        gg = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape),)

    return _op(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def cumsum(a, axis):
    """Inclusive running sum along ``axis``; backward is the running sum
    taken in the reverse direction."""
    a = _wrap(a)

    def vjp(g):
        return (np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis),)

    return _op(np.cumsum(a.data, axis=axis), (a,), vjp)


# ------------------------------------------------------------- nonlinearities

def exp(a):
    a = _wrap(a)
    out = np.exp(a.data)
    return _op(out, (a,), lambda g: (g * out,))


def log(a):
    a = _wrap(a)
    return _op(np.log(a.data), (a,), lambda g: (g / a.data,))


def tanh(a):
    a = _wrap(a)
    out = np.tanh(a.data)
    return _op(out, (a,), lambda g: (g * (1.0 - out * out),))


def _expit(x):
    """Logistic function: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
    below, so no exponent overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a):
    a = _wrap(a)
    out = _expit(a.data)
    return _op(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    """log(1 + e^x), computed stably; the gradient is the logistic."""
    a = _wrap(a)
    out, logistic = _softplus_and_logistic(a.data)
    return _op(out, (a,), lambda g: (g * logistic,))


def _softplus_and_logistic(x):
    """(softplus(x), logistic(x)), stably, from one shared e^-|x|."""
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    soft = np.log1p(e)
    soft += np.maximum(x, 0.0)
    logistic = np.where(x >= 0, 1.0, e)
    e += 1.0
    logistic /= e
    return soft, logistic


def softplus_shift(c, s):
    """softplus(c + s) - softplus(c), broadcasting ``c`` against ``s``, as
    one node. The forward keeps the logistic of c + s and of c, so the
    backward, d/dc = logistic(c + s) - logistic(c) and d/ds =
    logistic(c + s), computes no exponential."""
    c, s = _wrap(c), _wrap(s)
    soft_shifted, logistic_shifted = _softplus_and_logistic(c.data + s.data)
    soft, logistic = _softplus_and_logistic(c.data)
    soft_shifted -= soft

    def vjp(g):
        ds = g * logistic_shifted
        dc = g * logistic
        np.subtract(ds, dc, out=dc)
        return _unbroadcast(dc, c.data.shape), _unbroadcast(ds, s.data.shape)

    return _op(soft_shifted, (c, s), vjp)


def lstm(x, Wx, Wh, b, recur_mask=None):
    """One LSTM direction over the rows of ``x`` (T, in), as one tape node.

    Gates are stacked i, f, g, o in the 4h rows of ``Wx`` (4h, in), ``Wh``
    (4h, h) and ``b`` (4h,); h_0 = c_0 = 0, and ``recur_mask`` (an (h,)
    array), when given, scales h_{t-1} before it enters ``Wh``. The input
    projection of every row is one matrix product; only the recurrence
    loops. Returns H (T, h). The backward loop fills the (T, 4h) gate
    gradients, after which every parameter gradient is one product.
    """
    x, Wx, Wh, b = _wrap(x), _wrap(Wx), _wrap(Wh), _wrap(b)
    xd, Wxd, Whd = x.data, Wx.data, Wh.data
    T, h = xd.shape[0], Whd.shape[1]
    pre = xd @ Wxd.T + b.data
    acts = np.empty_like(pre)           # sigmoid(i, f, o) and tanh(g)
    cells = np.empty((T, h))
    tanh_c = np.empty((T, h))
    H = np.empty((T, h))
    H_in = np.zeros((T, h))             # h_{t-1}, masked, as fed to Wh
    c = np.zeros(h)

    def gates(row):
        return row[:h], row[h:2 * h], row[2 * h:3 * h], row[3 * h:]

    for t in range(T):
        if t:
            H_in[t] = H[t - 1] * recur_mask if recur_mask is not None else H[t - 1]
        z = pre[t] + Whd @ H_in[t]
        acts[t] = _expit(z)
        acts[t, 2 * h:3 * h] = np.tanh(z[2 * h:3 * h])
        i, f, g, o = gates(acts[t])
        c = f * c + i * g
        cells[t] = c
        tanh_c[t] = np.tanh(c)
        H[t] = o * tanh_c[t]

    def vjp(gH):
        dG = np.empty_like(acts)
        dh_rec = np.zeros(h)
        dc = np.zeros(h)
        for t in range(T - 1, -1, -1):
            i, f, g, o = gates(acts[t])
            di, df, dg, do = gates(dG[t])
            dh = gH[t] + dh_rec
            dc = dh * o * (1.0 - tanh_c[t] * tanh_c[t]) + dc
            di[:] = dc * g * i * (1.0 - i)
            df[:] = dc * (cells[t - 1] if t else 0.0) * f * (1.0 - f)
            dg[:] = dc * i * (1.0 - g * g)
            do[:] = dh * tanh_c[t] * o * (1.0 - o)
            dc = dc * f
            dh_rec = dG[t] @ Whd
            if recur_mask is not None:
                dh_rec *= recur_mask
        dx = dG @ Wxd if x.requires_grad else None
        return dx, dG.T @ xd, dG.T @ H_in, dG.sum(axis=0)

    return _op(H, (x, Wx, Wh, b), vjp)


def leaky_relu(a, slope=0.1):
    a = _wrap(a)
    factor = np.where(a.data > 0, 1.0, slope)
    return _op(a.data * factor, (a,), lambda g: (g * factor,))


def logaddexp(a, b):
    a, b = _wrap(a), _wrap(b)
    out = np.logaddexp(a.data, b.data)

    def vjp(g):
        wa = _expit(a.data - b.data)
        return (_unbroadcast(g * wa, a.data.shape),
                _unbroadcast(g * (1.0 - wa), b.data.shape))

    return _op(out, (a, b), vjp)


def logsumexp(a, axis):
    a = _wrap(a)
    m = np.max(a.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a.data - m), axis=axis)) + np.squeeze(m, axis=axis)

    def vjp(g):
        soft = np.exp(a.data - np.expand_dims(out, axis))
        return (np.expand_dims(g, axis) * soft,)

    return _op(out, (a,), vjp)


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes only where strictly inside."""
    a = _wrap(a)
    mask = (a.data > lo) & (a.data < hi)
    return _op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))
