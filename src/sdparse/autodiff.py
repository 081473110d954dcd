"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64. A ``Tensor`` wraps an ndarray plus an optional tape
entry (parent tensors and a vector-Jacobian-product closure). Ops only
record a tape entry when some input requires gradients, so constant
subgraphs cost nothing on the backward pass.

``backward(outputs, seeds)`` runs one reverse sweep. Gradients of interior
nodes are reset at the start of every sweep; gradients of leaves (the
actual parameters) accumulate across sweeps until the caller clears them,
which is what lets a batch sum per-sentence gradients.

The op set is exactly what the parser needs: elementwise arithmetic with
broadcasting, matmul, gather/scatter (take / segment_sum), reductions,
running sums (cumsum), and the handful of stable nonlinearities used by
scoring and inference.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor", "constant", "parameter", "backward",
    "add", "sub", "mul", "div", "neg", "matmul", "transpose",
    "reshape", "concat", "stack", "take", "segment_sum", "tensor_sum", "cumsum",
    "exp", "log", "tanh", "sigmoid", "softplus", "leaky_relu",
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
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def numpy(self):
        return self.data

    def backward(self, seed=None):
        if seed is None:
            seed = np.ones_like(self.data)
        backward([self], [seed])

    # arithmetic sugar
    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return _getitem(self, key)

    @property
    def T(self):
        return transpose(self)

    def sum(self, axis=None, keepdims=False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

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


def transpose(a):
    a = _wrap(a)
    if a.data.ndim != 2:
        raise ValueError("transpose expects a 2D tensor")
    return _op(a.data.T, (a,), lambda g: (g.T,))


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


def stack(tensors, axis=0):
    tensors = [_wrap(t) for t in tensors]

    def vjp(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    return _op(np.stack([t.data for t in tensors], axis=axis), tensors, vjp)


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


def segment_sum(a, segment_ids, num_segments):
    """out[s] = sum of a rows with segment_ids == s. Backward is a gather."""
    a = _wrap(a)
    idx = np.asarray(segment_ids, dtype=np.intp)
    out = np.zeros((num_segments,) + a.data.shape[1:], dtype=np.float64)
    np.add.at(out, idx, a.data)
    return _op(out, (a,), lambda g: (g[idx],))


def tensor_sum(a, axis=None, keepdims=False):
    a = _wrap(a)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shape).copy(),)

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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    a = _wrap(a)
    out = _expit(a.data)
    return _op(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    """log(1 + e^x), computed stably; gradient is the logistic."""
    a = _wrap(a)
    return _op(np.logaddexp(0.0, a.data), (a,), lambda g: (g * _expit(a.data),))


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
