"""Minimal reverse-mode automatic differentiation over numpy arrays.

Everything is float64 but a boolean array, which stays boolean as a
constant factor (a mask): its product with a float64 array, and that
product's vjp, are bitwise the float ones. A ``Tensor`` wraps an ndarray
plus an optional tape entry (parent tensors and a vector-Jacobian-product
closure); it has no operators. Every op takes Tensor operands only and
converts none: wrap an array or a number with ``constant`` (or
``parameter``) first. Ops only record a tape entry while grad is on and
some input requires gradients, so constant subgraphs cost nothing on the
backward pass. Grad is on unless a ``no_grad()`` block is open: inside
one every op returns a constant, so a forward-only call (a parse, a
trace, a finite-difference loss) keeps no backward state.

``backward(output, seed)`` runs one reverse sweep. An interior node's
gradient is freed as soon as its parents' gradients are taken, so a sweep
holds only the gradients it has yet to pass on, and after it only the
output keeps its own (its seed, reset at the start of the next sweep).
The vjp closures stay, so the same graph can be swept again. Gradients of
leaves (the actual parameters) accumulate across sweeps until the caller
clears them, which is what lets a batch sum per-sentence gradients. A leaf
gradient that ``backward`` itself allocated is accumulated in place; one
that may share memory with anything else (a view, another node's
gradient, an array set by the caller) is replaced by a fresh sum first,
so no array but that leaf's own gradient ever changes. A sweep can tell a
caller of each leaf as soon as its gradient is final (``on_leaf``).

The op set is what the parser needs: elementwise arithmetic with
broadcasting, a 2-D matmul and ``linear`` (x @ W^T, whose W gradient is
fresh), the 2-D transpose, gathers (take), reductions, stable
nonlinearities, and two fused nodes: ``bilstm``, a whole bidirectional
LSTM layer (no per-token tape entries), and ``prefix_trilinear``, the
running-sum term of the factored mean-field field. A module that builds
its own node (``lbp.lbp_run``'s unrolled sweeps, ``potentials``' part
scores) wraps its arrays in a ``Tensor`` with parents and a vjp; this
module imports no other module of the package.
"""

from __future__ import annotations

import contextlib
import weakref

import numpy as np

__all__ = [
    "Tensor", "constant", "parameter", "backward", "no_grad", "records",
    "add", "sub", "mul", "neg", "matmul", "linear", "transpose",
    "reshape", "concat", "take", "tensor_sum", "prefix_trilinear",
    "sigmoid", "softplus", "leaky_relu", "bilstm", "logsumexp", "clamp",
]


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_owned")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        bool_array = isinstance(data, np.ndarray) and data.dtype == np.bool_
        self.data = data if bool_array else np.asarray(data, dtype=np.float64)
        self.grad = None
        self._owned = None   # a weak reference to the leaf gradient backward owns
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def constant(data):
    return Tensor(data, requires_grad=False)


def parameter(data):
    return Tensor(data, requires_grad=True)


_grad_on = True


@contextlib.contextmanager
def no_grad():
    """Turn grad off for the block: no op records a tape entry, so every
    result is a constant. Nested blocks and exceptions restore the flag
    the block found."""
    global _grad_on
    previous, _grad_on = _grad_on, False
    try:
        yield
    finally:
        _grad_on = previous


def records(parents):
    """Whether an op on ``parents`` records a tape entry: grad is on and
    some parent requires gradients."""
    return _grad_on and any(p.requires_grad for p in parents)


def _op(data, parents, vjp):
    if records(parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _vjp=vjp)
    return Tensor(data)


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        # a 0-d array, not a numpy scalar, so a scalar leaf can own it
        grad = np.asarray(grad.sum(axis=tuple(range(extra))))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    # a fresh sum that already has the shape stays an array of its own
    return grad if grad.shape == shape else grad.reshape(shape)


def backward(output, seed, on_leaf=None):
    """Reverse sweep from ``output`` seeded with ``seed``.

    Interior-node gradients are cleared first so a tensor reused across
    sweeps cannot leak stale gradient, and each is set to None again once
    its parents' gradients are taken: after the sweep only ``output``
    holds a gradient among the interior nodes. Leaf gradients accumulate.

    A leaf's gradient is added to in place only while it is an array this
    function owns: either a vjp result that is a fresh array no one else
    holds, or a sum this function allocated. A vjp result is not owned
    when it is a view (a read-only broadcast from ``tensor_sum``, a
    ``reshape``, ``transpose`` or ``concat`` slice), the node's own
    gradient passed through (``add``), or an array the vjp returns to two
    parents; such a first gradient is kept as is and the next addition
    allocates the sum. The ownership is a weak reference to the array, so
    a gradient the caller sets or clears is never written into. A leaf
    gradient read between sweeps is therefore updated by later sweeps:
    copy it to keep a snapshot.

    ``on_leaf``, when given, is called with each leaf below ``output``
    that holds a gradient, once, as soon as the vjp of the last node that
    reads it has run: from then on this sweep neither changes the leaf's
    gradient nor reads its ``.data``, so the callback may overwrite the
    data in place (an optimizer step) while the sweep goes on. Two rules
    of every op and node keep that true:

    - a vjp reads a tensor's ``.data`` only if that tensor is one of its
      node's parents (a view of a leaf's data, such as a ``transpose``
      node's, is read only by nodes that run before that node);
    - no vjp writes into an array that was handed to a leaf as its
      gradient: it writes only into arrays it allocates.
    """
    topo = []
    visited = set()
    stack = [(output, False)]
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

    # leaf -> the reads of it by nodes whose vjp has yet to run
    readers = {}
    for node in topo:
        if node._vjp is not None:
            node.grad = None
            if on_leaf is not None:
                for p in node._parents:
                    if p.requires_grad and p._vjp is None:
                        readers[p] = readers.get(p, 0) + 1

    g = np.broadcast_to(np.asarray(seed, dtype=np.float64), output.data.shape)
    output.grad = np.array(g) if output.grad is None else output.grad + g

    for node in reversed(topo):
        if node._vjp is None:
            continue
        if node.grad is not None:
            _pass_down(node, output)
        if on_leaf is not None:
            for p in node._parents:
                if p in readers:
                    readers[p] -= 1
                    if not readers[p] and p.grad is not None:
                        on_leaf(p)


def _pass_down(node, output):
    """Add ``node``'s vjp of its gradient into its parents' gradients, then
    free its own unless it is ``output``."""
    pgrads = node._vjp(node.grad)
    for parent, pgrad in zip(node._parents, pgrads):
        if pgrad is None or not parent.requires_grad:
            continue
        if parent._vjp is not None:
            parent.grad = pgrad if parent.grad is None else parent.grad + pgrad
        elif parent.grad is None:
            parent.grad = pgrad
            # a numpy scalar is never writeable, so it is never owned
            fresh = (pgrad.base is None and pgrad.flags.writeable
                     and pgrad is not node.grad
                     and sum(other is pgrad for other in pgrads) == 1)
            parent._owned = weakref.ref(pgrad) if fresh else None
        elif parent._owned is not None and parent._owned() is parent.grad:
            parent.grad += pgrad
        else:
            parent.grad = np.add(parent.grad, pgrad, out=np.empty(parent.data.shape))
            parent._owned = weakref.ref(parent.grad)
    # only now: the ownership test above compares with node.grad; the
    # gradients added into the parents' die with this call, so none is
    # held while the next node's vjp runs
    if node is not output:
        node.grad = None


# ---------------------------------------------------------------- arithmetic

def add(a, b):
    return _op(a.data + b.data, (a, b),
               lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))


def sub(a, b):
    return _op(a.data - b.data, (a, b),
               lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))


def mul(a, b):
    """a * b; a constant factor (a mask, a loss weight) gets no gradient,
    so its product is never formed."""
    return _op(a.data * b.data, (a, b),
               lambda g: (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                          _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None))


def neg(a):
    return _op(-a.data, (a,), lambda g: (-g,))


def matmul(a, b):
    """Matrix product of two 2-D tensors."""
    ad, bd = a.data, b.data
    return _op(ad @ bd, (a, b), lambda g: (g @ bd.T, ad.T @ g))


def linear(x, W):
    """x @ W^T for x (T, in) and W (out, in), as one node: W's gradient
    g^T x is a fresh array, so ``backward`` can accumulate a parameter's
    gradient in place (through a ``transpose`` node it would be a view)."""
    xd, Wd = x.data, W.data
    return _op(xd @ Wd.T, (x, W),
               lambda g: (g @ Wd if x.requires_grad else None, g.T @ xd))


def transpose(a):
    """The transpose of a 2-D tensor, a view; the backward pass
    transposes the gradient back."""
    return _op(a.data.T, (a,), lambda g: (g.T,))


def reshape(a, shape):
    old = a.data.shape
    return _op(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors, axis=0):
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _op(np.concatenate([t.data for t in tensors], axis=axis), tensors, vjp)


def take(a, indices):
    """Gather rows (axis 0). Backward scatter-adds, so repeats are fine;
    non-negative indices that strictly increase or strictly decrease name
    each row once, and scatter with one fancy-index add, bitwise the same
    as ``np.add.at`` into zeros."""
    idx = np.asarray(indices, dtype=np.intp)
    shape = a.data.shape

    def vjp(g):
        full = np.zeros(shape, dtype=np.float64)
        flat = idx.ravel()
        step = flat[1:] - flat[:-1]
        if flat.size and (flat.min() < 0 or not (np.all(step > 0) or np.all(step < 0))):
            np.add.at(full, idx, g)
        else:
            full[idx] += g
        return (full,)

    return _op(a.data[idx], (a,), vjp)


def tensor_sum(a, axis=None):
    shape = a.data.shape

    # a read-only broadcast view: no vjp writes into its incoming gradient
    def vjp(g):
        return (np.broadcast_to(g if axis is None else np.expand_dims(g, axis), shape),)

    return _op(a.data.sum(axis=axis), (a,), vjp)


def prefix_trilinear(g, u, v, w):
    """out[s, r] = sum_{k<=s} g[k, r] sum_m u[k,m] v[s,m] w[r,m] for g (N, R),
    u and v (N, M) and w (R, M), as one node in O(N R M).

    The forward takes the running sum P[s, r] = sum_{k<=s} g[k, r] u[k]
    over the N axis in one (N, R, M) buffer, scales it by v[s] in place
    and contracts it with w[r] by a batched matrix product. It keeps no
    (N, R, M) array: the backward rebuilds P.
    """
    gd, ud, vd, wd = g.data, u.data, v.data, w.data

    def running():
        # C order whatever g's strides, so each step adds contiguous slices
        acc = np.multiply(gd[:, :, None], ud[:, None, :], order="C")
        _accumulate(acc)
        return acc

    def contract(x):
        """sum_m x[s, r, m] w[r, m]: one matrix-vector product per r."""
        return np.matmul(x.transpose(1, 0, 2), wd[:, :, None])[:, :, 0].T

    acc = running()
    acc *= vd[:, None, :]

    def vjp(gout):
        acc = running()
        scaled = acc * wd
        dv = np.matmul(gout[:, None, :], scaled)[:, 0, :]
        acc *= vd[:, None, :]
        dw = np.matmul(gout.T[:, None, :], acc.transpose(1, 0, 2))[:, 0, :]
        # d out / d P[s, r] = gout[s, r] v[s] w[r], summed back over s >= k
        back = np.multiply(gout[:, :, None], vd[:, None, :], out=scaled)
        back *= wd
        _accumulate(back, reverse=True)
        dg = np.matmul(back, ud[:, :, None])[:, :, 0]
        du = np.matmul(gd[:, None, :], back)[:, 0, :]
        return dg, du, dv, dw

    return _op(contract(acc), (g, u, v, w), vjp)


def _accumulate(x, reverse=False):
    """Running sum of ``x`` along axis 0, in place, one whole-slice add per
    step: 2-3x faster than np.cumsum on a sentence grid's short axis,
    which np.cumsum accumulates one strided lane at a time."""
    if reverse:
        for k in range(len(x) - 2, -1, -1):
            x[k] += x[k + 1]
    else:
        for k in range(1, len(x)):
            x[k] += x[k - 1]


# ------------------------------------------------------------- nonlinearities

def _expit(x, out=None):
    """Logistic function: 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
    below, so no exponent overflows; into ``out`` when given."""
    e = np.exp(-np.abs(x))
    return np.divide(np.where(x >= 0, 1.0, e), 1.0 + e, out=out)


def sigmoid(a):
    out = _expit(a.data)
    return _op(out, (a,), lambda g: (g * out * (1.0 - out),))


def softplus(a):
    """log(1 + e^x), computed stably; the gradient is the logistic."""
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


def bilstm(x, fw, bw, recur_masks=None):
    """One bidirectional LSTM layer over the rows of ``x`` (T, in): H
    (T, 2h), the forward direction's states then the backward direction's,
    each row at its position.

    ``fw`` and ``bw`` are each direction's (Wx, Wh, b) tensors, gates
    stacked i, f, g, o in the 4h rows of Wx (4h, in), Wh (4h, h) and b
    (4h,); the backward direction runs over the rows reversed. h_0 = c_0 =
    0, and ``recur_masks`` (two (h,) arrays, forward then backward), when
    given, scales h_{t-1} before it enters Wh. The tape holds three nodes:
    each direction's input projection of every row, one matrix product
    (``_projection``), and the recurrence, whose one loop steps both
    directions over stacked (2, .) arrays, each with its own recurrent
    product. Its backward loop fills the (2, T, 4h) gate gradients, after
    which every parameter gradient is one product; each projection takes
    its Wx and b gradients in its own node, so no more than one
    direction's input weights' gradients are held at a time. Every value
    is bitwise that of two one-direction nodes joined by row reversals
    and a concat.
    """
    T, h = x.data.shape[0], fw[1].data.shape[1]
    projected = [_projection(x, Wx, b, reverse) for (Wx, _, b), reverse in ((fw, False),
                                                                            (bw, True))]
    pre = np.stack([p.data for p in projected])
    Wh = [fw[1].data, bw[1].data]
    mask = None if recur_masks is None else np.stack(recur_masks)
    acts = np.empty_like(pre)           # sigmoid(i, f, o) and tanh(g)
    cells = np.empty((2, T, h))
    tanh_c = np.empty((2, T, h))
    H = np.empty((2, T, h))
    H_in = np.zeros((2, T, h))          # h_{t-1}, masked, as fed to Wh
    c = np.zeros((2, h))

    def gates(block):
        return block[..., :h], block[..., h:2 * h], block[..., 2 * h:3 * h], block[..., 3 * h:]

    for t in range(T):
        if t:
            if mask is None:
                H_in[:, t] = H[:, t - 1]
            else:
                np.multiply(H[:, t - 1], mask, out=H_in[:, t])
        z = np.empty((2, 4 * h))
        for d in (0, 1):
            np.dot(Wh[d], H_in[d, t], out=z[d])
        z += pre[:, t]
        _expit(z, out=acts[:, t])
        np.tanh(z[:, 2 * h:3 * h], out=acts[:, t, 2 * h:3 * h])
        i, f, g, o = gates(acts[:, t])
        c = np.multiply(f, c, out=cells[:, t])
        c += i * g
        np.tanh(c, out=tanh_c[:, t])
        np.multiply(o, tanh_c[:, t], out=H[:, t])
    out = np.concatenate([H[0], H[1, ::-1]], axis=1)

    def vjp(gout):
        # the backward direction's gradient in its own row order, as the
        # scatter of a row reversal leaves it: 0 + g
        gH = np.stack([gout[:, :h], np.add(gout[::-1, h:], 0.0)])
        dG = np.empty_like(acts)
        # the factors that do not depend on the recurrence, for every step
        # at once: 1 - i, 1 - f and 1 - o, 1 - g^2 and 1 - tanh(c)^2
        one_i, one_f, _, one_o = gates(1.0 - acts)
        g_all = gates(acts)[2]
        one_g2 = 1.0 - g_all * g_all
        one_c2 = 1.0 - tanh_c * tanh_c
        dh_rec = np.zeros((2, h))
        dc = np.zeros((2, h))
        for t in range(T - 1, -1, -1):
            i, f, g, o = gates(acts[:, t])
            di, df, dg, do = gates(dG[:, t])
            dh = gH[:, t] + dh_rec
            dc = dh * o * one_c2[:, t] + dc
            np.multiply(dc * g * i, one_i[:, t], out=di)
            np.multiply(dc * (cells[:, t - 1] if t else 0.0) * f, one_f[:, t], out=df)
            np.multiply(dc * i, one_g2[:, t], out=dg)
            np.multiply(dh * tanh_c[:, t] * o, one_o[:, t], out=do)
            dc = dc * f
            dh_rec = np.empty((2, h))
            for d in (0, 1):
                np.dot(dG[d, t], Wh[d], out=dh_rec[d])
            if mask is not None:
                dh_rec *= mask
        return dG[0], dG[1], dG[0].T @ H_in[0], dG[1].T @ H_in[1]

    return _op(out, (*projected, fw[1], bw[1]), vjp)


def _projection(x, Wx, b, reverse):
    """The gate pre-activations rows @ Wx^T + b of one LSTM direction, as
    one node; ``reverse``: over the rows of ``x`` reversed, with the
    gradient given back to them as the scatter of a row reversal leaves
    it (0 + g)."""
    rows = x.data[::-1].copy() if reverse else x.data
    Wxd = Wx.data

    def vjp(g):
        dx = None
        if x.requires_grad:
            dx = g @ Wxd
            if reverse:
                dx = np.add(dx[::-1], 0.0)
        return dx, g.T @ rows, g.sum(axis=0)

    return _op(rows @ Wxd.T + b.data, (x, Wx, b), vjp)


def leaky_relu(a, slope=0.1):
    factor = np.where(a.data > 0, 1.0, slope)
    return _op(a.data * factor, (a,), lambda g: (g * factor,))


def logsumexp(a, axis):
    m = np.max(a.data, axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a.data - m), axis=axis)) + np.squeeze(m, axis=axis)

    def vjp(g):
        soft = np.exp(a.data - np.expand_dims(out, axis))
        return (np.expand_dims(g, axis) * soft,)

    return _op(out, (a,), vjp)


def clamp(a, lo, hi):
    """Clip to [lo, hi]; gradient passes only where strictly inside."""
    mask = (a.data > lo) & (a.data < hi)
    return _op(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))
