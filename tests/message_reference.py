"""The per-message loopy BP that the one-node unrolled sweeps replaced,
kept as a reference for it.

Each message update is its own tape node over ``lbp.message_kernel``,
and each sweep is ``sweep`` below, a pass over ``potentials.MESSAGES``
(dense mean-field runs the same pass in ``mf._dense_field``): the source
grid reshaped to a unit axis, the reverse tensor aligned by a transpose
node (``transpose_node``, which permutes any axes; ``autodiff.transpose``
is 2-D only), and every message summed into the next grid by a
``tensor_sum`` and an ``add`` node. Every logit grid and message tensor
of the trajectory carries gradient; the state keeps the last sweep's
messages.
"""

from __future__ import annotations

import numpy as np

import sdparse.autodiff as ad
from sdparse import lbp
from sdparse.potentials import _MIRROR, MESSAGES, InferenceState


def transpose_node(a, axes):
    """``a`` with its axes permuted by ``axes`` as one node, a view; the
    backward pass applies the inverse permutation."""
    inverse = np.argsort(axes)
    return ad._op(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def aligned_tensor(tensor, kind):
    """``potentials.aligned`` on a Tensor: a transpose node for a
    symmetric part type, the tensor itself for gp."""
    return transpose_node(tensor, _MIRROR[kind]) if kind in _MIRROR else tensor


def cavity_message(source, reverse, s, shift):
    """The message softplus(c + s) - softplus(c) of the cavity
    c = source - reverse (``reverse`` None: c = source) as one node;
    ``shift`` is ``lbp.message_shift(s.data)``. The backward reads
    the kernel's logistic(c) and rebuilds logistic(c + s):
    d/ds = logistic(c + s) and d/dc = logistic(c + s) - logistic(c) =
    -d/dreverse."""
    source, s = ad._wrap(source), ad._wrap(s)
    parents = (source, s) if reverse is None else (source, s, reverse)
    out, logistic, guarded = lbp.message_kernel(
        source.data, None if reverse is None else reverse.data, s.data, shift, keep=True)

    def vjp(g):
        ds = g * lbp.shifted_logistic(logistic, shift[0], guarded)
        dc = g * logistic
        dc = ds - dc
        dsource = ad._unbroadcast(dc, source.data.shape)
        return (dsource, ds) if reverse is None else (dsource, ds, -dc)

    return ad._op(out, parents, vjp)


def sweep(pot, grid, message, total):
    """One synchronous pass over ``MESSAGES`` for every part type of
    ``pot``: the tensor of each message is ``message(kind, reverse,
    source)``, where ``source`` is the (n+1) x (n+1) ``grid`` with a unit
    axis at the message's source axis, and its sum over the target axis is
    added to ``total``. Returns (message name -> tensor, total)."""
    messages = {}
    for name, (kind, source, target, reverse) in MESSAGES.items():
        if kind in pot.scores:
            shape = grid.shape[:source] + (1,) + grid.shape[source:]
            messages[name] = message(kind, reverse, ad.reshape(grid, shape))
            total = ad.add(total, ad.tensor_sum(messages[name], axis=target))
    return messages, total


def reference_lbp_run(pot, iterations=3):
    """``lbp.lbp_run`` with one node per message and sweep."""
    state = InferenceState(pot, [pot.edge_scores])
    shifts = {kind: lbp.message_shift(s.data) for kind, s in pot.scores.items()}

    def update(kind, reverse, source):
        previous = state.messages
        reverse_tensor = aligned_tensor(previous[reverse], kind) if previous else None
        return cavity_message(source, reverse_tensor, pot.scores[kind], shifts[kind])

    for _ in range(iterations):
        state.messages, logit = sweep(pot, state.logits[-1], update, pot.edge_scores)
        state.logits.append(logit)
    return state
