"""Loopy belief propagation unrolled for a fixed number of iterations.

Because every pairwise factor touches exactly two edge variables,
factor-to-variable and variable-to-factor messages collapse into a single
directed variable-to-variable message per factor direction. Every message
is normalized, so it is carried as its log-odds r = log m(1) - log m(0).
With l the belief logit of each edge, the message from edge u into edge v
through a part with score s is

    cavity      c     = l[u] - r[v->u]
    message     r_new = softplus(c + s) - softplus(c)

and the beliefs are

    l      = unary + sum of the incoming r_new
    log b1 = -softplus(-l),   log b0 = -softplus(l).

This is the normalized log-space recipe (m(0) = logaddexp(cav0, cav1),
m(1) = logaddexp(cav0, cav1 + s)) with the common cav0 divided out, so no
probability floors are needed.

l is an (n+1) x (n+1) head-by-dependent grid, and the messages are dense
(n+1)^3 tensors, one per direction of each part type
(``potentials.MESSAGES``):

    type     tensor      carries          reverse message   incoming sum
    sib      r[i,j,k]    (i,j) -> (i,k)   r[i,k,j]          over axis 1
    cop      r[i,k,j]    (i,j) -> (k,j)   r[k,i,j]          over axis 0
    gp down  d[i,j,k]    (i,j) -> (j,k)   u                 over axis 0
    gp up    u[i,j,k]    (j,k) -> (i,j)   d                 over axis 2

Each update is ``message_kernel``, below, on arrays: it takes the source
grid broadcast along one axis, the aligned reverse tensor (none on the
first sweep) and the type's score tensor s, and computes the message as

    r_new = log1p(logistic(c) * E),   E = expm1(s),

with one exponential, for logistic(c). E depends only on the scores, so
``lbp_run`` computes it once per part type (``message_shift``) for both
directions and every sweep. Cells where logistic(c) * E < -1/2 (1 + it
could cancel) or |s| > ``SHIFT_BOUND`` take the two-softplus form above.
A score tensor is 0 off its type's geometry, where E = 0 and the message
is exactly 0, so no message needs a mask. With no part (a one-word
sentence, or every part type off) a sweep sends nothing, and every
iterate is the unary grid. Updates are synchronous; messages start at 0.

All T sweeps are one autodiff node, the last logit grid, with the edge
scores and the score tensors as parents; only that grid carries gradient.
It keeps logistic(c) of every message and sweep, the few guarded cells'
logistic(c + s) and each part type's E: the earlier grids go to the
state as constants, and each sweep's messages only to ``on_sweep``. Its
backward walks the sweeps in reverse once and computes no exponential.
It rebuilds each message's logistic(c + s) = (logistic(c) + P) / (1 + P),
P = logistic(c) E (``shifted_logistic``), by the forward's own
operations, so it is bitwise the forward's value, in the buffer that
becomes the message's score gradient. A message's gradient (its target
grid's, broadcast, less the aligned cavity gradient of the next sweep's
message that read it as its reverse) is written into that cavity
gradient's buffer, and each part type's score gradient is summed in
place. When the node would not be recorded (``autodiff.records``: under
``autodiff.no_grad``, or when no input requires gradients) no logistic
is kept, the message is computed in its cavity's buffer, and the last
grid is a constant too.

Layout and buffers. Every arithmetic pass over (n+1)^3 arrays runs on
C-ordered operands: a pass over arrays of different memory orders
strides through one of them, at two to three times the cost, so a
change of layout is one explicit copy. A sib or cop message reads its
reverse through a transposed view, so its cavity copies that view into
C order first; its kept logistic(c) and the message are C-ordered. Each
message of the previous sweep is released once the message that reads
it as its reverse has run, and without ``on_sweep`` the last sweep's
messages live only until they are summed. The backward takes every
(n+1)^3 buffer from the ones it has freed before it allocates one. It
keeps each cavity gradient in the layout whose aligned view is
C-ordered (a copy for sib and cop), so the next sweep's message
computes its own gradient in that buffer in place. A layout changes one
thing, the order in which an axis sum adds: numpy adds pairwise along
the innermost axis of memory and in index order along any other. The
order of each cavity gradient's sum over its source axis is fixed by
the node's reference form (``tests/lbp_reference.py``): pairwise on
every second sweep from the last, in index order on the others. Each is
summed from an array laid out so, a copy where its own layout is not,
and every gradient is bitwise the reference's.

The state (``potentials.InferenceState``) keeps the grid l of each
iteration and reads the edges' beliefs from l through the edge mask:
b1 = exp(-softplus(-l)) is the logistic of l. The message arithmetic
below takes and returns arrays and serves only ``lbp_run`` and its
backward; it is not exported.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import _softplus_and_logistic
from .errors import ConfigError
from .potentials import _MIRROR, MESSAGES, InferenceState, aligned

__all__ = ["lbp_run"]


# a grid indexed with a unit axis at position 0, 1 or 2 (a view)
_UNIT = ((None,), (slice(None), None), (slice(None), slice(None), None))


def lbp_run(pot, iterations=3, on_sweep=None):
    """Belief trajectory of ``iterations`` synchronous sweeps, each sending
    every message from the previous snapshot, then summing fresh beliefs.
    Messages start uniform (log-odds 0), so iteration 0's beliefs are the
    normalized unaries. Only the last grid carries gradient. ``on_sweep``,
    when given, is called after each sweep with its messages (name of
    ``MESSAGES`` -> (n+1)^3 array, which the caller must not write)."""
    if iterations < 1:
        raise ConfigError(f"iterations must be >= 1, got {iterations}")
    state = InferenceState(pot, [pot.edge_scores])
    names = [name for name, spec in MESSAGES.items() if spec[0] in pot.scores]
    scores = {kind: s.data for kind, s in pot.scores.items()}
    shifts = {kind: message_shift(s) for kind, s in scores.items()}
    parents = (pot.edge_scores,) + tuple(pot.scores.values())
    keep = ad.records(parents)
    logistics = []      # per sweep, name -> (logistic(c), guarded cells) if kept
    grid, previous = pot.edge_scores.data, {}
    for sweep_index in range(iterations):
        # the last sweep's messages are read only by its sums, and the hook
        messages = {} if on_sweep is not None or sweep_index < iterations - 1 else None
        sweep = {}
        total = pot.edge_scores.data
        for name in names:
            kind, source, target, reverse = MESSAGES[name]
            message, logistic, guarded = message_kernel(
                grid[_UNIT[source]], aligned(previous[reverse], kind) if previous else None,
                scores[kind], shifts[kind], keep)
            # each message is read as a reverse once: release it
            previous.pop(reverse, None)
            if messages is not None:
                messages[name] = message
            if keep:
                sweep[name] = logistic, guarded
            total = total + message.sum(axis=target)
            del message
        logistics.append(sweep)
        state.logits.append(ad.constant(total))
        if on_sweep is not None:
            on_sweep(messages)
        # a copy, so that releasing its arrays leaves the hook's dict whole
        grid, previous = total, {} if messages is None else dict(messages)
    if keep:
        state.logits[-1] = ad.Tensor(total, requires_grad=True, _parents=parents,
                                     _vjp=_unrolled_vjp(names, logistics, shifts))
    return state


def _unrolled_vjp(names, logistics, shifts):
    """The backward of the unrolled sweeps: last grid's gradient ->
    (edge-score gradient, one gradient per score tensor in ``shifts``
    order). Each message's logistic(c + s) is rebuilt from its kept
    logistic(c) and its type's expm1(s) in the buffer that becomes its
    score gradient. It writes only into arrays it allocates, and takes
    every (n+1)^3 buffer from the ones it has freed before it allocates
    one."""
    expm1 = {kind: shift[0] for kind, shift in shifts.items()}

    def vjp(g):
        grid_grad, edge_grad, score_grads, carry, spare = g, g, {}, {}, []

        def buffer():
            return spare.pop() if spare else np.empty(g.shape[:1] * 3)

        def free(array):
            spare.append(array if array.base is None else array.base)

        for position, sweep in enumerate(reversed(logistics), 1):
            source_grad, cavity_grads = 0.0, {}
            last = position == len(logistics)
            for name in names:
                kind, source, target, reverse = MESSAGES[name]
                logistic, guarded = sweep[name]
                incoming = grid_grad[_UNIT[target]]
                work = buffer()
                ds = shifted_logistic(logistic, expm1[kind], guarded, out=buffer(), work=work)
                free(work)
                if carry:
                    # less the aligned cavity gradient of the next sweep's
                    # message that read this one as its reverse, in its buffer
                    grad = aligned(carry.pop(reverse), kind)
                    np.subtract(incoming, grad, out=grad)
                    ds *= grad
                    grad *= logistic
                else:
                    ds *= incoming
                    grad = np.multiply(logistic, incoming, out=buffer())
                # d/dc = d/ds - grad * logistic(c), written over the gradient
                np.subtract(ds, grad, out=grad)
                if kind in score_grads:
                    score_grads[kind] += ds
                    free(ds)
                else:
                    score_grads[kind] = ds
                # kept for the message that reads this one as its reverse in
                # the layout whose aligned view is C-ordered
                kept = None if last else grad if kind not in _MIRROR else _copy(
                    grad, aligned(buffer(), kind))
                summed = next((a for a in (grad, kept) if a is not None
                               and _adds_in_order(a, source, position)), None)
                if summed is None:
                    summed = _copy(grad, np.moveaxis(
                        buffer(), 2, source if position % 2 == 0 else target))
                source_grad = source_grad + summed.sum(axis=source)
                if summed is not grad and summed is not kept:
                    free(summed)
                if grad is not kept:
                    free(grad)
                if kept is not None:
                    cavity_grads[name] = kept
            # every grid is the edge scores plus its sweep's messages
            edge_grad = edge_grad + source_grad
            grid_grad, carry = source_grad, cavity_grads
        return (edge_grad,) + tuple(score_grads[kind] for kind in expm1)

    return vjp


def _copy(array, out):
    np.copyto(out, array)
    return out


def _adds_in_order(array, source, position):
    """Whether ``array``'s sum over the source axis adds in the order the
    reference form fixes at ``position`` (1 for the last sweep; module
    docstring): pairwise, which numpy does along the innermost axis of
    memory, on every second sweep from the last, and in index order,
    which it does along any other axis, on the others."""
    return (int(np.argmin(array.strides)) == source) == (position % 2 == 0)


def _two_softplus(c, s):
    """(softplus(c + s) - softplus(c), logistic(c), logistic(c + s)), each
    from one shared e^-|x|: the message form that holds at every (c, s),
    used by ``message_kernel`` where its one-exponential form would not."""
    soft_shifted, logistic_shifted = _softplus_and_logistic(c + s)
    soft, logistic = _softplus_and_logistic(c)
    soft_shifted -= soft
    return soft_shifted, logistic, logistic_shifted


# |s| beyond which a message takes the two-softplus form, so that every
# expm1(s) the one-exponential form reads is finite and above -1
SHIFT_BOUND = 30.0


def message_shift(s):
    """The per-score-tensor half of ``message_kernel``: (expm1(s), the mask
    of cells where |s| > SHIFT_BOUND, or None when there is none). The
    scores are fixed for a sentence, so every message through them, in
    both directions and every sweep, shares one shift."""
    if not (s.max() > SHIFT_BOUND or s.min() < -SHIFT_BOUND):
        return np.expm1(s), None
    wide = np.abs(s) > SHIFT_BOUND
    return np.expm1(np.where(wide, 0.0, s)), wide


def message_kernel(source, reverse, s, shift, keep=False):
    """The loopy-BP message softplus(c + s) - softplus(c) of the cavity
    c = source - reverse (``reverse`` None: c = source), on arrays.
    ``source`` broadcasts against the score array ``s``, which has the
    message's shape, as ``reverse`` has; ``shift`` is ``message_shift(s)``.
    Returns (message, logistic(c), guarded). The message's derivatives are
    d/ds = logistic(c + s) and d/dc = logistic(c + s) - logistic(c) =
    -d/dreverse; ``shifted_logistic`` rebuilds logistic(c + s) from
    logistic(c), expm1(s) and ``guarded``, with no exponential, so a
    backward pass that keeps logistic(c) computes none. Unless ``keep``,
    logistic(c) and ``guarded`` are None. logistic(c) has the cavity's
    broadcast shape when no cell is guarded, the message's otherwise; the
    message and logistic(c) are C-ordered whatever the layout of
    ``reverse``. ``guarded`` holds the flat indices, in the message, of
    the cells that take the two-softplus form (module docstring) and
    their logistic(c + s) from that form, or is None when no cell is
    guarded.
    """
    expm1_s, wide = shift
    # -c, then e^-c and the logistic of c, in the cavity's one buffer
    if reverse is None:
        logistic = np.negative(source)
    elif reverse.flags.c_contiguous:
        logistic = np.subtract(reverse, source)
    else:
        # a transposed view (sib, cop): copied into C order first
        logistic = np.array(reverse, order="C")
        logistic -= source
    with np.errstate(over="ignore"):
        np.exp(logistic, out=logistic)
    logistic += 1.0
    np.reciprocal(logistic, out=logistic)
    # P = logistic(c) * E, then log1p(P) over it: the message
    reuse = not keep and logistic.shape == s.shape
    out = np.multiply(logistic, expm1_s, out=logistic if reuse else None)
    # a cell is guarded where P < -1/2 (never when the least P is not
    # below it; NaN builds the mask) or |s| > SHIFT_BOUND
    guard = None
    if wide is not None or not out.min() >= -0.5:
        guard = out < -0.5
        if wide is not None:
            guard |= wide
    np.log1p(out, out=out)
    guarded = None
    if guard is not None and guard.any():
        flat = np.flatnonzero(guard)
        cells = np.unravel_index(flat, out.shape)
        c = np.broadcast_to(source, out.shape)[cells]
        if reverse is not None:
            c = c - reverse[cells]
        out[cells], guarded_logistic, guarded_shifted = _two_softplus(c, s[cells])
        if keep:
            if logistic.shape != out.shape:
                logistic = np.array(np.broadcast_to(logistic, out.shape), order="C")
            logistic[cells] = guarded_logistic
            guarded = flat, guarded_shifted
    return out, (logistic if keep else None), guarded


def shifted_logistic(logistic, expm1_s, guarded, out=None, work=None):
    """logistic(c + s) of every cell of a message, from what
    ``message_kernel(..., keep=True)`` returned and E = expm1(s), with no
    exponential: (logistic(c) + P) / (1 + P) with P = logistic(c) E, by
    the kernel's own operations, then the guarded cells written over.
    ``out`` (the message's shape) receives it, and ``work`` (the same
    shape) holds 1 + P, when given."""
    shifted = np.multiply(logistic, expm1_s, out=out)
    scaled = np.add(shifted, 1.0, out=work)
    shifted += logistic
    shifted /= scaled
    if guarded is not None:
        np.put(shifted, *guarded)
    return shifted
