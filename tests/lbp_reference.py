"""The loopy BP that ``lbp.lbp_run`` replaced, kept byte for byte as an
independent reference for it: the unrolled sweeps as one node, whose
message kernel computes the cavity in the layout of the reverse message
it reads (a transposed view for sib and cop), allocates every pass's
result, builds the guard mask on every call, and whose backward copies
the broadcast incoming gradient on its first sweep and writes each
cavity gradient into the aligned buffer of the one it read. The values
and every axis sum's order are those ``lbp_run`` must reproduce bit for
bit: a sum's order follows its array's memory layout.
"""

from __future__ import annotations

import numpy as np

import sdparse.autodiff as ad
from sdparse.autodiff import _softplus_and_logistic
from sdparse.errors import ConfigError
from sdparse.potentials import MESSAGES, InferenceState, aligned


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
    for _ in range(iterations):
        messages, sweep = {}, {}
        total = pot.edge_scores.data
        for name in names:
            kind, source, target, reverse = MESSAGES[name]
            message, logistic, guarded = message_kernel(
                np.expand_dims(grid, source),
                aligned(previous[reverse], kind) if previous else None,
                scores[kind], shifts[kind], keep)
            messages[name] = message
            if keep:
                sweep[name] = logistic, guarded
            total = total + message.sum(axis=target)
        logistics.append(sweep)
        state.logits.append(ad.constant(total))
        if on_sweep is not None:
            on_sweep(messages)
        grid, previous = total, messages
    if keep:
        state.logits[-1] = ad.Tensor(total, requires_grad=True, _parents=parents,
                                     _vjp=_unrolled_vjp(names, logistics, shifts))
    return state


def _unrolled_vjp(names, logistics, shifts):
    """The backward of the unrolled sweeps: last grid's gradient ->
    (edge-score gradient, one gradient per score tensor in ``shifts``
    order). Each message's logistic(c + s) is rebuilt from its kept
    logistic(c) and its type's expm1(s) in the buffer that becomes its
    score gradient. It writes only into arrays it allocates."""
    expm1 = {kind: shift[0] for kind, shift in shifts.items()}

    def vjp(g):
        grid_grad, edge_grad, score_grads, carry, scratch = g, g, {}, {}, None
        for sweep in reversed(logistics):
            source_grad, cavity_grads = 0.0, {}
            for name in names:
                kind, source, target, reverse = MESSAGES[name]
                logistic, guarded = sweep[name]
                incoming = np.expand_dims(grid_grad, target)
                if carry:
                    # less the aligned cavity gradient of the next sweep's
                    # message that read this one as its reverse, in its buffer
                    grad = aligned(carry.pop(reverse), kind)
                    np.subtract(incoming, grad, out=grad)
                else:
                    grad = np.array(np.broadcast_to(incoming, expm1[kind].shape))
                ds = shifted_logistic(logistic, expm1[kind], guarded, out=scratch)
                ds *= grad
                grad *= logistic
                # d/dc = d/ds - grad * logistic(c), written over the gradient
                np.subtract(ds, grad, out=grad)
                if kind in score_grads:
                    score_grads[kind] += ds
                    scratch = ds
                else:
                    score_grads[kind], scratch = ds, None
                cavity_grads[name] = grad
                source_grad = source_grad + grad.sum(axis=source)
            # every grid is the edge scores plus its sweep's messages
            edge_grad = edge_grad + source_grad
            grid_grad, carry = source_grad, cavity_grads
        return (edge_grad,) + tuple(score_grads[kind] for kind in expm1)

    return vjp


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
    wide = np.abs(s) > SHIFT_BOUND
    if not wide.any():
        return np.expm1(s), None
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
    broadcast shape when no cell is guarded, the message's otherwise.
    ``guarded`` holds the flat indices, in the message, of the cells that
    take the two-softplus form (module docstring) and their logistic(c + s)
    from that form, or is None when no cell is guarded.
    """
    expm1_s, wide = shift
    # -c, then e^-c and the logistic of c, in the cavity's one buffer
    logistic = np.negative(source) if reverse is None else np.subtract(reverse, source)
    with np.errstate(over="ignore"):
        np.exp(logistic, out=logistic)
    logistic += 1.0
    np.reciprocal(logistic, out=logistic)
    scaled = np.multiply(logistic, expm1_s)
    out = np.log1p(scaled)
    guard = scaled < -0.5
    if wide is not None:
        guard |= wide
    del scaled
    guarded = None
    if guard.any():
        flat = np.flatnonzero(guard)
        cells = np.unravel_index(flat, out.shape)
        c = np.broadcast_to(source, out.shape)[cells]
        if reverse is not None:
            c = c - reverse[cells]
        out[cells], guarded_logistic, guarded_shifted = _two_softplus(c, s[cells])
        if keep:
            if logistic.shape != out.shape:
                logistic = np.array(np.broadcast_to(logistic, out.shape))
            logistic[cells] = guarded_logistic
            guarded = flat, guarded_shifted
    return out, (logistic if keep else None), guarded


def shifted_logistic(logistic, expm1_s, guarded, out=None):
    """logistic(c + s) of every cell of a message, from what
    ``message_kernel(..., keep=True)`` returned and E = expm1(s), with no
    exponential: (logistic(c) + P) / (1 + P) with P = logistic(c) E, by
    the kernel's own operations, then the guarded cells written over.
    ``out`` (the message's shape) receives it when given."""
    shifted = np.multiply(logistic, expm1_s, out=out)
    scaled = shifted + 1.0
    shifted += logistic
    shifted /= scaled
    if guarded is not None:
        np.put(shifted, *guarded)
    return shifted
