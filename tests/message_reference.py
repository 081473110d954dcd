"""The per-message loopy BP that the one-node unrolled sweeps replaced,
kept as a reference for it, the per-part readout of one sweep's message
tensors that ``trace`` replaced with its own, run-once readout, and the
trace as the JSON document whose text ``trace`` writes
(``reference_trace``), built from those readouts of a run per depth.

Each message update is its own tape node over the message kernel kept in
``lbp_reference`` (``lbp``'s before it worked in C order and in place),
so this reference shares no arithmetic with ``lbp``, and each sweep is
``sweep`` below, a pass over ``potentials.MESSAGES``
(dense mean-field runs the same pass in ``mf._dense_field``): the source
grid reshaped to a unit axis, the reverse tensor aligned by a transpose
node (``transpose_node``, which permutes any axes; ``autodiff.transpose``
is 2-D only), and every message summed into the next grid by a
``tensor_sum`` and an ``add`` node. Every logit grid and message tensor
of the trajectory carries gradient; like ``lbp.lbp_run``, it hands each
sweep's message arrays to an ``on_sweep`` hook.
"""

from __future__ import annotations

import numpy as np

import lbp_reference
import sdparse.autodiff as ad
from sdparse import lbp, mf
from sdparse.potentials import _MIRROR, FORWARD, MESSAGES, InferenceState, aligned


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
    ``shift`` is ``message_shift(s.data)``. The backward reads
    the kernel's logistic(c) and rebuilds logistic(c + s):
    d/ds = logistic(c + s) and d/dc = logistic(c + s) - logistic(c) =
    -d/dreverse."""
    parents = (source, s) if reverse is None else (source, s, reverse)
    out, logistic, guarded = lbp_reference.message_kernel(
        source.data, None if reverse is None else reverse.data, s.data, shift, keep=True)

    def vjp(g):
        ds = g * lbp_reference.shifted_logistic(logistic, shift[0], guarded)
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


def reference_lbp_run(pot, iterations=3, on_sweep=None):
    """``lbp.lbp_run`` with one node per message and sweep."""
    state = InferenceState(pot, [pot.edge_scores])
    shifts = {kind: lbp_reference.message_shift(s.data) for kind, s in pot.scores.items()}
    previous = {}

    def update(kind, reverse, source):
        reverse_tensor = aligned_tensor(previous[reverse], kind) if previous else None
        return cavity_message(source, reverse_tensor, pot.scores[kind], shifts[kind])

    for _ in range(iterations):
        previous, logit = sweep(pot, state.logits[-1], update, pot.edge_scores)
        state.logits.append(logit)
        if on_sweep is not None:
            on_sweep({name: message.data for name, message in previous.items()})
    return state


def last_sweep(run, pot, iterations):
    """(state, the last sweep's message arrays) of ``run(pot, iterations)``
    for an engine with an ``on_sweep`` hook."""
    sweeps = []
    state = run(pot, iterations, on_sweep=sweeps.append)
    return state, sweeps[-1]


def run_with_messages(pot, engine, iterations):
    """(state, the last sweep's message arrays) of a run of ``engine``:
    loopy BP's from its hook, and mean-field's as the tensors of its dense
    field, s_part * Q^{T-1}(src) per name of ``MESSAGES``, from the state's
    grid of iteration T - 1."""
    if engine == "lbp":
        return last_sweep(lbp.lbp_run, pot, iterations)
    state = mf.mf_run(pot, iterations)
    q = ad.mul(ad.sigmoid(state.logits[-2]), ad.constant(pot.edge_set.mask))
    return state, {name: pot.scores[kind].data * np.expand_dims(q.data, source)
                   for name, (kind, source, _, _) in MESSAGES.items() if kind in pot.scores}


def directed_messages(pot):
    """(src_edge, dst_edge, part_type, part) per direction of every pair
    of a LogPotentials, in part order: first the message from the pair's
    second edge into its first, then the reverse. The order of
    ``message_values``."""
    edges = pot.edge_set.edges
    first, second = (ends.tolist() for ends in pot.pair_edges())
    parts = [(kind, tuple(part)) for kind, mask in pot._part_order()
             for part in np.argwhere(mask).tolist()]
    return [message for a, b, (kind, part) in zip(first, second, parts)
            for message in ((edges[b], edges[a], kind, part), (edges[a], edges[b], kind, part))]


def message_values(pot, messages):
    """One sweep's ``messages`` (name -> (n+1)^3 array) at each part of
    ``pot``, in ``directed_messages`` order: into the first edge from the
    aligned reverse tensor, into the second from the forward one."""
    into_first = pot.gather({kind: aligned(messages[MESSAGES[FORWARD[kind]][3]], kind)
                             for kind in pot.scores})
    into_second = pot.gather({kind: messages[FORWARD[kind]] for kind in pot.scores})
    return np.stack([into_first, into_second], axis=1).reshape(-1)


def sweep_values(pot, engine, iterations):
    """``message_values`` of the last sweep of a run of ``engine`` with
    ``iterations`` sweeps."""
    return message_values(pot, run_with_messages(pot, engine, iterations)[1])


def reference_trace(pot, engine, iterations):
    """The document ``trace`` writes for ``engine`` run ``iterations``
    sweeps on a sentence's ``pot`` (default clamp), as a dict: the header
    keys, then per iteration t = 0..T the marginals by edge name, read
    from a taped run of depth t, and one row per directed message of that
    run's last sweep, in ``directed_messages`` order, under the key
    ``value`` (mean-field) or ``log_odds`` (loopy BP)."""
    key = "value" if engine == "mf" else "log_odds"

    def name(edge):
        return f"{edge[0]}->{edge[1]}"

    names = list(map(name, pot.edge_set.edges))
    steps = []
    for t in range(iterations + 1):
        # a one-sweep run holds the grid of depth 0 too
        state, messages = run_with_messages(pot, engine, max(t, 1))
        rows = zip(directed_messages(pot), message_values(pot, messages).tolist()) if t else ()
        steps.append({"iteration": t, "q": dict(zip(names, state.q1(t).tolist())),
                      "messages": [{"src": name(src), "dst": name(dst), "type": kind,
                                    "part": list(part), key: value}
                                   for (src, dst, kind, part), value in rows]})
    return {"n": pot.edge_set.n, "engine": engine, "iterations": iterations, "edges": names,
            "steps": steps}
