"""The one-direction LSTM node that ``autodiff.bilstm`` replaced, kept as
a reference for it: two of these, the backward one over the rows
reversed by ``take``, joined by a ``take`` and a ``concat``, are what
one fused layer must reproduce bit for bit.
"""

from __future__ import annotations

import numpy as np

from sdparse.autodiff import _expit, _op


def lstm(x, Wx, Wh, b, recur_mask=None):
    """One LSTM direction over the rows of ``x`` (T, in), as one tape node.

    Gates are stacked i, f, g, o in the 4h rows of ``Wx`` (4h, in), ``Wh``
    (4h, h) and ``b`` (4h,); h_0 = c_0 = 0, and ``recur_mask`` (an (h,)
    array), when given, scales h_{t-1} before it enters ``Wh``. Returns
    H (T, h).
    """
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
