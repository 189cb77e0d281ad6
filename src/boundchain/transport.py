"""Greedy discrete transport: the one-mass fill Pi and the plan Pi-bar.

Pi[x, u] routes a scalar mass x through the sequence u in index order.
Pi-bar[a, b] stacks those fills for the prefixes of a, producing a plan
with row sums a, column sums b and support on the upper triangle whenever
the prefixes of a dominate the prefixes of b.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


class TransportError(ValidationError):
    """Prefix domination (or mass balance) fails; carries the first bad index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def pi(x, u) -> np.ndarray:
    """Greedy fill of mass ``x`` into slots ``u``: min(max(x - u_{0:k-1}, 0), u_k).

    ``x`` may be an array of masses; the result then holds one fill per mass,
    with shape ``x.shape + u.shape``.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    total = float(u.sum())
    scale = max(1.0, total)
    bad = (x < -1e-12 * scale) | (x > total + 1e-12 * scale)
    if bad.any():
        raise TransportError(f"mass {x[bad].flat[0]} outside [0, {total}]")
    prev = np.concatenate(([0.0], np.cumsum(u)[:-1]))
    return np.clip(x[..., None] - prev, 0.0, u)


def pi_bar(a, b, rtol: float = 1e-12) -> np.ndarray:
    """Transport plan with row sums ``a`` and column sums ``b``.

    Requires equal totals and prefix domination a_{0:k} >= b_{0:k}; both are
    checked with relative slack ``rtol``.  Row k of the result is
    Pi[a_{0:k}, b] - Pi[a_{0:k-1}, b], every row from one broadcast fill.
    Under domination the plan is zero strictly below the diagonal, which is
    what the coupling construction needs; a violated prefix therefore
    doubles as a runtime check that the candidate chain really bounds the
    network.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if (a < -1e-15).any() or (b < -1e-15).any():
        raise ValidationError("mass sequences must be nonnegative")
    scale = max(1.0, float(a.sum()), float(b.sum()))
    tol = rtol * scale
    if abs(a.sum() - b.sum()) > tol:
        raise TransportError(
            f"total masses differ: {a.sum()} vs {b.sum()}", index=None
        )
    cum_a = np.cumsum(a)
    cum_b = np.cumsum(b)
    n = min(len(a), len(b))
    bad = np.flatnonzero(cum_a[:n] < cum_b[:n] - tol)
    if bad.size:
        k = int(bad[0])
        raise TransportError(
            f"prefix domination fails at index {k}: "
            f"a[0:{k}] = {cum_a[k]} < b[0:{k}] = {cum_b[k]}",
            index=k,
        )
    # a row with a_k = 0 is Pi[A_k] - Pi[A_k] = 0, so fill only where a_k != 0
    k = np.flatnonzero(a)
    mass = np.minimum(np.concatenate(([0.0], cum_a)), float(b.sum()))
    fill = pi(np.stack([mass[k + 1], mass[k]]), b)
    rows = fill[0] - fill[1]
    # greedy differences can leave -1e-17 noise; genuine negatives cannot occur
    rows[np.abs(rows) < 1e-15 * scale] = 0.0
    if (rows < 0).any():
        raise TransportError("plan has a negative entry", index=None)
    plan = np.zeros((len(a), len(b)))
    plan[k] = rows
    return plan
