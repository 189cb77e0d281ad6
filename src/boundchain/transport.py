"""Greedy discrete transport: the one-mass fill Pi and the plan Pi-bar.

Pi[x, u] routes a scalar mass x through the sequence u in index order.
Pi-bar[a, b] stacks those fills for the prefixes of a, producing a plan
with row sums a, column sums b and support on the upper triangle whenever
the prefixes of a dominate the prefixes of b.

Pi-bar is the north-west-corner rule: row k is nonzero only on the slots of
b that the prefix masses A_{k-1} and A_k fall between.  One private walk
yields just those entries, on Python floats, from the nonzero entries of a
and b.  ``pi_bar`` fills its dense plan from it and the coupling row builder
reads it directly; every sum is taken in numpy's order, so both give the
floats of the dense formula.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate

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
    Pi[a_{0:k}, b] - Pi[a_{0:k-1}, b]; only its nonzero entries are
    computed.  Under domination the plan is zero strictly below the
    diagonal, which is what the coupling construction needs; a violated
    prefix therefore doubles as a runtime check that the candidate chain
    really bounds the network.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ia = np.flatnonzero(a)
    ib = np.flatnonzero(b)
    entries = _walk(list(zip(ia.tolist(), a[ia].tolist())),
                    list(zip(ib.tolist(), b[ib].tolist())),
                    float(a.sum()), float(b.sum()), min(len(a), len(b)), rtol)
    plan = np.zeros((len(a), len(b)))
    if entries:
        k, j, value = zip(*entries)
        plan[k, j] = value
    return plan


def _walk(a, b, total_a: float, total_b: float, n: int,
          rtol: float = 1e-12) -> list:
    """Nonzero entries (k, j, value) of Pi-bar[a, b], row by row.

    ``a`` and ``b`` list the nonzero (index, mass) pairs of two sequences in
    index order, ``total_a`` and ``total_b`` are numpy's sums of the whole
    sequences and ``n`` is the shorter length.  With A and P the running
    sums of a and b, B = total_b and P_j the mass before slot j, entry
    (k, j) is clip(min(A_k, B) - P_j, 0, b_j) - clip(min(A_{k-1}, B) - P_j,
    0, b_j), the dense formula; every slot outside the stretch that A_{k-1}
    and A_k fall in gives b_j - b_j or 0 - 0, exactly zero, and is skipped.
    """
    if (any(not m >= -1e-15 for _, m in a)
            or any(not m >= -1e-15 for _, m in b)):
        raise ValidationError("mass sequences must be nonnegative")
    scale = max(1.0, total_a, total_b)
    tol = rtol * scale
    if abs(total_a - total_b) > tol:
        raise TransportError(
            f"total masses differ: {total_a} vs {total_b}", index=None
        )
    # running sums in index order, as np.cumsum adds them
    cum_a = list(accumulate(m for _, m in a))
    cum_b = list(accumulate(m for _, m in b))
    # the prefixes change only at a nonzero entry, so compare them there
    at_a = dict(zip((k for k, _ in a), cum_a))
    at_b = dict(zip((k for k, _ in b), cum_b))
    ca = cb = 0.0
    for k in sorted(at_a.keys() | at_b.keys()):
        if k >= n:
            break
        ca = at_a.get(k, ca)
        cb = at_b.get(k, cb)
        if ca < cb - tol:
            raise TransportError(
                f"prefix domination fails at index {k}: "
                f"a[0:{k}] = {ca} < b[0:{k}] = {cb}",
                index=k,
            )
    before = [0.0] + cum_b[:-1]
    # slot j can only take mass m when P_j < m <= P_j + b_j; a tiny negative
    # b_j breaks the order of P, so bisect its running bounds instead
    reach = list(accumulate(cum_b, max))
    floor = list(accumulate(reversed(before), min))[::-1]
    B = total_b
    noise = 1e-15 * scale
    out = []
    m0 = 0.0 if 0.0 <= B else B
    for (k, _), A in zip(a, cum_a):
        m1 = A if A <= B else B
        lo, hi = (m0, m1) if m0 <= m1 else (m1, m0)
        for i in range(bisect_left(reach, lo), bisect_left(floor, hi)):
            p = before[i]
            j, bj = b[i]
            value = min(max(m1 - p, 0.0), bj) - min(max(m0 - p, 0.0), bj)
            # greedy differences can leave -1e-17 noise; genuine negatives
            # cannot occur
            if value >= noise:
                out.append((k, j, value))
            elif value <= -noise:
                raise TransportError("plan has a negative entry", index=None)
        m0 = m1
    return out


def _numpy_sum(entries, n: int) -> float:
    """numpy's sum of the length-``n`` array whose nonzero ``entries`` are given.

    numpy adds a float array pairwise: fewer than 8 terms in order, up to
    128 in 8 interleaved partial sums, a longer one as two halves.  The
    partial sum a term joins depends on its index, so each entry is added
    at its dense position; the zeros between them change nothing.
    """
    return 0.0 + _pairwise(entries, 0, n)


def _pairwise(entries, start: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for _, m in entries:
            total += m
        return total
    if n <= 128:
        r = [0.0] * 8
        rest = []
        cut = start + n - n % 8
        for k, m in entries:
            if k < cut:
                r[(k - start) % 8] += m
            else:
                rest.append(m)
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for m in rest:
            total += m
        return total
    half = n // 2
    half -= half % 8
    cut = bisect_left(entries, (start + half,))
    return (_pairwise(entries[:cut], start, half)
            + _pairwise(entries[cut:], start + half, n - half))
