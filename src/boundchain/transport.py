"""Greedy discrete transport: the one-mass fill Pi and the plan Pi-bar.

Pi[x, u] routes a scalar mass x through the sequence u in index order.
Pi-bar[a, b] stacks those fills for the prefixes of a, producing a plan
with row sums a, column sums b and support on the upper triangle whenever
the masses are nonnegative and the prefixes of a dominate those of b.
``pi_bar`` accepts a prefix shortfall within a slack of ``RTOL``; the row
after a shortfall then holds at most that much below the diagonal.

Pi-bar is the north-west-corner rule: row k is nonzero only on the slots of
b that the prefix masses A_{k-1} and A_k fall between.  One private walk
finds just those entries, on Python floats, from the nonzero entries of a
and b, and hands them back grouped by row.  ``pi_bar`` fills its dense plan
from them and the coupling row builder reads its plan rows directly.  The
running sums are taken in np.cumsum's order and the totals in numpy's
pairwise order: ``pi_bar`` takes numpy's own sums of its arrays, and the
row builder ``_pairwise_sum`` of its sparse entries on Python floats.  Both
therefore give the floats of the dense formula.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf

import numpy as np

from .errors import ValidationError

RTOL = 1e-12  # relative slack on mass balance and prefix domination


class TransportError(ValidationError):
    """Prefix domination (or mass balance) fails; carries the first bad index."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def pi(x, u) -> np.ndarray:
    """Greedy fill of mass ``x`` into slots ``u``: min(max(x - u_{0:k-1}, 0), u_k).

    ``x`` may be an array of masses; the result then holds one fill per mass,
    with shape ``x.shape + u.shape``.  Masses must be finite and slots finite
    and nonnegative.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValidationError("masses must be finite")
    if not ((u >= 0.0) & (u < inf)).all():
        raise ValidationError("slots must be finite and nonnegative")
    total = float(u.sum())
    scale = max(1.0, total)
    bad = (x < -1e-12 * scale) | (x > total + 1e-12 * scale)
    if bad.any():
        raise TransportError(f"mass {x[bad].flat[0]} outside [0, {total}]")
    prev = np.concatenate(([0.0], np.cumsum(u)[:-1]))
    return np.clip(x[..., None] - prev, 0.0, u)


def pi_bar(a, b) -> np.ndarray:
    """Transport plan with row sums ``a`` and column sums ``b``.

    Requires equal totals and prefix domination a_{0:k} >= b_{0:k}; both are
    checked with relative slack ``RTOL``.  Row k of the result is
    Pi[a_{0:k}, b] - Pi[a_{0:k-1}, b]; only its nonzero entries are
    computed.  Masses must be finite and nonnegative; those in [-1e-15, 0)
    are taken as rounding noise and read as 0.0.  Exact domination then
    makes the plan zero strictly below the diagonal, which is what the
    coupling construction needs; a violated prefix therefore doubles as a
    runtime check that the candidate chain really bounds the network.  A
    shortfall b_{0:k} - a_{0:k} accepted within the slack, at most
    ``RTOL`` times the larger of 1 and the totals, is not zero there: row
    k + 1 holds at most that much strictly below the diagonal.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = np.where((a < 0.0) & (a >= -1e-15), 0.0, a)
    b = np.where((b < 0.0) & (b >= -1e-15), 0.0, b)
    ia = np.flatnonzero(a)
    ib = np.flatnonzero(b)
    rows = _walk(list(zip(ia.tolist(), a[ia].tolist())),
                 list(zip(ib.tolist(), b[ib].tolist())),
                 float(a.sum()), float(b.sum()), min(len(a), len(b)))
    entries = [(k, j, value) for k, row in rows.items() for j, value in row]
    plan = np.zeros((len(a), len(b)))
    if entries:
        k, j, value = zip(*entries)
        plan[k, j] = value
    return plan


def _pairwise_sum(entries, n: int) -> float:
    """numpy's sum of the ``n``-slot row holding these entries.

    ``entries`` lists the row's nonzero (index, value) pairs in index order;
    every other slot is zero.  numpy adds a float64 row pairwise: under 8
    slots one at a time, up to 128 in 8 interleaved lanes combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)) and then the slots
    past the last multiple of 8, and above 128 as two halves split at a
    multiple of 8.  A zero slot leaves every partial sum as it is, so only
    the entries are added, on Python floats, in that order.
    """
    if n > 128:
        mid = n // 2 - n // 2 % 8
        i = bisect_left(entries, (mid,))
        return (_pairwise_sum(entries[:i], mid)
                + _pairwise_sum([(k - mid, m) for k, m in entries[i:]],
                                n - mid))
    if n < 8:
        total = 0.0
        for _, m in entries:
            total += m
        return total
    lane = [0.0] * 8
    end = n - n % 8
    tail = len(entries)
    for i, (k, m) in enumerate(entries):
        if k >= end:
            tail = i
            break
        lane[k % 8] += m
    r0, r1, r2, r3, r4, r5, r6, r7 = lane
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    for _, m in entries[tail:]:
        total += m
    return total


def _walk(a, b, total_a: float, total_b: float, n: int) -> dict:
    """Nonzero entries of Pi-bar[a, b], grouped by row: {k: [(j, value)]}.

    ``a`` and ``b`` list the nonzero (index, mass) pairs of two sequences in
    index order, every mass finite and nonnegative, ``total_a`` and
    ``total_b`` are numpy's sums of the whole sequences and ``n`` is the
    shorter length.  Each index k of ``a`` gets its row, its entries in
    index order.  With A and P the running sums of a and b, B = total_b and
    P_j the mass before slot j, entry (k, j) is
    clip(min(A_k, B) - P_j, 0, b_j) - clip(min(A_{k-1}, B) - P_j, 0, b_j),
    the dense formula; every slot outside the stretch that A_{k-1} and A_k
    fall in gives b_j - b_j or 0 - 0, exactly zero, and is skipped.

    The masses are checked first, then the totals, then prefix domination,
    at b's entries below ``n`` only: between two of them b's prefix is
    constant and a's can only grow, so a's prefix through j first falls
    short of b's at an entry of b, and the first entry that fails is the
    first failing index of the dense check.  The running sums are taken,
    and the prefixes compared, in one loop over each sequence.
    """
    scale = max(1.0, total_a, total_b)
    tol = RTOL * scale
    # running sums in index order, as np.cumsum adds them (-0.0 is the
    # identity of +, so the first sum is the first mass itself)
    cum_a = []
    s = -0.0
    for _, m in a:
        if not 0.0 <= m < inf:
            raise ValidationError(
                "mass sequences must be finite and nonnegative")
        s += m
        cum_a.append(s)
    # P[i] is the mass before b's i-th entry, P[i + 1] the mass through it;
    # a's prefix through slot j ends at its last entry at or before j, which
    # one pointer into a follows
    P = [0.0]
    s = -0.0
    i = 0
    end = len(a)
    short = None
    for j, m in b:
        if not 0.0 <= m < inf:
            raise ValidationError(
                "mass sequences must be finite and nonnegative")
        s += m
        P.append(s)
        if short is None and j < n:
            while i < end and a[i][0] <= j:
                i += 1
            ca = cum_a[i - 1] if i else 0.0
            if ca < s - tol:
                short = j, ca, s
    if abs(total_a - total_b) > tol:
        raise TransportError(
            f"total masses differ: {total_a} vs {total_b}", index=None
        )
    if short is not None:
        j, ca, cb = short
        raise TransportError(
            f"prefix domination fails at index {j}: "
            f"a[0:{j}] = {ca} < b[0:{j}] = {cb}",
            index=j,
        )
    # slot i can only take mass m when P[i] < m <= P[i + 1], so row k's
    # slots run from the first whose P[i + 1] is at least its lower mass m0 to
    # the last whose P[i] lies below its upper mass m1; both masses only
    # grow from row to row, so the first slot only moves forward
    B = total_b
    noise = 1e-15 * scale
    last = len(b)
    out = {}
    m0 = 0.0
    first = 0
    for (k, _), A in zip(a, cum_a):
        m1 = A if A <= B else B
        out[k] = row = []
        while first < last and P[first + 1] < m0:
            first += 1
        i = first
        while i < last and P[i] < m1:
            p = P[i]
            j, bj = b[i]
            # min(max(m - p, 0.0), bj) for m = m1 and m0, without the calls
            hi_fill = m1 - p
            hi_fill = 0.0 if hi_fill < 0.0 else hi_fill
            lo_fill = m0 - p
            lo_fill = 0.0 if lo_fill < 0.0 else lo_fill
            value = ((bj if bj < hi_fill else hi_fill)
                     - (bj if bj < lo_fill else lo_fill))
            # m1 >= m0, so the value is >= 0; the greedy differences can
            # leave noise of about 1e-17 where it should be zero
            if value >= noise:
                row.append((j, value))
            i += 1
        m0 = m1
    return out
