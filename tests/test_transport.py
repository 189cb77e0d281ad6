"""Greedy transport vector and prefix-domination plan."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundchain import TransportError, ValidationError, pi, pi_bar
from boundchain.transport import RTOL, _pairwise_sum

mass_seq = st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=1,
                    max_size=8)


def test_pi_hand_example():
    assert list(pi(3, (2, 2, 2))) == [2.0, 1.0, 0.0]


def test_pi_edges():
    u = (1.0, 0.5, 2.0)
    assert list(pi(0, u)) == [0.0, 0.0, 0.0]
    assert list(pi(3.5, u)) == [1.0, 0.5, 2.0]
    with pytest.raises(TransportError):
        pi(-0.1, u)
    with pytest.raises(TransportError):
        pi(3.6, u)
    for x in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="masses must be finite"):
            pi(x, u)
    for slots in ((-1.0, 2.0), (np.nan, 2.0), (np.inf, 2.0), (1.0, -5e-16)):
        with pytest.raises(ValidationError, match="slots must be finite"):
            pi(1.0, slots)


@given(u=mass_seq, frac=st.floats(0.0, 1.0))
def test_pi_properties(u, frac):
    u = np.asarray(u)
    total = u.sum()
    x = frac * total
    v = pi(x, u)
    # within the factory capacities, ships exactly x, greedy prefix fill
    assert (v >= 0).all() and (v <= u + 1e-12).all()
    assert abs(v.sum() - x) < 1e-9 * max(1.0, total)
    cum = np.cumsum(u)
    filled = cum <= x + 1e-12
    assert np.allclose(v[filled], u[filled], atol=1e-9)


@given(u=mass_seq, f1=st.floats(0.0, 1.0), f2=st.floats(0.0, 1.0))
def test_pi_monotone_lipschitz_in_x(u, f1, f2):
    u = np.asarray(u)
    total = u.sum()
    x1, x2 = sorted((f1 * total, f2 * total))
    v1, v2 = pi(x1, u), pi(x2, u)
    assert (v2 - v1 >= -1e-12).all()
    assert (v2 - v1).sum() <= (x2 - x1) + 1e-9 * max(1.0, total)


def test_pi_bar_hand_example():
    plan = pi_bar((2, 1), (1, 1, 1))
    assert np.array_equal(plan, [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def test_pi_bar_identity():
    a = np.array([0.5, 2.0, 0.0, 1.0])
    plan = pi_bar(a, a)
    assert np.allclose(plan, np.diag(a))


def test_pi_bar_prefix_violation_reports_index():
    with pytest.raises(TransportError) as err:
        pi_bar((0.0, 3.0), (1.0, 2.0))
    assert err.value.index == 0


def test_pi_bar_total_mismatch():
    with pytest.raises(TransportError):
        pi_bar((1.0, 1.0), (1.0, 0.5))
    # an infinite or NaN mass, or one below the -1e-15 slack, is rejected
    # before the totals are compared
    for a, b in (([np.inf, 1.0], [1.0, np.inf]), ([1.0, np.nan], [1.0, 1.0]),
                 ([1.0, -2e-15], [1.0, 0.0])):
        for args in ((a, b), (b, a)):
            with pytest.raises(ValidationError,
                               match="finite and nonnegative") as err:
                pi_bar(*args)
            assert type(err.value) is ValidationError


@st.composite
def dominating_pair(draw):
    """(a, b) with equal totals and prefix sums of a dominating b."""
    b = np.asarray(draw(st.lists(st.floats(0.0, 20.0, allow_nan=False),
                                 min_size=1, max_size=10)))
    total = b.sum()
    n = len(b)
    # move mass of b toward earlier indices to build a
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=n - 1,
                                max_size=n - 1))) if n > 1 else []
    quantiles = np.concatenate([[0.0], np.asarray(cuts), [1.0]]) * total
    a = np.diff(quantiles)
    cum_b = np.cumsum(b)
    cum_a = np.maximum(np.cumsum(a), cum_b)  # force domination
    a = np.diff(np.concatenate([[0.0], cum_a]))
    return a, b


@settings(max_examples=300)
@given(pair=dominating_pair())
def test_pi_bar_marginals_and_triangularity(pair):
    a, b = pair
    plan = pi_bar(a, b)
    scale = max(1.0, b.sum())
    assert np.allclose(plan.sum(axis=1), a, atol=1e-10 * scale)
    assert np.allclose(plan.sum(axis=0), b, atol=1e-10 * scale)
    assert (plan >= 0).all()
    # no mass strictly below the diagonal: entry (k, l) = 0 when k > l
    assert abs(np.tril(plan, -1)).max() == 0.0


def pi_bar_by_rows(a, b):
    """Pi-bar as one greedy fill per row: a reference for pi_bar."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(1.0, float(a.sum()), float(b.sum()))
    cum_a = np.cumsum(a)
    prev = np.concatenate(([0.0], np.cumsum(b)[:-1]))
    prev_fill = np.zeros_like(b)
    plan = np.zeros((len(a), len(b)))
    for k in range(len(a)):
        fill = np.clip(min(cum_a[k], float(b.sum())) - prev, 0.0, b)
        plan[k] = fill - prev_fill
        prev_fill = fill
    plan[np.abs(plan) < 1e-15 * scale] = 0.0
    return plan


def test_pi_bar_matches_row_loop_bit_for_bit():
    # the 1,000 plan cases of acceptance criterion 4, drawn the same way
    rng = np.random.default_rng(42)
    for case in range(1000):
        n = int(rng.integers(1, 13))
        b = rng.uniform(0.0, 3.0, size=n)
        b[rng.uniform(size=n) < 0.2] = 0.0
        if b.sum() == 0.0:
            b[0] = 1.0
        B = np.cumsum(b)
        total = B[-1]
        if case % 10 == 0:
            a = b.copy()
        else:
            A = np.maximum.accumulate(
                np.minimum(B + (total - B) * rng.uniform(size=n), total))
            A[-1] = total
            a = np.diff(A, prepend=0.0)
        plan = pi_bar(a, b)
        want = pi_bar_by_rows(a, b)
        assert plan.shape == want.shape
        assert plan.tobytes() == want.tobytes(), f"fuzz case {case}"


def test_pi_takes_an_array_of_masses():
    u = np.array([1.0, 0.5, 2.0])
    x = np.array([[0.0, 1.2], [3.5, 2.0]])
    fills = pi(x, u)
    assert fills.shape == (2, 2, 3)
    for idx in np.ndindex(x.shape):
        assert np.array_equal(fills[idx], pi(float(x[idx]), u))
    with pytest.raises(TransportError):
        pi(np.array([1.0, 3.6]), u)


def pi_bar_broadcast(a, b, rtol=1e-12):
    """Pi-bar as the row difference of one broadcast fill: the reference.

    Masses in [-1e-15, 0) are read as 0.0, as ``pi_bar`` reads them.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = np.where((a < 0.0) & (a >= -1e-15), 0.0, a)
    b = np.where((b < 0.0) & (b >= -1e-15), 0.0, b)
    if not (np.isfinite(a) & (a >= 0.0)).all() or not (
            np.isfinite(b) & (b >= 0.0)).all():
        raise ValidationError("mass sequences must be finite and nonnegative")
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
    k = np.flatnonzero(a)
    mass = np.minimum(np.concatenate(([0.0], cum_a)), float(b.sum()))
    fill = pi(np.stack([mass[k + 1], mass[k]]), b)
    rows = fill[0] - fill[1]
    rows[np.abs(rows) < 1e-15 * scale] = 0.0
    if (rows < 0).any():
        raise TransportError("plan has a negative entry", index=None)
    plan = np.zeros((len(a), len(b)))
    plan[k] = rows
    return plan


# masses that binary floating point cannot hold exactly, so prefix sums
# round, and a few far apart in size
awkward = st.sampled_from([0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1.1, 2.3, 7.0,
                           1e-9, 1e3])
mass = st.one_of(st.floats(1e-6, 50.0), awkward)


@st.composite
def sparse_plan_inputs(draw):
    """(a, b) of up to 160 entries, few nonzero, with prefix near-ties.

    b has at most 8 nonzero entries between runs of zeros, and now and then
    a zero replaced by -5e-16 (inside the nonnegativity slack).  a's prefix
    sums are b's pushed up by a random share of the remaining mass: a zero
    share is a tie, a repeated prefix a run of zeros in a, and a few
    prefixes are moved one ulp off b's.  Either sequence may carry trailing
    zeros, so the plan need not be square.
    """
    n = draw(st.integers(1, 160))
    k = draw(st.integers(1, min(n, 8)))
    slots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=k,
                                max_size=k)))
    b = np.zeros(n)
    b[slots] = draw(st.lists(mass, min_size=k, max_size=k))
    if draw(st.integers(0, 9)) == 0:
        b[draw(st.integers(0, n - 1))] -= 5e-16
    B = np.cumsum(b)
    total = B[-1]
    share = st.one_of(st.sampled_from([0.0, 0.0, 1.0]), st.floats(0.0, 1.0))
    u = np.asarray(draw(st.lists(share, min_size=n, max_size=n)))
    A = np.maximum.accumulate(np.minimum(B + (total - B) * u, total))
    A[-1] = total
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        tie = np.nextafter(B[i], draw(st.sampled_from([-np.inf, np.inf])))
        A[i] = min(max(tie, A[i - 1] if i else 0.0), A[min(i + 1, n - 1)])
    a = np.diff(A, prepend=0.0)
    pad = np.zeros(draw(st.integers(0, 3)))
    if draw(st.booleans()):
        return np.concatenate([a, pad]), b
    return a, np.concatenate([b, pad])


def outcome(fn, a, b):
    """The plan's shape and bytes, or the exception's type, text and index."""
    try:
        plan = fn(a, b)
    except TransportError as exc:
        return "TransportError", str(exc), exc.index
    except ValidationError as exc:
        return "ValidationError", str(exc)
    return plan.shape, plan.tobytes()


# b's running sum, taken one entry at a time, rounds up at every entry:
# it ends 4.4e-12 above 1, numpy's pairwise sum 2.4e-12 above
ROUNDING_UP = np.array([1.0] + [1.2e-16] * 20_000)


@settings(max_examples=400, deadline=None)
@given(pair=sparse_plan_inputs())
# the first shortfall at an index where both a and b have mass
@example(pair=(np.array([0.5, 0.2, 0.3]), np.array([0.5, 0.4, 0.1])))
# at an index of b alone, between two of a's entries
@example(pair=(np.array([0.5, 0.0, 0.5]), np.array([0.25, 0.5, 0.25])))
# at an entry of b past a's last entry below n
@example(pair=(np.array([0.1, 0.0, 0.0, 0.9]), np.array([0.1, 0.5, 0.4])))
# b's prefix passes a's total by more than the slack only past n = 1,
# which is not checked: the plan is made
@example(pair=(np.array([ROUNDING_UP.sum()]), ROUNDING_UP))
def test_pi_bar_matches_broadcast_fill_bit_for_bit(pair):
    a, b = pair
    # byte equality covers the sign of every zero
    assert outcome(pi_bar, a, b) == outcome(pi_bar_broadcast, a, b)
    assert outcome(pi_bar, b, a) == outcome(pi_bar_broadcast, b, a)


@pytest.mark.parametrize("a, b", [
    ([1 - 1e-13, 1e-13], [1.0, 0.0]),
    ([0.5 - 4e-13, 0.5 + 4e-13], [0.5, 0.5]),
    ([1 - 1e-13, 1.0, 1.0, 1 + 1e-13], [1.0, 1.0, 1.0, 1.0]),
])
def test_an_accepted_shortfall_bounds_the_mass_below_the_diagonal(a, b):
    # domination is checked with slack RTOL * scale, so these prefixes of a
    # fall short of b's and pass; row k + 1 then reaches left of the
    # diagonal by at most the shortfall of prefix k
    a, b = np.asarray(a), np.asarray(b)
    plan = pi_bar(a, b)
    shortfall = np.maximum(np.cumsum(b) - np.cumsum(a), 0.0)[:-1]
    assert shortfall.max() <= RTOL * max(1.0, a.sum(), b.sum())
    below = np.array([plan[k, :k].sum() for k in range(1, len(a))])
    assert below[0] > 0.0
    assert (below <= shortfall).all()


# masses in [-1e-15, 0), inside the nonnegativity slack.  Read as they
# are, the first two would put 1.11e-15 at (4, 1) and 1.03e-15 at (3, 1),
# below the diagonal and above the noise cut
NEGATIVE_NOISE = [
    ([1 / 3, 1 / 3, -5e-16, -5e-16, 1 / 3], [1 / 3, 1 / 3, 0.0, 0.0, 1 / 3]),
    ([0.7, 0.1, -1e-15, 0.2], [0.7, 0.1, 0.0, 0.2]),
]
# a tiny negative a_k lowers the running prefix below an earlier one, so
# read as it is, a row's lower mass would fall below the previous row's
FALLING_PREFIX = [
    ([0.5, 1e-16, -5e-16, 0.5], [0.5, 0.0, 0.0, 0.5]),
    ([0.5, -5e-16, -5e-16, 0.5], [0.5, 0.0, 0.0, 0.5]),
    ([1.0, 1e-16, -1e-15, 0.0, 1.0], [0.5, 0.5, 0.0, 0.0, 1.0]),
    ([0.3, 0.3, 2e-16, -1e-15, 0.4], [0.1, 0.2, 0.3, 0.0, 0.4]),
    ([1 / 3, 1 / 3, -5e-16, -5e-16, 1 / 3], [1 / 3, 1 / 3, 0.0, 0.0, 1 / 3]),
    ([0.1, 0.2, 3e-16, -1e-15, 0.7], [0.1, 0.2, 0.0, 0.0, 0.7]),
]


@pytest.mark.parametrize("a, b", NEGATIVE_NOISE + FALLING_PREFIX)
def test_pi_bar_is_triangular_with_tiny_negative_masses(a, b):
    plan = pi_bar(a, b)
    assert (np.tril(plan, -1) == 0).all()
    zeroed = [np.where(np.asarray(m) < 0.0, 0.0, m) for m in (a, b)]
    assert outcome(pi_bar, a, b) == outcome(pi_bar, *zeroed)
    assert outcome(pi_bar, a, b) == outcome(pi_bar_broadcast, a, b)


@st.composite
def sparse_rows(draw):
    """(entries, width): a row of 1 to 400 slots, up to 60 of them nonzero.

    The widths cover numpy's three summation cases: under 8 slots, 8 to
    128, and above 128, where it splits the row in halves.
    """
    width = draw(st.one_of(st.integers(1, 7), st.integers(8, 128),
                           st.integers(129, 400)))
    slots = sorted(draw(st.sets(st.integers(0, width - 1), min_size=1,
                                max_size=min(width, 60))))
    values = draw(st.lists(mass, min_size=len(slots), max_size=len(slots)))
    return list(zip(slots, values)), width


@settings(max_examples=300, deadline=None)
@given(row=sparse_rows())
@example(row=([(k, 0.1) for k in range(7)], 7))
@example(row=([(k, 1 / 3) for k in range(0, 128, 3)], 128))
@example(row=([(0, 2.3), (127, 0.1), (128, 1 / 3)], 129))
@example(row=([(k, 2.3) for k in range(0, 400, 7)], 400))
def test_pairwise_sum_is_numpys_sum_of_the_dense_row(row):
    entries, width = row
    dense = np.zeros(width)
    dense[[k for k, _ in entries]] = [m for _, m in entries]
    assert _pairwise_sum(entries, width).hex() == float(dense.sum()).hex()
