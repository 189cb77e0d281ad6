"""Greedy transport vector and prefix-domination plan."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundchain import TransportError, pi, pi_bar

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
    """Pi-bar as one greedy fill per row: the reference for the broadcast."""
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
