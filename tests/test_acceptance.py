"""Acceptance gate: one test per numbered criterion, one printed verdict line each.

Each test evaluates every part of its criterion before asserting, so the
printed line and the failure message always carry the measured values.
Closed-form targets are derived in the tests from the network parameters,
and criterion 3 reckons its drift statistic by an exact-rational
enumeration that shares no code with the package (the README gives each
derivation).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from boundchain import (
    BoundingChain,
    ClassPartition,
    CoupledSimulator,
    check_irreducible,
    check_optimality,
    classify,
    combine,
    compute_f,
    coupled_ssa,
    delta_p0,
    drift_stats,
    estimate_exit,
    min_truncation,
    optimal_U,
    phi_inverse,
    pi,
    pi_bar,
    solve_chain_cme,
    solve_cme,
    solve_network_cme,
    verify_assumptions,
    cdf_dominance,
    certificate_table,
    build_bounding_chain,
    TailModel,
)
import scipy.sparse as sp

from conftest import NETWORK_DOC
from test_builder import _feasible_perturbation
from test_coupling import assert_marginals, ordered_throughout

THETA = NETWORK_DOC["parameters"]


def verdict(num: int, fails: list, t0: float, limit: float | None = None,
            note: str = "") -> None:
    elapsed = time.monotonic() - t0
    if limit is not None and elapsed >= limit:
        fails.append(f"runtime {elapsed:.1f}s reached the {limit:.0f}s limit")
    status = "FAIL" if fails else "PASS"
    detail = ("; ".join(fails)) if fails else "all parts hold"
    if note:
        detail += f" ({note})"
    print(f"criterion {num}: {status} ({elapsed:.1f}s): {detail}")
    assert not fails, f"criterion {num}: " + "; ".join(fails)


def test_criterion_1_structured_upper_rate_closed_forms(network, part211,
                                                        upper211):
    t0 = time.monotonic()
    fails = []
    # Weights (2,1,1): every downward reaction has class shift -1 or -2, and
    # (0, ell, 0) has no -2 move, so U(ell, ell-2) = 0 and rate(ell, -1) is
    # the class-ell minimum of the total downward flux.  With
    # 2*x1 + x2 + x3 = ell that flux is
    #   d2*ell + (d3-d2)*x3 + alpha*x1*(x1-1) + beta*x1*x2 + (d1-2*d2)*x1
    #   = 2.5*ell + 2.5*x1*(x1-2) + 2*x1*x2 + 0.5*x3
    # whose class minimum is min(2.5*ell, 3*ell - 3.5) (x1 = 0 or 1), i.e.
    # min(d2,d3)*ell = 2.5*ell at (0, ell, 0) for every ell >= 7.
    down_slope = min(THETA["d2"], THETA["d3"])
    worst_down = (0.0, None)
    worst_up = (0.0, None)
    for ell in range(50, 301):
        stated = down_slope * ell
        got = upper211.rate(ell, -1)
        err = abs(got - stated) / abs(stated)
        if err > worst_down[0]:
            worst_down = (err, (ell, got, stated))
        stated = THETA["b1"] * ell + THETA["b2"]
        got = upper211.rate(ell, 2)
        err = abs(got - stated) / abs(stated)
        if err > worst_up[0]:
            worst_up = (err, (ell, got, stated))
    if worst_down[0] > 1e-10:
        ell, got, stated = worst_down[1]
        fails.append(f"down-rate at ell={ell} is {got}, stated {stated}")
    if worst_up[0] > 1e-10:
        ell, got, stated = worst_up[1]
        fails.append(f"two-up rate at ell={ell} is {got}, stated {stated}")
    # The form min(d2,d3)*ell - 2.5 is the flux bound at x1 = 1 with the
    # positive terms 2*x1*x2 + 0.5*x3 dropped: a lower estimate of the
    # minimum.  The chain carrying it from level 7 on is a valid upper bound
    # that the built optimal chain strictly beats.
    C = 2.5
    ells = np.arange(upper211.l_exact + 1)
    down = upper211.exact[-1]
    tail = upper211.tails[-1]
    offset = BoundingChain(
        "upper", upper211.j_max, upper211.l_exact, upper211.l_total,
        {**upper211.exact, -1: np.where(ells >= 7, down - C, down)},
        {**upper211.tails,
         -1: TailModel(offset=-1, onset=tail.onset, slope=tail.slope,
                       intercepts=(tail.intercepts[0] - C,))},
        weights=upper211.weights)
    rep = verify_assumptions(network, part211, offset, l_check=60)
    if not rep.ok:
        fails.append(f"offset variant is not a valid upper bound: {rep.detail}")
    if not check_optimality(offset, upper211, window=100).ok:
        fails.append("offset variant is not dominated by the built chain")
    beat = check_optimality(upper211, offset, window=100)
    if beat.ok or beat.worst_margin != pytest.approx(C, rel=1e-12):
        fails.append(f"built chain beats the offset variant by "
                     f"{beat.worst_margin} at {beat.worst_at}, wanted {C}")
    verdict(1, fails, t0, limit=60.0)


def test_criterion_2_naive_rate_closed_forms_and_class(naive111):
    t0 = time.monotonic()
    fails = []
    a, b1, b2, d2 = THETA["alpha"], THETA["b1"], THETA["b2"], THETA["d2"]
    # Unit weights: the up-moves are the birth (+1) and the conversion
    # (-2+3 = +1), so rate(ell, 1) is the class-ell maximum of
    # a*x1*(x1-1) + b1*(ell-x1) + b2.  That is convex in x1, so the maximum
    # sits at x1 = 0 or x1 = ell; at ell = 1 it is b1 + b2 = 3.5 at (0,1,0),
    # and from ell = 2 on it is the quadratic a*ell^2 - a*ell + b2.
    def stated_up(ell):
        return max(a * ell * (ell - 1), b1 * ell) + b2

    bad_up = [(ell, naive111.rate(ell, 1), stated_up(ell))
              for ell in range(1, 301)
              if naive111.rate(ell, 1) != pytest.approx(stated_up(ell),
                                                        rel=1e-12)]
    if bad_up:
        ell, got, stated = bad_up[0]
        fails.append(f"up-rate formula breaks at {len(bad_up)} level(s), "
                     f"first at ell={ell}: built {got}, stated {stated}")
    bad_down = [ell for ell in range(1, 301)
                if naive111.rate(ell, -1) != pytest.approx(d2 * ell,
                                                           rel=1e-12)]
    if bad_down:
        fails.append(f"down-rate differs from d2*ell at ells {bad_down[:5]}")
    label = classify(drift_stats(naive111)).label
    if label != "explosive":
        fails.append(f"classifier returned {label!r}, wanted explosive")
    verdict(2, fails, t0, limit=60.0)


def _class_states(ell, weights):
    """Every count vector x with weights . x = ell."""
    if len(weights) == 1:
        return [(ell // weights[0],)] if ell % weights[0] == 0 else []
    return [(x,) + rest for x in range(ell // weights[0] + 1)
            for rest in _class_states(ell - weights[0] * x, weights[1:])]


def _exact_lower_drift(doc, weights, start):
    """Drift statistics (B1, B2, B3) of the optimal lower chain, in rationals.

    Uses no package code: the propensities are read from the network
    document, each class is enumerated by its own loops, the f-table keeps
    the largest prefix mass into classes <= ell-j and the smallest tail mass
    into classes >= ell+j, and the cumulative table of a lower chain at level
    ell takes the max (prefix) or min (tail) of those over the network
    classes ell' >= ell it may sit below.  Differencing gives the rates on
    three periods of lcm(weights) levels from ``start``, which must be
    periodic-affine there; B1 = sum k*slope_k, B2 = sum k*mean intercept_k
    and B3 = B2 - sum k^2*slope_k / 2.
    """
    species = doc["species"]
    params = {k: Fraction(str(v)) for k, v in doc["parameters"].items()}

    def propensity(rx, x):
        total = Fraction(0)
        for term in rx["propensity"]:
            c = term["coeff"]
            val = params[c] if isinstance(c, str) else Fraction(str(c))
            for f in term.get("factors", ()):
                n = x[species.index(f["species"])]
                e = f.get("exponent", 1)
                if f.get("kind") == "falling-factorial":
                    val *= math.prod(n - r for r in range(e))
                else:
                    val *= n ** e
            total += val
        return total

    shifts = [sum(c * w for c, w in zip(rx["change"], weights))
              for rx in doc["reactions"]]
    J = max(abs(s) for s in shifts)
    P = math.lcm(*weights)
    levels = range(start, start + 3 * P)
    f_minus, f_plus = {}, {}
    for ell in range(start, levels[-1] + J + 1):
        rows = [[propensity(rx, x) for rx in doc["reactions"]]
                for x in _class_states(ell, weights)]
        assert rows, f"class {ell} is empty"
        for j in range(1, J + 1):
            f_minus[ell, j] = max(
                sum((p for p, s in zip(row, shifts) if s <= -j), Fraction(0))
                for row in rows)
            f_plus[ell, j] = min(
                sum((p for p, s in zip(row, shifts) if s >= j), Fraction(0))
                for row in rows)

    def U(ell, m):
        if m < ell:
            return max((f_minus[lp, lp - m] for lp in range(ell, m + J + 1)),
                       default=Fraction(0))
        return min(f_plus[lp, m - lp] if m - lp <= J else Fraction(0)
                   for lp in range(ell, m))

    b1 = b2 = s2 = Fraction(0)
    for k in [k for k in range(-J, J + 1) if k]:
        if k < 0:
            r = [U(ell, ell + k) - U(ell, ell + k - 1) for ell in levels]
        else:
            r = [U(ell, ell + k) - U(ell, ell + k + 1) for ell in levels]
        slope = (r[P] - r[0]) / P
        assert all(r[i + P] - r[i] == slope * P for i in range(2 * P)), \
            f"offset {k} is not periodic-affine from level {start}"
        b1 += k * slope
        b2 += k * sum(r[i] - slope * levels[i] for i in range(P)) / P
        s2 += k * k * slope
    return b1, b2, b2 - s2 / 2


def test_criterion_3_drift_statistics_and_verdict(upper211, lower225):
    t0 = time.monotonic()
    fails = []
    lo = drift_stats(lower225)
    if lo.b1 != pytest.approx(-3.9, rel=1e-9):
        fails.append(f"lower B1 = {lo.b1}, printed value -3.9")
    # The printed closed form for B3 (-8.932) uses the relaxed minimum
    # b2 - (alpha + 0.4*b1)^2 / (4*alpha) of a parabola whose vertex,
    # x1 = 0.58, is no lattice point; on the integers
    # alpha*x1*(x1-1) - 0.4*b1*x1 bottoms out at -0.4 (x1 = 1), not -0.841.
    # The target is the exact class-enumeration value instead.
    ref_b1, _, ref_b3 = _exact_lower_drift(NETWORK_DOC, (2, 2, 5), start=120)
    if ref_b1 != Fraction("-3.9"):
        fails.append(f"reference lower B1 = {ref_b1}, printed value -3.9")
    if lo.b3 != pytest.approx(float(ref_b3), rel=1e-10, abs=1e-10):
        fails.append(f"lower B3 = {lo.b3}, exact enumeration gives {ref_b3}")
    hi = drift_stats(upper211)
    stated_b1 = 2 * THETA["b1"] - min(THETA["d2"], THETA["d3"])
    if hi.b1 != pytest.approx(stated_b1, rel=1e-10):
        fails.append(f"upper B1 = {hi.b1}, stated {stated_b1}")
    z, y = classify(lo), classify(hi)
    x = combine(z, y,
                z_irreducible=check_irreducible(lower225).attested,
                y_irreducible=check_irreducible(upper211).attested)
    if x.label != "positive-recurrent":
        fails.append(f"combined verdict {x.label!r}, wanted positive-recurrent")
    verdict(3, fails, t0)


def test_criterion_4_transport_properties():
    t0 = time.monotonic()
    fails = []
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
        scale = max(1.0, total)
        if not np.allclose(plan.sum(axis=1), a, atol=1e-10 * scale):
            fails.append(f"row marginal broke on fuzz case {case}")
            break
        if not np.allclose(plan.sum(axis=0), b, atol=1e-10 * scale):
            fails.append(f"column marginal broke on fuzz case {case}")
            break
        if plan.shape[0] > 1 and abs(np.tril(plan, -1)).max() != 0.0:
            fails.append(f"mass below the diagonal on fuzz case {case}")
            break
    for case in range(1000):
        n = int(rng.integers(1, 13))
        u = rng.uniform(0.0, 3.0, size=n)
        u[rng.uniform(size=n) < 0.2] = 0.0
        total = u.sum()
        x = total if case % 10 == 0 else rng.uniform(0.0, total)
        v = pi(x, u)
        scale = max(1.0, total)
        cum = np.cumsum(u)
        filled = cum <= x + 1e-12 * scale
        x2 = rng.uniform(x, total) if total > 0 else 0.0
        v2 = pi(x2, u)
        ok = (
            (v >= 0).all() and (v <= u + 1e-12 * scale).all()
            and abs(v.sum() - x) < 1e-9 * scale
            and np.allclose(v[filled], u[filled], atol=1e-9 * scale)
            and (case % 10 != 0 or np.allclose(v, u, atol=1e-9 * scale))
            and (v2 - v >= -1e-12 * scale).all()
            and (v2 - v).sum() <= (x2 - x) + 1e-9 * scale
        )
        if not ok:
            fails.append(f"greedy-fill property broke on fuzz case {case}")
            break
    verdict(4, fails, t0, limit=10.0)


def test_criterion_5_coupled_order_and_marginals(network, part211, upper211):
    t0 = time.monotonic()
    fails = []
    sim = CoupledSimulator(network, part211, upper211)
    visited = set()
    disordered = 0
    for seed in range(100):
        traj = coupled_ssa(network, part211, upper211, (15, 5, 5), 40, 20.0,
                           seed=seed, simulator=sim)
        if not ordered_throughout(traj, part211):
            disordered += 1
        visited.update((tuple(int(v) for v in x), int(y))
                       for x, y in zip(traj.states, traj.levels))
    if disordered:
        fails.append(f"{disordered} of 100 trajectories broke the order")
    bad_rows = 0
    for x, ell in visited:
        try:
            assert_marginals(sim, x, ell)
        except AssertionError:
            bad_rows += 1
    if bad_rows:
        fails.append(f"marginal reconstruction broke on {bad_rows} of "
                     f"{len(visited)} visited rows")
    verdict(5, fails, t0, limit=300.0)


def test_criterion_6_cdf_dominance_small_truncation(network, part211,
                                                    upper211):
    t0 = time.monotonic()
    fails = []
    chain_cme = solve_chain_cme(upper211, 40, delta_p0(40, 14), 1.0)
    net_cme = solve_network_cme(network, part211, 40, (5, 2, 2), 1.0)
    times = np.linspace(0.05, 1.0, 20)
    rep = cdf_dominance(chain_cme, [net_cme], times)
    if rep.checked != 20 * 41:
        fails.append(f"checked {rep.checked} points, wanted {20 * 41}")
    if not rep.ok:
        fails.append(f"dominance violated by {rep.max_violation:.3g} at "
                     f"(t, level, member) = {rep.worst}")
    verdict(6, fails, t0, limit=300.0)


def test_criterion_7_truncation_certificate_soundness(network, part211,
                                                      upper211):
    t0 = time.monotonic()
    fails = []
    M, t_final = 2000, 4.0
    p0 = delta_p0(M, 80)
    cme = solve_chain_cme(upper211, M, p0, t_final)
    bounds, _ = certificate_table(cme)
    clipped = np.minimum(bounds, 1.0)
    n_loose = min_truncation(upper211, p0, M, t_final, 0.1, cme=cme)
    n_tight = min_truncation(upper211, p0, M, t_final, 0.01, cme=cme)
    # The method promises P(exit) <= E_T(N).  A sample that refutes it puts
    # the Wilson lower limit above E_T(N).  Confirming it needs the upper
    # limit below E_T(N), which no outcome gives once E_T(N) is under the
    # zero-count floor z^2 / (n + z^2) of the upper limit.
    samples = 10_000
    z = 1.959963984540054  # two-sided 95 % normal quantile
    floor = z * z / (samples + z * z)
    below_floor = []
    for i, N in enumerate((n_loose, n_tight, n_loose + 50)):
        est = estimate_exit(network, part211, N, t_final, (30, 10, 10),
                            samples=samples, seed=100 + i)
        counts = f"{est.exits} exits in {est.samples} paths"
        if est.lo > clipped[N]:
            fails.append(f"Wilson lower limit {est.lo:.3g} ({counts}) "
                         f"refutes E_T({N}) = {clipped[N]:.3g}")
        if clipped[N] < floor:
            below_floor.append(f"N={N} ({counts})")
        elif est.hi > clipped[N]:
            fails.append(f"Wilson upper limit {est.hi:.3g} ({counts}) "
                         f"exceeds E_T({N}) = {clipped[N]:.3g}")
    if not np.all(np.diff(clipped[80:]) <= 1e-12):
        fails.append("E_T(N) is not nonincreasing for N >= 80")
    grid = np.linspace(0.25, t_final, 16)
    n_hats = [min_truncation(upper211, p0, M, float(t), 0.1) for t in grid]
    if max(n_hats) > n_hats[-1]:
        fails.append(f"window size over the time grid peaks at "
                     f"{max(n_hats)}, above the final value {n_hats[-1]}")
    if any(later < earlier for earlier, later in zip(n_hats, n_hats[1:])):
        fails.append("window size is not nondecreasing over the time grid")
    note = (f"E_T below the Wilson zero-count floor {floor:.3g}, checked "
            "only for refutation at " + ", ".join(below_floor)
            if below_floor else "")
    verdict(7, fails, t0, limit=1800.0, note=note)


def test_criterion_8_randomized_candidates_are_dominated(network, part211,
                                                         part225):
    t0 = time.monotonic()
    fails = []
    rng = np.random.default_rng(8)
    for direction, part in (("upper", part211), ("lower", part225)):
        U = optimal_U(compute_f(network, part, direction, l_exact=112))
        optimal = phi_inverse(U, part.weights)
        beaten = 0
        for _ in range(50):
            cand = phi_inverse(_feasible_perturbation(U, rng), part.weights)
            if not check_optimality(cand, optimal, window=100).ok:
                beaten += 1
        if beaten:
            fails.append(f"{beaten} of 50 {direction} candidates slipped "
                         f"past the optimal table")
        cand = phi_inverse(_feasible_perturbation(U, rng), part.weights)
        if not verify_assumptions(network, part, cand, l_check=30).ok:
            fails.append(f"candidate generator stopped producing feasible "
                         f"{direction} tables")
    verdict(8, fails, t0, limit=120.0)


def test_criterion_9_degenerate_birth_death_and_two_state_cme(birth_death):
    t0 = time.monotonic()
    fails = []
    part = ClassPartition((1,))
    for direction in ("upper", "lower"):
        chain = build_bounding_chain(birth_death, part, direction,
                                     l_exact=40, l_total=500)
        bad = [ell for ell in list(range(41)) + [100, 400]
               if chain.rate(ell, 1) != 1.5 or chain.rate(ell, -1) != 2.0 * ell]
        if bad:
            fails.append(f"{direction} chain differs from the network at "
                         f"levels {bad[:5]}")
    Q = sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))
    cme = solve_cme(Q, [1.0, 0.0], 1.0, budget=1e-8, classes=np.arange(2))
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 21):
        want = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        worst = max(worst, float(np.abs(cme.p(t) - want).max()))
    if worst > 1e-6:
        fails.append(f"two-state solve off the analytic law by {worst:.3g}")
    verdict(9, fails, t0)
