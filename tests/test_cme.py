"""Truncated master equation solves and the truncation certificates."""

import copy
import hashlib
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.linalg import expm

from boundchain import cme as cme_module
from boundchain import (BoundingChain, ClassPartition, InfeasibleError,
                        TailModel, ValidationError, cdf_dominance,
                        certificate_table, chain_generator, delta_p0,
                        min_truncation, network_from_dict, network_generator,
                        solve_chain_cme, solve_cme, solve_network_cme,
                        truncation_certificate)
from boundchain.cli import parse_grid
from conftest import NETWORK_DOC


def two_state():
    return sp.csr_matrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))


def test_two_state_analytic():
    cme = solve_cme(two_state(), [1.0, 0.0], t_final=2.0)
    for t in (0.0, 0.3, 1.0, 2.0):
        want = np.array([(1 + np.exp(-2 * t)) / 2, (1 - np.exp(-2 * t)) / 2])
        assert np.max(np.abs(cme.p(t) - want)) < 1e-6
    assert cme.mass(2.0) == pytest.approx(1.0, abs=1e-9)


def test_tighter_budget_tracks_truth():
    loose = solve_cme(two_state(), [1.0, 0.0], 1.0, budget=1e-5)
    tight = solve_cme(two_state(), [1.0, 0.0], 1.0, budget=1e-10)
    truth = np.array([(1 + np.exp(-2)) / 2, (1 - np.exp(-2)) / 2])
    err_loose = np.max(np.abs(loose.p(1.0) - truth))
    err_tight = np.max(np.abs(tight.p(1.0) - truth))
    assert err_tight < 1e-9
    assert err_tight <= err_loose
    assert err_loose < 1e-4


def test_p0_validation():
    Q = two_state()
    with pytest.raises(ValidationError):
        solve_cme(Q, [0.4, 0.4], 1.0)
    with pytest.raises(ValidationError):
        solve_cme(Q, [1.5, -0.5], 1.0)
    with pytest.raises(ValidationError):
        solve_cme(Q, [1.0, 0.0, 0.0], 1.0)
    # every comparison with NaN is False, so NaN passed the sum and sign tests
    three = sp.csr_matrix(np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0],
                                    [1.0, 0.0, -1.0]]))
    with pytest.raises(ValidationError, match="probability vector"):
        solve_cme(three, [np.nan, 0.5, 0.5], 1.0)
    with pytest.raises(ValidationError):
        delta_p0(10, 11)
    assert delta_p0(10, 3)[3] == 1.0
    assert delta_p0(10, 3).sum() == 1.0


def mm1(lam, mu, l_exact=80, l_total=2000):
    up = np.full(l_exact + 1, lam)
    down = mu * np.arange(l_exact + 1, dtype=float)
    return BoundingChain("upper", 1, l_exact, l_total,
                         {1: up, -1: down},
                         {1: TailModel(1, 0, intercepts=(lam,)),
                          -1: TailModel(-1, 1, slope=mu)},
                         (1,))


def test_chain_generator_shape_and_absorption():
    chain = mm1(1.5, 2.0)
    Q = chain_generator(chain, 30)
    assert Q.shape == (31, 31)
    sums = np.asarray(Q.sum(axis=1)).ravel()
    # interior rows conserve; the top row keeps its full exit rate on the
    # diagonal, so its sum is minus the rate that leaves the box
    assert np.allclose(sums[:30], 0.0, atol=1e-12)
    assert sums[30] == pytest.approx(-1.5)
    with pytest.raises(ValidationError):
        chain_generator(chain, chain.l_total + 1)
    # M = -5 once raised numpy's "negative dimensions", M = -1 gave 0 x 0
    for M in (-5, -1):
        with pytest.raises(ValidationError, match="M must be >= 0"):
            chain_generator(chain, M)
        with pytest.raises(ValidationError, match="M must be >= 0"):
            delta_p0(M, 0)


def test_mass_is_monotone_under_truncation():
    chain = mm1(3.0, 0.02)
    cme = solve_chain_cme(chain, 25, delta_p0(25, 20), t_final=3.0)
    masses = [cme.mass(t) for t in np.linspace(0.0, 3.0, 7)]
    assert masses[0] == pytest.approx(1.0, abs=1e-9)
    assert masses[-1] < 0.9  # strong up-drift pushes mass out of the box
    assert all(b <= a + 1e-7 for a, b in zip(masses, masses[1:]))


def test_certificate_pure_death():
    down = 2.0 * np.arange(41, dtype=float)
    chain = BoundingChain("upper", 1, 40, 40, {-1: down},
                          {-1: TailModel(-1, 1, slope=2.0)}, (1,))
    cert = truncation_certificate(chain, delta_p0(40, 10), N=20, M=40,
                                  t_final=1.0)
    assert cert.flux == 0.0
    assert cert.initial_tail == 0.0
    assert cert.mass_deficit <= 1e-8
    assert cert.bound_clipped < 1e-6


def test_certificate_components_add_up():
    chain = mm1(1.5, 2.0)
    cert = truncation_certificate(chain, delta_p0(60, 30), N=35, M=60,
                                  t_final=2.0)
    assert cert.bound == pytest.approx(
        cert.mass_deficit + cert.initial_tail + cert.flux + cert.solver_term)
    assert 0.0 <= cert.bound_clipped <= 1.0
    # starting above the window, the initial tail alone forces the bound up
    high = truncation_certificate(chain, delta_p0(60, 50), N=35, M=60,
                                  t_final=2.0)
    assert high.initial_tail == 1.0
    assert high.bound_clipped == 1.0
    with pytest.raises(ValidationError):
        truncation_certificate(chain, delta_p0(60, 30), N=70, M=60,
                               t_final=2.0)


def test_certificate_table_matches_single_solves():
    chain = mm1(1.5, 2.0)
    cme = solve_chain_cme(chain, 60, delta_p0(60, 30), t_final=2.0)
    bounds, parts = certificate_table(cme)
    assert bounds.shape == (61,)
    for N in (0, 10, 30, 45, 60):
        single = truncation_certificate(chain, delta_p0(60, 30), N, 60,
                                        t_final=2.0, cme=cme)
        assert bounds[N] == pytest.approx(single.bound, abs=1e-6)
        assert parts["initial_tail"][N] == pytest.approx(single.initial_tail)
    # above the starting class, a larger window never certifies worse
    assert np.all(np.diff(np.minimum(bounds, 1.0)[30:]) <= 1e-9)
    # no class lies above the box, so nothing flows out of the top window
    assert parts["flux"][60] == 0.0


def test_min_truncation():
    chain = mm1(1.5, 2.0)
    cme = solve_chain_cme(chain, 60, delta_p0(60, 10), t_final=2.0)
    n_loose = min_truncation(chain, delta_p0(60, 10), 60, 2.0, 1e-2, cme=cme)
    n_tight = min_truncation(chain, delta_p0(60, 10), 60, 2.0, 1e-5, cme=cme)
    assert 10 < n_loose <= n_tight <= 60
    bounds, _ = certificate_table(cme)
    assert bounds[n_tight] < 1e-5
    assert np.minimum(bounds, 1.0)[n_tight - 1] >= 1e-5
    # epsilon above 1 is satisfied by any window, even N = 0
    assert min_truncation(chain, delta_p0(60, 10), 60, 2.0, 1.5, cme=cme) == 0
    with pytest.raises(ValidationError):
        min_truncation(chain, delta_p0(60, 10), 60, 2.0, 0.0, cme=cme)


def test_given_solve_must_match_the_window():
    chain = mm1(1.5, 2.0)
    p0 = delta_p0(60, 10)
    cme = solve_chain_cme(chain, 60, p0, t_final=2.0)
    # a larger box indexed past the solve, a later time read the t=2 solve
    for M, t_final in ((80, 2.0), (60, 99.0), (40, 2.0)):
        with pytest.raises(ValidationError, match=r"box \[0, 60\] to t=2\.0"):
            truncation_certificate(chain, delta_p0(M, 10), 30, M, t_final,
                                   cme=cme)
        with pytest.raises(ValidationError, match=r"box \[0, 60\] to t=2\.0"):
            min_truncation(chain, delta_p0(M, 10), M, t_final, 1e-2, cme=cme)
    # a solve from another initial law
    with pytest.raises(ValidationError, match="another p0"):
        truncation_certificate(chain, delta_p0(60, 20), 30, 60, 2.0, cme=cme)
    with pytest.raises(ValidationError, match="another p0"):
        min_truncation(chain, delta_p0(60, 20), 60, 2.0, 1e-2, cme=cme)
    # the matching window passes, given as ints or floats
    assert truncation_certificate(chain, p0, 30, 60, 2, cme=cme).M == 60
    assert min_truncation(chain, list(p0), 60, 2, 1e-2, cme=cme) > 10

def test_min_truncation_box_too_small():
    leaky = mm1(5.0, 0.05, l_exact=20, l_total=20)
    with pytest.raises(InfeasibleError) as err:
        min_truncation(leaky, delta_p0(20, 10), 20, 10.0, 0.5)
    assert "increase M" in str(err.value)


def test_network_generator_layout(network, part211):
    Q, states, classes = network_generator(network, part211, 10)
    assert Q.shape == (len(states), len(states))
    assert np.all(np.diff(classes) >= 0)  # class-major ordering
    assert len(np.unique(states, axis=0)) == len(states)
    assert np.all(classes == states @ np.array([2, 1, 1]))
    sums = np.asarray(Q.sum(axis=1)).ravel()
    assert np.all(sums <= 1e-12)  # leaks only outward
    interior = classes <= 10 - 2  # no reaction jumps more than 2 classes
    assert np.allclose(sums[interior], 0.0, atol=1e-12)


def test_network_generator_matches_python_loop(network, part211):
    n_max = 12
    w = part211.weights
    states = sorted(
        (x for x in itertools.product(range(n_max + 1), repeat=3)
         if np.dot(w, x) <= n_max),
        key=lambda x: (np.dot(w, x), x))
    index = {x: i for i, x in enumerate(states)}
    ref = np.zeros((len(states), len(states)))
    for i, x in enumerate(states):
        for r in network.reactions:
            rate = r.propensity.evaluate(x)
            if rate > 0:
                ref[i, i] -= rate
                y = tuple(a + c for a, c in zip(x, r.change))
                if y in index:
                    ref[i, index[y]] += rate
    Q, got_states, classes = network_generator(network, part211, n_max)
    assert np.array_equal(got_states, np.array(states))
    assert np.array_equal(classes, [np.dot(w, x) for x in states])
    assert np.array_equal(Q.toarray(), ref)



def test_network_generator_is_pinned(network, part211):
    # sha256 over Q's CSR arrays, then the states and class labels, recorded
    # from the class-by-class pass
    Q, states, classes = network_generator(network, part211, 16)
    h = hashlib.sha256()
    for a in (Q.data, Q.indices, Q.indptr, states, classes):
        h.update(a.tobytes())
    assert h.hexdigest() == (
        "95a03b3981bf00cd0a1d0137b1458d03044a77fbf99a73f0f510c9a76d1fe99a")

def test_network_generator_rejects_negative_propensity(part211):
    doc = copy.deepcopy(NETWORK_DOC)
    doc["reactions"][3]["propensity"].append({"coeff": -10.0})
    with pytest.raises(ValidationError,
                       match=r"-10.0 for reaction 3 at \(0, 0, 0\)"):
        network_generator(network_from_dict(doc), part211, 12)


def test_network_cme_rejects_jumps_out_of_the_orthant(part211):
    # X3 decays at a constant rate, so it fires from X3 = 0; that mass used
    # to leave the index set as if it had left the box
    doc = copy.deepcopy(NETWORK_DOC)
    doc["reactions"][5]["propensity"] = [{"coeff": 1.0}]
    with pytest.raises(ValidationError,
                       match=r"reaction 5 leaves the orthant from "
                             r"\(0, 0, 0\)"):
        solve_network_cme(network_from_dict(doc), part211, 16, (5, 2, 2),
                          1.0)


def test_network_cme_rejects_an_initial_state_of_the_wrong_length(network,
                                                                  part211):
    # (5, 2) once reached the state lookup and failed there as a numpy
    # broadcast error
    with pytest.raises(ValidationError, match=r"does not match 3 weights"):
        solve_network_cme(network, part211, 14, (5, 2), 1.0)


def test_solve_network_cme(network, part211):
    cme = solve_network_cme(network, part211, 14, (1, 1, 1), t_final=0.3)
    assert cme.mass(0.0) == pytest.approx(1.0, abs=1e-12)
    assert 0.5 < cme.mass(0.3) <= 1.0 + 1e-9
    levels = np.arange(15)
    cdf = cme.cdf_by_class(0.3, levels)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(cme.mass(0.3), abs=1e-9)
    with pytest.raises(ValidationError):
        solve_network_cme(network, part211, 14, (99, 0, 0), t_final=0.3)


def test_cdf_dominance_self_and_violation():
    down_drift = solve_chain_cme(mm1(1.0, 2.0, 40, 40), 40, delta_p0(40, 20),
                                 t_final=1.5)
    up_drift = solve_chain_cme(mm1(8.0, 0.1, 40, 40), 40, delta_p0(40, 20),
                               t_final=1.5)
    times = np.linspace(0.0, 1.5, 6)
    rep = cdf_dominance(down_drift, [down_drift], times)
    assert rep.ok
    assert rep.max_violation <= 0.0
    assert rep.checked == 6 * 41
    # a chain drifting down has the higher CDF; dominance the other way fails
    rep2 = cdf_dominance(down_drift, [up_drift], times)
    assert not rep2.ok
    assert rep2.max_violation > 0.1
    # and holds with the roles swapped
    assert cdf_dominance(up_drift, [down_drift], times).ok


def test_cdf_dominance_initial_order_precondition():
    a = solve_chain_cme(mm1(1.0, 2.0, 40, 40), 40, delta_p0(40, 10), 1.0)
    b = solve_chain_cme(mm1(1.0, 2.0, 40, 40), 40, delta_p0(40, 30), 1.0)
    # b starts above a, so b's CDF sits below a's and the check applies
    assert cdf_dominance(b, [a], [0.5, 1.0]).ok
    # claiming a's CDF is dominated by b's already fails at t = 0
    with pytest.raises(ValidationError):
        cdf_dominance(a, [b], [0.5])


def test_cdf_dominance_rejects_an_empty_check():
    a = solve_chain_cme(mm1(1.0, 2.0, 40, 40), 40, delta_p0(40, 10), 1.0)
    with pytest.raises(ValidationError):
        cdf_dominance(a, [], [0.5, 1.0])
    with pytest.raises(ValidationError):
        cdf_dominance(a, [a], [])


def _truth(Q, p0, t):
    """p0 exp(Q t) by dense matrix exponential."""
    return np.asarray(p0, dtype=float) @ expm(Q.toarray() * t)


def _solver_cases():
    """(name, Q, p0, t_final): the two-state chain and a truncated M/M/1."""
    return [("two-state", two_state(), np.array([1.0, 0.0]), 2.0),
            ("mm1", chain_generator(mm1(1.5, 2.0), 30), delta_p0(30, 12),
             3.0)]


@pytest.mark.parametrize("case", _solver_cases(), ids=lambda c: c[0])
@pytest.mark.parametrize("budget", [1e-5, 1e-8, 1e-12])
def test_uniformization_is_a_certified_lower_bound(case, budget):
    _, Q, p0, t_final = case
    cme = solve_cme(Q, p0, t_final, budget=budget)
    times = np.array([0.0, 0.4, 1.0, t_final])
    P = cme.p(times)
    assert P.shape == (len(p0), len(times))
    rounding = 1e-13  # about K machine epsilons over the pass
    for j, t in enumerate(times):
        truth = _truth(Q, p0, t)
        assert np.all(P[:, j] <= truth + rounding)
        dropped = truth.sum() - P[:, j].sum()
        assert -rounding <= dropped <= cme.solver_term + rounding
    assert 0.0 < cme.solver_term <= budget
    assert cme.uniform_rate == pytest.approx(float(-Q.diagonal().min()))
    assert cme.poisson_terms >= cme.uniform_rate * t_final


def test_p_evaluates_many_times_in_one_call():
    cme = solve_cme(two_state(), [1.0, 0.0], t_final=2.0)
    P = cme.p([0.3, 1.0, 0.3])
    assert np.array_equal(P[:, 0], cme.p(0.3))
    assert np.array_equal(P[:, 2], P[:, 0])
    assert np.allclose(P[:, 1], cme.p(1.0), atol=1e-15)
    with pytest.raises(ValidationError):
        cme.p(-1.0)


def test_the_first_query_runs_one_pass_for_all_its_times():
    cme = solve_cme(chain_generator(mm1(1.5, 2.0), 30), delta_p0(30, 12),
                    t_final=3.0)
    assert (cme.passes, cme.matvecs) == (0, 0)  # set-up runs no mat-vec
    cme.p([0.5, 3.0, 1.0])
    # K + 1 terms take K mat-vecs; z rides along
    assert (cme.passes, cme.matvecs) == (1, cme.poisson_terms)
    cme.occupation
    cme.p([1.0, 0.5])
    assert cme.passes == 1  # cached times add no pass
    cme.p([0.25, 3.0, 2.0])
    assert (cme.passes, cme.matvecs) == (2, 2 * cme.poisson_terms)
    for t in (6.0, [1.0, 3.0 + 1e-12], -0.5, float("nan")):
        with pytest.raises(ValidationError, match=r"\[0, 3\.0\]"):
            cme.p(t)
    assert cme.passes == 2  # a rejected query runs no pass


def test_occupation_first_runs_one_pass():
    cme = solve_cme(two_state(), [1.0, 0.0], t_final=2.0)
    cme.occupation
    cme.mass(2.0)
    assert cme.passes == 1


def test_a_later_pass_leaves_p_t_final_and_z_unchanged():
    cme = solve_chain_cme(mm1(1.5, 2.0), 30, delta_p0(30, 12), 3.0)
    first = cme.p(1.0)
    final, z = cme.p(3.0).tobytes(), cme.occupation.tobytes()
    cme.p([0.5, 2.0])  # new times: a second pass, which redoes p(3) and z
    assert cme.passes == 2
    assert cme.p(3.0).tobytes() == final
    assert cme.occupation.tobytes() == z
    assert cme.p(1.0).tobytes() == first.tobytes()


def test_cdf_dominance_runs_one_pass_per_fresh_solve(network, part211,
                                                     upper211):
    net = solve_network_cme(network, part211, 16, (5, 2, 2), 1.0)
    chain = solve_chain_cme(upper211, 16, delta_p0(16, 14), 1.0)
    assert cdf_dominance(chain, [net], np.linspace(0.05, 1.0, 20)).ok
    assert (net.passes, chain.passes) == (1, 1)
    assert net.matvecs == net.poisson_terms
    assert chain.matvecs == chain.poisson_terms


def test_occupation_time_two_state():
    T = 2.0
    cme = solve_cme(two_state(), [1.0, 0.0], t_final=T)
    decay = (1 - np.exp(-2 * T)) / 4
    want = np.array([T / 2 + decay, T / 2 - decay])
    err = want - cme.occupation
    # z is a lower bound, short by at most the stop-loss over Lambda = 1
    assert np.all(err >= -1e-14)
    assert err.sum() <= cme.solver_term


@pytest.mark.parametrize("M, t_final, start", [(60, 2.0, 30), (160, 4.0, 80)])
def test_certificate_table_equals_single_certificates(upper211, M, t_final,
                                                      start):
    chain = mm1(1.5, 2.0) if M == 60 else upper211
    p0 = delta_p0(M, start)
    cme = solve_chain_cme(chain, M, p0, t_final)
    bounds, parts = certificate_table(cme)
    assert parts["solver_term"] == cme.solver_term
    for N in range(M + 1):
        single = truncation_certificate(chain, p0, N, M, t_final, cme=cme)
        assert abs(bounds[N] - single.bound) <= 1e-12
        assert single.solver_term == cme.solver_term


def test_the_certificate_bounds_the_network_exit_probability(
        network, part211, upper211):
    # finite state projection (Munsky & Khammash 2006): the network solved on
    # the window [0, N] loses 1 - mass(T), at least its probability of
    # leaving the window by T, and that must not exceed E_T(N); x0 = (5, 2, 2)
    # is class 14 under weights (2, 1, 1)
    bounds, _ = certificate_table(
        solve_chain_cme(upper211, 400, delta_p0(400, 14), 1.0))
    for N in range(16, 41):
        window = solve_network_cme(network, part211, N, (5, 2, 2), 1.0)
        lost, bound = 1.0 - window.mass(1.0), min(1.0, bounds[N])
        print(f"N={N}: 1 - mass {lost:.3g} <= E_T {bound:.3g}, "
              f"ratio {lost / bound:.3g}")
        assert lost <= bound


def test_solver_rejects_bad_generators_and_budgets():
    bad = sp.csr_matrix(np.array([[-1.0, 2.0], [1.0, -1.0]]))  # row sum > 0
    with pytest.raises(ValidationError):
        solve_cme(bad, [1.0, 0.0], 1.0)
    negative = sp.csr_matrix(np.array([[1.0, -1.0], [1.0, -1.0]]))
    with pytest.raises(ValidationError):
        solve_cme(negative, [1.0, 0.0], 1.0)
    for budget in (0.0, -1e-8, float("nan")):
        with pytest.raises(ValidationError):
            solve_cme(two_state(), [1.0, 0.0], 1.0, budget=budget)
    # a NaN rate passes the sign and row-sum checks; an infinite exit rate
    # once ended in the Poisson-term cap
    for i, j, rate in ((0, 1, np.nan), (0, 0, np.nan), (1, 1, -np.inf)):
        Q = two_state().toarray()
        Q[i, j] = rate
        with pytest.raises(ValidationError, match="non-finite rate"):
            solve_cme(sp.csr_matrix(Q), [1.0, 0.0], 1.0)


def test_import_loads_neither_integrate_nor_stats():
    code = ("import sys, boundchain; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') "
            "if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={"PYTHONPATH": str(src), "PATH": ""})
    assert done.stdout.strip() == "[]"


def _network_solve(network, part211):
    return solve_network_cme(network, part211, 24, (5, 2, 2), 1.0)


def _chain_solve(upper211):
    return solve_chain_cme(upper211, 24, delta_p0(24, 14), 1.0)


def _solve_floats(cme, t=0.3) -> np.ndarray:
    """p at t and t_final, z and the certificate table, as one flat array."""
    P = cme.p([t, cme.t_final])  # the first query of the solve
    bounds, parts = certificate_table(cme)
    return np.concatenate([np.ravel(a) for a in (
        P, cme.occupation, bounds, parts["initial_tail"], parts["flux"],
        [parts["mass_deficit"], parts["solver_term"]])])


def _solve_digest(cme, t=0.3) -> str:
    return hashlib.sha256(_solve_floats(cme, t).tobytes()).hexdigest()


# sha256 of the floats each solve returns, recorded while every solve ran
# its t_final pass at construction and one more pass per query at new times
SOLVE_DIGESTS = {
    "network":
        "5ab051b778b0649ce8b4efcb37f70f3e6dccc2e1b262f509e53cd566967de700",
    "chain":
        "2860389de072a69e116fddfd840e3c81fc2abb35038bb1a0b815f88db2be8340",
    "dominance":
        "b2ef35bdb26430cf34d2c1ed1d67724d2f5b71318953638fb77550ac25614a81",
}


def test_solves_are_pinned(network, part211, upper211):
    rep = cdf_dominance(_chain_solve(upper211),
                        [_network_solve(network, part211)],
                        np.linspace(0.05, 1.0, 20))
    got = {
        "network": _solve_digest(_network_solve(network, part211)),
        "chain": _solve_digest(_chain_solve(upper211)),
        "dominance": hashlib.sha256(repr(
            (rep.ok, rep.max_violation, rep.worst, rep.checked)
        ).encode()).hexdigest(),
    }
    assert got == SOLVE_DIGESTS


@pytest.mark.parametrize("block", [cme_module._BLOCK, 1, 3])
def test_direct_kernel_and_fallback_give_identical_bytes(
        monkeypatch, network, part211, upper211, block):
    # every term is written into its block row by chained csr_matvec
    # calls, with no product with P^T.  Block sizes 1 and 3 put a block
    # boundary after every term or between any two, where the last term
    # must survive the next block's zeroing.  The blocks are weighted and
    # summed one by one, so another block size regroups those sums: the
    # floats agree with the 256-term blocks' to rounding, and the one-term
    # solve to the byte.  The chain solve makes 30 blocks of 256.  Each
    # block size runs with the default stack (43 copies at M=500, 7 for the
    # network's 8,771 stored entries, 1 for K = 0) and with 7 copies, which
    # leave a run of 3 in each block of 256.
    solves = {  # name: (solve, query time, K, kernel)
        "chain": (lambda: solve_chain_cme(upper211, 500, delta_p0(500, 80),
                                          4.0), 0.3, 7553, "csr-chained"),
        "network": (lambda: _network_solve(network, part211), 0.3, 487,
                    "csr-chained"),
        "t_final=0": (lambda: solve_chain_cme(upper211, 24, delta_p0(24, 14),
                                              0.0), 0.0, 0, "csr-chained"),
    }
    want = {name: _solve_floats(solve(), t)
            for name, (solve, t, _, _) in solves.items()}
    regrouped = block != cme_module._BLOCK
    monkeypatch.setattr(cme_module, "_BLOCK", block)
    products = []
    real_matmul = cme_module._CSR.__matmul__

    def counted(self, other):
        products.append(self)
        return real_matmul(self, other)

    # P^T is kept as CSR arrays, whose only product is ``@``
    monkeypatch.setattr(cme_module._CSR, "__matmul__", counted)
    for copies in (cme_module._COPIES, 7):
        monkeypatch.setattr(cme_module, "_COPIES", copies)
        for name, (solve, t, K, kernel) in solves.items():
            products.clear()
            cme = solve()
            got = _solve_floats(cme, t)
            assert np.allclose(got, want[name], rtol=0.0, atol=1e-12), name
            # the stack size regroups no sum
            assert regrouped or got.tobytes() == want[name].tobytes(), name
            assert cme.poisson_terms == K, name
            assert cme.passes == 1 and cme.matvecs == K, name
            assert cme.kernel == kernel, name
            assert not any(A is cme._PT for A in products), name
            held = {"chain": min(copies, 43), "network": 7, "t_final=0": 1}
            assert cme._stack[0] == held[name], name
        assert np.array_equal(got, want["t_final=0"])


def _gappy_chain():
    """Offsets -2, -1 and +3, each zero on some levels inside the band."""
    ell = np.arange(41, dtype=float)
    return BoundingChain("upper", 3, 40, 40,
                         {3: 1.5 * (ell % 2), -1: 2.0 * ell,
                          -2: 0.5 * ell * (ell % 3 == 0)}, {}, (1,))


# the pass's two kernels, and per-term CSR, the reference for both, as the
# chained kernel with one copy: label -> (kernel, _CHAIN_NNZ, _DIA_FILL,
# _COPIES)
_FORCED = {
    "csr-chained": ("csr-chained", np.inf, 0, cme_module._COPIES),
    "csr per term": ("csr-chained", np.inf, 0, 1),
    "dia": ("dia", -1, np.inf, cme_module._COPIES),
}


def _force(mp, label):
    """Set the constants under which the next solve runs ``label``'s
    kernel; returns the kernel's name."""
    kernel, *values = _FORCED[label]
    for name, value in zip(("_CHAIN_NNZ", "_DIA_FILL", "_COPIES"), values):
        mp.setattr(cme_module, name, value)
    return kernel


@pytest.mark.parametrize("case", ["U70 M=500", "gaps", "clipped", "network"])
def test_dia_and_csr_kernels_give_identical_bytes(monkeypatch, network,
                                                   part211, upper211, case):
    # the DIA kernel adds each output entry's products in column order,
    # as csr_matvec does, and its padded zeros (the gaps in the band, the
    # clipped ends of each diagonal near 0 and M, and on a chain P's zero
    # diagonal entry in the row that sets Lambda, which CSR does not store)
    # add +0.0; the chained calls read rows their own call wrote: the bytes
    # must not move from those of one csr_matvec call a term.  The
    # network's P divides by Lambda through its reciprocal, so its diagonal
    # there is 1.1e-16, not 0.
    solve = {
        "U70 M=500": lambda: solve_chain_cme(upper211, 500,
                                             delta_p0(500, 80), 4.0),
        "gaps": lambda: solve_chain_cme(_gappy_chain(), 40, delta_p0(40, 37),
                                        1.0),
        "clipped": lambda: solve_chain_cme(_gappy_chain(), 2, delta_p0(2, 2),
                                           1.0),
        "network": lambda: _network_solve(network, part211),
    }[case]
    got = {}
    for label in _FORCED:
        kernel = _force(monkeypatch, label)
        cme = solve()
        assert cme.kernel == kernel
        assert (cme._PT.diagonal().min() == 0.0) == (case != "network")
        got[label] = _solve_floats(cme).tobytes()
        if label != "csr-chained":  # one term a call
            assert cme.kernel_calls == cme.poisson_terms, label
    assert got["csr-chained"] == got["dia"] == got["csr per term"]


def test_kernel_calls_make_every_term_once(monkeypatch, network, part211,
                                           upper211, lower225, naive111):
    # a spy on the compiled kernels counts the terms each call makes (its
    # rows over n): they sum to K per pass, over the ``kernel_calls`` the
    # solve counts.  U70 boxes up to M = 683 (3M - 1 stored entries) and
    # the network are chained, a csr_matvec call making a run of at most
    # the stack's copies; the stack holds at most K of them, as the
    # benchmark's network-cme chain solve (M = 24, t = 1, K = 149) shows.
    # M = 2000 makes one term a dia_matvec call.  The network's 487 terms
    # take 71 calls: 37 runs in the first block of 256, the second block's
    # first term and 33 runs after it
    calls = []

    def spy(name, kernel):
        def counted(n_rows, *args):
            calls.append((name, n_rows))
            return kernel(n_rows, *args)
        return counted

    monkeypatch.setattr(cme_module, "_dia_matvec",
                        spy("dia", cme_module._dia_matvec))
    monkeypatch.setattr(cme_module, "_csr_matvec",
                        spy("csr", cme_module._csr_matvec))
    solves = {  # name: (solve, kernel, copies, calls a pass or None)
        **{f"M={M}": (lambda M=M: solve_chain_cme(
            upper211, M, delta_p0(M, min(M, 80)), 4.0), "csr-chained",
            copies, None) for M, copies in ((24, 255), (160, 136), (500, 43))},
        "M=24, t=1": (lambda: _chain_solve(upper211), "csr-chained", 149, 1),
        "M=2000": (lambda: solve_chain_cme(upper211, 2000,
                                           delta_p0(2000, 80), 4.0), "dia",
                   1, 29105),
        "network": (lambda: _network_solve(network, part211), "csr-chained",
                    7, 71),
    }
    for name, (solve, kernel, copies, per_pass) in solves.items():
        cme = solve()
        n, K = len(cme.p0), cme.poisson_terms
        for passes, times in enumerate(([cme.t_final], [0.5 * cme.t_final]),
                                       start=1):
            calls.clear()
            cme.p(times)
            terms = [rows // n for _, rows in calls]
            assert sum(terms) == K and all(r % n == 0 for _, r in calls), name
            assert cme.kernel == kernel, name
            assert {k for k, _ in calls} == {kernel[:3]}, name
            assert cme.passes == passes, name
            assert cme.kernel_calls == passes * len(calls), name
            assert cme.matvecs == passes * K, name
            assert max(terms) == cme._stack[0] == copies, name
            assert per_pass is None or len(calls) == per_pass, name
    # with the chained kernel off, every chain generator is banded
    monkeypatch.setattr(cme_module, "_CHAIN_NNZ", -1)
    for c in (upper211, lower225, naive111, mm1(1.5, 2.0), _gappy_chain()):
        for M in (0, 1, 40, min(400, c.l_total)):
            assert solve_chain_cme(c, M, delta_p0(M, 0), 1.0).kernel == "dia"


def test_a_pt_past_the_stack_cap_makes_one_term_a_call(monkeypatch, network,
                                                      part211):
    # the network's P^T is not banded; below its 8,771 stored entries the
    # stack holds one copy, so the chained kernel is per-term CSR: one
    # csr_matvec call a term, with the bytes of the default solve
    want = _solve_floats(_network_solve(network, part211)).tobytes()
    monkeypatch.setattr(cme_module, "_STACK_ENTRIES", 8_000)
    calls = []
    csr_matvec = cme_module._csr_matvec

    def counted(n_rows, *args):
        calls.append(n_rows)
        return csr_matvec(n_rows, *args)

    monkeypatch.setattr(cme_module, "_csr_matvec", counted)
    cme = _network_solve(network, part211)
    assert cme.kernel == "csr-chained" and cme._stack[0] == 1
    for passes, t in enumerate((cme.t_final, 0.5 * cme.t_final), start=1):
        calls.clear()
        cme.p(t)
        assert calls == [len(cme.p0)] * cme.poisson_terms
        assert cme.kernel_calls == passes * cme.poisson_terms
    assert _solve_floats(cme).tobytes() == want


def _crowded_chain():
    """Offsets +1, +2 and +3 all cross every N from 2 on, so the crossing
    rates sum two and three jumps into one entry."""
    ell = np.arange(41, dtype=float)
    return BoundingChain("upper", 3, 40, 40,
                         {1: 0.1 + ell / 3, 2: 0.7 * np.sqrt(ell),
                          3: 0.3 + 0.1 * (ell % 7), -1: 2.2 * ell}, {}, (1,))


def _shared_network(copies):
    """A birth-death network whose +1 birth is ``copies`` reactions with the
    same change vector, with +2 and +3 births and a reaction that changes
    nothing, whose rate meets the diagonal."""
    births = [{"change": [1], "propensity": [
        {"coeff": c, "factors": [{"species": "X"}]}, {"coeff": 1 / 3}]}
        for c in (0.1, 0.2, 0.7)[:copies]]
    return network_from_dict({"species": ["X"], "reactions": births + [
        {"change": [2], "propensity": [{"coeff": 0.3}]},
        {"change": [3], "propensity": [{"coeff": 0.05, "factors": [
            {"species": "X"}]}]},
        {"change": [0], "propensity": [{"coeff": 0.9, "factors": [
            {"species": "X"}]}]},
        {"change": [-1], "propensity": [{"coeff": 1.7, "factors": [
            {"species": "X"}]}]}]})


def _construction_cases(network, part211, upper211):
    """name: the solve, made by the library from its generator's triplets."""
    one = ClassPartition((1,))
    return {
        **{f"U70 M={M}": lambda M=M: solve_chain_cme(
            upper211, M, delta_p0(M, 80), 4.0) for M in (160, 500, 2000)},
        "network n_max=24": lambda: _network_solve(network, part211),
        "offsets +1,+2,+3": lambda: solve_chain_cme(
            _crowded_chain(), 40, delta_p0(40, 5), 1.0),
        **{f"{k} shared births": lambda k=k: solve_network_cme(
            _shared_network(k), one, 30, (4,), 1.0) for k in (2, 3)},
    }


def _assert_same_csr(ours, theirs, what):
    for name in ("indptr", "indices", "data"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (what, name)
    assert tuple(ours.shape) == theirs.shape, what


@pytest.mark.parametrize("case", [
    "U70 M=160", "U70 M=500", "U70 M=2000", "network n_max=24",
    "offsets +1,+2,+3", "2 shared births", "3 shared births"])
def test_numpy_construction_gives_scipys_arrays(monkeypatch, network,
                                                part211, upper211, case):
    # Q, P^T = (I + Q/Lambda)^T, the kernel picked for P^T with its
    # arguments and stacked copies, and the crossing rates with both their
    # products, built as scipy.sparse builds them from the generator's own
    # triplets
    made = []
    csr = cme_module._csr

    def spy(data, rows, cols, shape):
        made.append((np.array(data), np.array(rows), np.array(cols), shape))
        return csr(data, rows, cols, shape)

    monkeypatch.setattr(cme_module, "_csr", spy)
    cme = _construction_cases(network, part211, upper211)[case]()
    data, rows, cols, shape = made[0]  # the generator's triplets
    Q = sp.csr_matrix((data, (rows, cols)), shape=shape)
    _assert_same_csr(cme._Q, Q, "Q")
    _assert_same_csr(cme.Q, Q, "Q as a scipy matrix")
    PT = (sp.identity(shape[0], format="csr") + Q / cme.uniform_rate).T.tocsr()
    _assert_same_csr(cme._PT, PT, "P^T")
    kernel, matvec = cme_module._matvec_kernel(PT)
    assert (kernel, matvec.func) == (cme.kernel, cme._matvec.func)
    for a, b in zip(cme._matvec.args, matvec.args, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), kernel
    if kernel == "csr-chained":  # the copies of P^T down a block diagonal
        copies, *stack = cme._stack
        _assert_same_csr(cme_module._CSR(*stack, (copies * shape[0],) * 2),
                         sp.block_diag([PT] * copies, format="csr"),
                         "stacked P^T")
    coo = Q.tocoo()  # the crossing rates as scipy.sparse built them
    ci, cj = cme.classes[coo.row], cme.classes[coo.col]
    up = cj > ci
    span = (cj - ci)[up]
    offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    C = sp.csr_matrix(
        (np.repeat(coo.data[up], span),
         (np.repeat(ci[up], span) + offset, np.repeat(coo.row[up], span))),
        shape=(int(cme.classes.max()) + 1, len(cme.classes)))
    _assert_same_csr(cme.crossing_rates, C, "crossing rates")
    z = cme.occupation
    assert (cme.crossing_rates @ z).tobytes() == (C @ z).tobytes()
    P = cme.p(np.linspace(0.0, cme.t_final, 9))[:, :6]  # not contiguous
    assert (cme.crossing_rates @ P).tobytes() == (C @ P).tobytes()
    if case.endswith("shared births"):  # the sums really are order-sensitive
        assert len(data) > Q.nnz


DBL_MIN = np.finfo(float).tiny


def _reference_pmf(k, m):
    """The Poisson weights with every subnormal kept."""
    m = np.asarray(m, dtype=float)[:, None]
    return np.exp(special.xlogy(k, m) - m - special.gammaln(k + 1.0))


def _reference_pass(cme, times):
    """The pass of ``cme`` at ``times`` with ``_reference_pmf``'s weights,
    each term a product ``P^T @ v`` of its own, whatever kernel the solve
    runs: (p at each time, one row each, p(t_final), z)."""
    n, K, size = len(cme.p0), cme.poisson_terms, cme_module._BLOCK
    means = cme.uniform_rate * np.array(times)
    final_mean = cme.uniform_rate * np.array([cme.t_final])
    out, final, z = np.zeros((len(times), n)), np.zeros((1, n)), np.zeros(n)
    block = np.empty((min(size, K + 1), n))
    v = cme.p0
    for start in range(0, K + 1, size):
        stop = min(start + size, K + 1)
        block.fill(0.0)
        for row, k in zip(block, range(start, stop)):
            row[:] = cme._PT @ v if k else v
            v = row
        ks = np.arange(start, stop)
        terms = block[:len(ks)]
        out += _reference_pmf(ks, means) @ terms
        final += _reference_pmf(ks, final_mean) @ terms
        z += cme._z_weights[ks] @ terms
        v = v.copy()
    return out, final[0], z


def _heatmap_times():
    """The times of the benchmark's heatmap query, as ``cmd_heatmap`` makes
    them: 128 fine points on [0, 4] and the grid 0.5:4:0.5."""
    t_grid = parse_grid("0.5:4:0.5")
    return np.concatenate([np.linspace(0.0, 4.0, 16 * len(t_grid)), t_grid])


def _pass_cases(network, part211, upper211):
    """(solve, the times of each query in turn)."""
    return {
        "U70 M=160, heatmap times": (
            solve_chain_cme(upper211, 160, delta_p0(160, 80), 4.0),
            [_heatmap_times()]),
        "U70 M=500": (
            solve_chain_cme(upper211, 500, delta_p0(500, 80), 4.0),
            [[4.0], np.linspace(0.0, 4.0, 9)]),
        "network n_max=24, cdf_dominance times": (
            _network_solve(network, part211),
            [np.concatenate([[0.0], np.linspace(0.05, 1.0, 20)])]),
    }


@pytest.mark.parametrize("case", ["U70 M=160, heatmap times", "U70 M=500",
                                  "network n_max=24, cdf_dominance times"])
def test_pass_gives_the_reference_bytes(network, part211, upper211, case):
    # the weights below DBL_MIN that the pass sets to 0 move no byte of p,
    # p(t_final) or z on these solves.  U70 at M=500 first asks for t_final
    # alone, as truncate and plan-truncation do, then for nine more times
    cme, queries = _pass_cases(network, part211, upper211)[case]
    for times in queries:
        fresh = sorted({float(t) for t in times} - cme._cache.keys()
                       - {cme.t_final})
        cme.p(times)
        out, final, z = _reference_pass(cme, fresh)
        for t, want in zip(fresh, out):
            assert cme.p(t).tobytes() == want.tobytes(), (case, t)
        assert cme.p(cme.t_final).tobytes() == final.tobytes(), case
        assert cme.occupation.tobytes() == z.tobytes(), case


@st.composite
def _small_solves(draw):
    """A generator on up to 5 states whose mass may leave through any row,
    p0, a horizon whose uniformization mean reaches past 700, and times."""
    n = draw(st.integers(1, 5))
    rate = st.one_of(st.just(0.0), st.floats(0.01, 200.0))
    Q = np.array([[draw(rate) for _ in range(n)] for _ in range(n)])
    np.fill_diagonal(Q, 0.0)
    leak = np.array([draw(rate) for _ in range(n)])
    np.fill_diagonal(Q, -(Q.sum(axis=1) + leak))
    p0 = np.zeros(n)
    p0[draw(st.integers(0, n - 1))] = 1.0
    t_final = draw(st.floats(0.0, 6.0))
    times = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    return sp.csr_matrix(Q), p0, t_final, [t * t_final for t in times]


@settings(max_examples=100, deadline=None)
@given(_small_solves())
def test_dropped_weights_only_lower_p(solve):
    # every weight and term is nonnegative and rounding is monotone, so a
    # weight below DBL_MIN set to 0 can only lower p, by at most one
    # DBL_MIN per term
    Q, p0, t_final, times = solve
    cme = solve_cme(Q, p0, t_final)
    fresh = sorted(set(times) - {t_final})
    got = cme.p(fresh + [t_final]).T
    out, final, z = _reference_pass(cme, fresh)
    want = np.vstack([out, final])
    slack = (cme.poisson_terms + 1) * DBL_MIN
    assert np.all(got <= want)
    assert np.all(want - got <= slack)
    assert cme.occupation.tobytes() == z.tobytes()


@settings(max_examples=100, deadline=None)
@given(_small_solves())
def test_chained_and_per_term_passes_give_identical_bytes(solve):
    # every small generator is chained; with one copy, or with DIA forced,
    # the same solve makes one term a call, with csr_matvec or dia_matvec
    # (an empty P^T, a one-state box whose state sets Lambda, takes DIA too)
    Q, p0, t_final, times = solve
    got = {}
    for label in _FORCED:
        with pytest.MonkeyPatch.context() as mp:
            kernel = _force(mp, label)
            cme = solve_cme(Q, p0, t_final)
            got[label] = (cme.p(times + [t_final]).tobytes(),
                          cme.occupation.tobytes())
            assert cme.kernel == kernel, label
            if label != "csr-chained":
                assert cme.kernel_calls == cme.poisson_terms, label
    assert len(set(got.values())) == 1


def test_no_weight_in_a_product_is_subnormal(monkeypatch, network, part211,
                                             upper211):
    # the heatmap solve's reference weights hold subnormals; the pass's
    # weights hold none, and it takes t_final's weights once per pass and
    # no weights for the times when a query asks for t_final alone
    made = []
    pmf = cme_module._poisson_pmf

    def spy(k, *args):
        w = pmf(k, *args)
        made.append((k, w))
        return w

    monkeypatch.setattr(cme_module, "_poisson_pmf", spy)
    for case, (cme, [times, *_]) in _pass_cases(network, part211,
                                                upper211).items():
        made.clear()
        cme.p(times)
        K, blocks = cme.poisson_terms, range(0, cme.poisson_terms + 1,
                                              cme_module._BLOCK)
        if case == "U70 M=500":
            assert [len(k) for k, _ in made] == [K + 1]
        else:
            assert len(made) == 1 + len(blocks), case
        for _, w in made:
            assert not np.any((w > 0) & (w < DBL_MIN)), case
        z = cme._z_weights
        assert not np.any((z > 0) & (z < DBL_MIN)), case
        if case == "U70 M=160, heatmap times":
            fresh = sorted(set(times) - {cme.t_final})
            ref = _reference_pmf(np.arange(K + 1),
                                 cme.uniform_rate * np.array(fresh))
            assert np.count_nonzero((ref > 0) & (ref < DBL_MIN)) > 1000
