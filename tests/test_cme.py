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
from scipy.linalg import expm

from boundchain import (BoundingChain, InfeasibleError, TailModel,
                        ValidationError, cdf_dominance, certificate_table,
                        chain_generator, delta_p0, exit_flux, min_truncation,
                        network_from_dict, network_generator, solve_chain_cme,
                        solve_cme, solve_network_cme, truncation_certificate)
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
    text = cert.summary()
    assert "E_T(20)" in text and "flux" in text


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
    flux_fn, F = exit_flux(cme, 60)
    assert F == 0.0 and flux_fn(1.0) == 0.0


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
    # the matching window passes, given as ints or floats
    assert truncation_certificate(chain, p0, 30, 60, 2, cme=cme).M == 60

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
    sol = cme.sol
    assert (sol.passes, sol.matvecs) == (0, 0)  # set-up runs no mat-vec
    cme.p([0.5, 3.0, 1.0])
    # K + 1 terms take K mat-vecs; z rides along
    assert (sol.passes, sol.matvecs) == (1, cme.poisson_terms)
    cme.occupation
    cme.p([1.0, 0.5])
    assert sol.passes == 1  # cached times add no pass
    cme.p([0.25, 3.0, 2.0])
    assert (sol.passes, sol.matvecs) == (2, 2 * cme.poisson_terms)
    cme.p(6.0)  # past t_final: one pass with a larger K
    assert sol.passes == 3
    assert sol.matvecs > 3 * cme.poisson_terms


def test_occupation_first_runs_one_pass():
    cme = solve_cme(two_state(), [1.0, 0.0], t_final=2.0)
    cme.occupation
    cme.mass(2.0)
    assert cme.sol.passes == 1


def test_a_first_query_past_t_final_runs_the_t_final_pass_first():
    cme = solve_cme(two_state(), [1.0, 0.0], t_final=2.0)
    cme.p([5.0, 1.0, 2.0])
    # the t_final pass for p(t_final) and z, then one longer pass for 1 and 5
    assert cme.sol.passes == 2
    cme.occupation
    assert cme.sol.passes == 2


def test_cdf_dominance_runs_one_pass_per_fresh_solve(network, part211,
                                                     upper211):
    net = solve_network_cme(network, part211, 16, (5, 2, 2), 1.0)
    chain = solve_chain_cme(upper211, 16, delta_p0(16, 14), 1.0)
    assert cdf_dominance(chain, [net], np.linspace(0.05, 1.0, 20)).ok
    assert (net.sol.passes, chain.sol.passes) == (1, 1)
    assert net.sol.matvecs == net.poisson_terms
    assert chain.sol.matvecs == chain.poisson_terms


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
        assert single.flux == exit_flux(cme, N)[1]
        assert single.solver_term == cme.solver_term


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


def test_import_loads_neither_integrate_nor_stats():
    code = ("import sys, boundchain; "
            "print(sorted(m for m in ('scipy.integrate', 'scipy.stats') "
            "if m in sys.modules))")
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=120,
                          env={"PYTHONPATH": str(src), "PATH": ""})
    assert done.stdout.strip() == "[]"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for a in parts:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def _network_solve(network, part211):
    return solve_network_cme(network, part211, 24, (5, 2, 2), 1.0)


def _chain_solve(upper211):
    return solve_chain_cme(upper211, 24, delta_p0(24, 14), 1.0)


def _solve_digest(cme) -> str:
    P = cme.p([0.3, cme.t_final])  # the first query of the solve
    bounds, parts = certificate_table(cme)
    return _digest(P, cme.occupation, bounds, parts["initial_tail"],
                   parts["flux"], [parts["mass_deficit"], parts["solver_term"]])


# sha256 of the floats each solve returns, recorded while every solve ran
# its t_final pass at construction and one more pass per query at new times
SOLVE_DIGESTS = {
    "network":
        "5ab051b778b0649ce8b4efcb37f70f3e6dccc2e1b262f509e53cd566967de700",
    "chain":
        "2860389de072a69e116fddfd840e3c81fc2abb35038bb1a0b815f88db2be8340",
    "dominance":
        "b2ef35bdb26430cf34d2c1ed1d67724d2f5b71318953638fb77550ac25614a81",
    "past_t_final":
        "45ec7240f18c0ca59c39b9fbb2661cce04269eda33dac8703816f55cace2bccc",
}


def test_solves_are_pinned(network, part211, upper211):
    rep = cdf_dominance(_chain_solve(upper211),
                        [_network_solve(network, part211)],
                        np.linspace(0.05, 1.0, 20))
    past = solve_chain_cme(upper211, 300, delta_p0(300, 80), 4.0)
    got = {
        "network": _solve_digest(_network_solve(network, part211)),
        "chain": _solve_digest(_chain_solve(upper211)),
        "dominance": hashlib.sha256(repr(
            (rep.ok, rep.max_violation, rep.worst, rep.checked)
        ).encode()).hexdigest(),
        # a first query past t_final: the t_final pass, then one longer pass
        "past_t_final": _digest(past.p([5.0, 1.0, 4.0])),
    }
    assert got == SOLVE_DIGESTS
