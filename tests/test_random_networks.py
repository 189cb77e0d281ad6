"""The paper's promise as a property over random mass-action networks.

For any network and partition the builder accepts, the upper chain bounds
the network and the lower chain is bounded by it.  The oracle checks three
parts: the domination and monotonicity assumptions on the chain's whole
trusted range; CDF dominance of the upper chain's solve over the network's;
and the upper chain's truncation certificate E_T(N) against a lower bound
on the network's exit probability from classes <= N.  A build either
returns a chain, which must pass, or raises one of the known failures,
asserted by name.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from boundchain import (ClassPartition, StabilizationError, ValidationError,
                        build_bounding_chain, cdf_dominance, certificate_table,
                        delta_p0, network_from_dict, solve_chain_cme,
                        solve_cme, solve_network_cme, verify_assumptions)

# (l_exact, l_total) by species count: under weights (1, 1, 1) the classes
# 0..400 hold more states than network.DEFAULT_CLASS_CAP, so d = 3 builds
# stop at 80
SIZES = {2: (120, 400), 3: (40, 80)}
WINDOW = 30  # classes of the network solves
START_CAP = 20  # largest class of a start state
TIMES = np.linspace(0.1, 1.0, 10)


@dataclass(frozen=True)
class Case:
    doc: dict
    weights: tuple
    direction: str
    x0: tuple


def _factor(i, order=1):
    return {"species": i, "exponent": order, "kind": "falling-factorial"}


def _reaction(change, coeff, *factors):
    return {"change": list(change),
            "propensity": [{"coeff": coeff, "factors": list(factors)}]}


def _unit(d, *moves):
    v = [0] * d
    for i, c in moves:
        v[i] += c
    return v


# each pool reaction from its species i and j != i, reactant order <= 2
POOL = {
    "birth": lambda d, i, j, c: _reaction(_unit(d, (i, 1)), c),
    "death": lambda d, i, j, c: _reaction(_unit(d, (i, -1)), c, _factor(i)),
    "dimer-decay": lambda d, i, j, c: _reaction(
        _unit(d, (i, -2)), c, _factor(i, 2)),
    "dimerization": lambda d, i, j, c: _reaction(
        _unit(d, (i, -2), (j, 1)), c, _factor(i, 2)),
    "conversion": lambda d, i, j, c: _reaction(
        _unit(d, (i, -1), (j, 1)), c, _factor(i)),
    "autocatalysis": lambda d, i, j, c: _reaction(
        _unit(d, (i, 1)), c, _factor(i)),
    "pairing": lambda d, i, j, c: _reaction(
        _unit(d, (i, -1), (j, -1)), c, _factor(i), _factor(j)),
}

# dyadic coefficients keep the row-end f-table path exact; 0.1 and 1/3 do not
# round exactly, and send it to full enumeration
COEFFS = st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.5, 3.0, 0.1, 1 / 3]),
                   st.floats(0.2, 3.0))


@st.composite
def mass_action_networks(draw):
    """A network of 2 or 3 species, 3 to 6 pool reactions, one death per
    species and a birth of X0; coprime weights <= 3, a direction, and a
    start state of class <= START_CAP."""
    d = draw(st.integers(2, 3))
    reactions = []
    for _ in range(draw(st.integers(3, 6))):
        i, j = draw(st.permutations(range(d)))[:2]
        kind = draw(st.sampled_from(sorted(POOL)))
        reactions.append(POOL[kind](d, i, j, draw(COEFFS)))
    reactions += [POOL["death"](d, i, None, draw(COEFFS)) for i in range(d)]
    reactions.append(POOL["birth"](d, 0, None, draw(COEFFS)))
    weights = draw(st.tuples(*[st.integers(1, 3)] * d))
    g = math.gcd(*weights)
    weights = tuple(w // g for w in weights)
    x0 = []
    room = START_CAP
    for w in weights:
        x0.append(draw(st.integers(0, room // w)))
        room -= w * x0[-1]
    return Case({"species": [f"X{i}" for i in range(d)],
                 "reactions": reactions},
                weights, draw(st.sampled_from(["upper", "lower"])), tuple(x0))


# the quadratic tail of offset -1, fit on [105, 120], does not hold past
# level 145: build trusts it to 400 without a check
TAIL_WITNESS = Case(
    {"species": ["X0", "X1"], "reactions": [
        _reaction([-1, -1], 1.5, _factor(0), _factor(1)),
        _reaction([1, 0], 2.5, _factor(0)),
        _reaction([0, -1], 2.5, _factor(1)),
        _reaction([-2, 1], 0.8, _factor(0, 2)),
        _reaction([0, -2], 2.7, _factor(1, 2)),
        _reaction([-1, 0], 0.3, _factor(0)),
        _reaction([0, -1], 0.2, _factor(1)),
        _reaction([1, 0], 1.6)]},
    (1, 1), "upper", (5, 5))


def _build(network, partition, case):
    """The chain, or None for a known failure, asserted by name."""
    l_exact, l_total = SIZES[len(case.weights)]
    try:
        return build_bounding_chain(network, partition, case.direction,
                                    l_exact=l_exact, l_total=l_total,
                                    tail_degree=3)
    except StabilizationError as exc:
        # a tail outside the two model families
        assert "fit no periodic-affine or degree<=3 model" in str(exc), exc
        event(f"{case.direction}: StabilizationError")
    except ValidationError as exc:
        # the lower U-table over an empty class 1
        assert case.direction == "lower" and min(case.weights) > 1, exc
        assert "U beyond the band does not vanish" in str(exc), exc
        event("lower: ValidationError, U beyond the band")
    return None


def _trusted_range(case):
    """The built chain (or None) and its check on [0, l_total - j_max]."""
    network = network_from_dict(case.doc)
    partition = ClassPartition(case.weights)
    chain = _build(network, partition, case)
    if chain is None:
        return network, partition, None, None
    return network, partition, chain, verify_assumptions(
        network, partition, chain, chain.l_total - chain.j_max)


def test_tail_witness_fails_past_its_window():
    # stays pinned until build checks every level it trusts: then the build
    # itself fails, naming this level and state
    *_, report = _trusted_range(TAIL_WITNESS)
    assert report.counterexample == {"kind": "A1", "ell": 146, "m": 145,
                                     "state": (142, 4)}, report.detail


@settings(derandomize=True, deadline=None, max_examples=50)
@example(TAIL_WITNESS)
@given(mass_action_networks())
def test_built_chains_bound_random_networks(case):
    network, partition, chain, report = _trusted_range(case)
    if chain is None:
        return
    # part 1: domination and monotonicity on the whole trusted range, which
    # holds on the exact head; past it the tail models are not checked at
    # build time, and some fail there
    if not report.ok:
        assert report.counterexample["ell"] > chain.l_exact, report.detail
        event(f"{case.direction}: fails past l_exact")
        return
    event(f"{case.direction}: built, d={len(case.weights)}")
    if case.direction == "lower":
        return
    # part 2: the chain's CDF below the network's on classes <= WINDOW
    c0 = partition.class_of(case.x0)
    net = solve_network_cme(network, partition, WINDOW, case.x0, 1.0)
    rep = cdf_dominance(
        solve_chain_cme(chain, WINDOW, delta_p0(WINDOW, c0), 1.0), [net], TIMES)
    assert rep.ok, rep.worst
    # part 3: E_T(N) at least the network's exit probability from <= N;
    # the states are in class order, so the box of classes <= N is a
    # leading block of the WINDOW box's generator
    M = chain.l_total
    bounds, _ = certificate_table(
        solve_chain_cme(chain, M, delta_p0(M, c0), 1.0))
    for N in range(c0, WINDOW + 1):
        n = np.searchsorted(net.classes, N, side="right")
        box = solve_cme(net.Q[:n, :n], net.p0[:n], 1.0)
        exit_lo = 1.0 - box.mass(1.0) - box.solver_term
        assert bounds[N] >= exit_lo - 1e-9, (N, bounds[N], exit_lo)
