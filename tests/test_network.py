"""Network parsing, class enumeration, and aggregation."""

import copy
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from boundchain import (ClassPartition, Factor, PropensityPolynomial,
                        Reaction, ResourceLimitError, Term, ValidationError,
                        aggregate_rate, class_of, class_shift, class_size,
                        compute_f, enumerate_class, j_max, load_network,
                        network_from_dict, network_generator,
                        validate_network)
from boundchain import network as network_module
from boundchain.network import DEFAULT_CLASS_CAP, _enumerate, class_rates
from conftest import NETWORK_DOC, NETWORK_PATH


def test_load_matches_dict(network):
    from_file = load_network(NETWORK_PATH)
    assert from_file.species == network.species
    assert len(from_file.reactions) == len(network.reactions)
    x = (7, 3, 2)
    for a, b in zip(from_file.reactions, network.reactions):
        assert a.change == b.change
        assert a.propensity.evaluate(x) == b.propensity.evaluate(x)


def test_propensities_at_a_point(network):
    x = (3, 2, 1)
    vals = [r.propensity.evaluate(x) for r in network.reactions]
    # b1(x2+x3)+b2, alpha x1(x1-1), beta x1 x2, d1 x1, d2 x2, d3 x3
    assert vals == [5.5, 15.0, 12.0, 7.5, 5.0, 3.0]


def test_falling_factorial_vs_plain_power():
    ff = Factor(0, exponent=2, kind="falling-factorial")
    pp = Factor(0, exponent=2, kind="plain-power")
    x = np.array([0.0, 1.0, 2.0, 5.0])
    assert list(ff.evaluate(x)) == [0.0, 0.0, 2.0, 20.0]
    assert list(pp.evaluate(x)) == [0.0, 1.0, 4.0, 25.0]


def test_evaluate_many_matches_scalar(network):
    states = np.array([[0, 0, 0], [1, 2, 3], [10, 5, 0]])
    for r in network.reactions:
        many = r.propensity.evaluate_many(states)
        each = [r.propensity.evaluate(s) for s in states]
        assert np.allclose(many, each, rtol=0, atol=0)
    assert np.array_equal(network.rates(states), np.column_stack(
        [r.propensity.evaluate_many(states) for r in network.reactions]))
    # counts up to 10^6, where cubes and their products no longer fit in a
    # double exactly, and exponents 1-3 of both factor kinds: every float of
    # the scalar evaluation must be the vectorized one
    rng = np.random.default_rng(3)
    big = np.vstack([rng.integers(0, 10**6, size=(400, 2)),
                     rng.integers(0, 300, size=(100, 2)), [[0, 0], [1, 1]],
                     [[2, 10**6], [10**6, 999_999]]])
    for kind in ("plain-power", "falling-factorial"):
        poly = PropensityPolynomial([
            Term(0.7, (Factor(0, 3, kind),)),
            Term(1.3, (Factor(1, 2, kind), Factor(0, 1, kind))),
            Term(2.9, (Factor(1, 3, kind), Factor(0, 3, kind))),
            Term(0.1),
        ])
        many = poly.evaluate_many(big)
        each = np.array([poly.evaluate(s) for s in big])
        assert many.tobytes() == each.tobytes(), kind
        assert all(type(poly.evaluate(s)) is float for s in big[:3])


def test_plain_cubes_are_correctly_rounded():
    # x*x is exact below 94,906,266, so x*x*x rounds once; numpy's
    # vectorized power gives 9007610865436762.0 for 208067 ** 3, one ulp low
    xs = [208_067, 208_064, 94_906_265, *np.random.default_rng(7).integers(
        0, 94_906_266, size=400).tolist()]
    want = [float(x ** 3) for x in xs]
    cube = Factor(0, 3)
    assert cube.evaluate(xs).tolist() == want
    poly = PropensityPolynomial([Term(1.0, (cube,))])
    assert [poly.evaluate((x,)) for x in xs] == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["plain-power", "falling-factorial"]),
       st.integers(1, 4), st.data())
def test_factor_values_below_2_53_are_exact(kind, exponent, data):
    x = data.draw(st.integers(0, int(2 ** (53 / exponent)) + exponent))
    exact = math.prod(x if kind == "plain-power" else x - r
                      for r in range(exponent))
    assume(exact < 2 ** 53)
    f = Factor(0, exponent, kind)
    assert f.evaluate([x])[0] == exact
    assert PropensityPolynomial([Term(1.0, (f,))]).evaluate((x,)) == exact


def _term(coeff, *factors):
    """A document term; a factor is (species, exponent, kind initial)."""
    kinds = {"p": "plain-power", "f": "falling-factorial"}
    return {"coeff": coeff, "factors": [
        {"species": s, "exponent": e, "kind": kinds[k]} for s, e, k in factors]}


# plain and falling powers of exponents 1-4 on two species; under weights
# (150, 1) classes 0..9740 hold B <= 64 and A <= 9740, where every power
# is below 2^53
POWERS_DOC = {
    "species": ["B", "A"],
    "reactions": [
        {"change": [0, 1], "propensity": [
            _term(0.3, ("A", 4, "p")), _term(0.5, ("B", 1, "p")),
            _term(0.25)]},
        {"change": [0, -1], "propensity": [
            _term(1.7, ("A", 4, "f"), ("B", 1, "p")),
            _term(0.9, ("A", 3, "p"), ("B", 2, "f"))]},
        {"change": [1, 0], "propensity": [
            _term(2.1, ("A", 3, "f"), ("B", 2, "p")),
            _term(1.1, ("A", 1, "f"))]},
        {"change": [-1, 0], "propensity": [
            _term(0.7, ("A", 2, "p"), ("B", 3, "p")),
            _term(1.3, ("B", 3, "f"), ("A", 1, "p")),
            _term(0.1, ("A", 2, "f"), ("B", 4, "p"))]},
        {"change": [-1, 1], "propensity": [
            _term(0.01, ("A", 4, "p"), ("B", 4, "f"))]},
    ],
}


# recorded before single states and blocks shared one evaluator
@pytest.mark.parametrize("doc, weights, hi, digest", [
    (POWERS_DOC, (150, 1), 9740,
     "d101c90af5581de71a7794b5d68d814a9332b4e3774d6c931882510e6271c796"),
    (NETWORK_DOC, (2, 1, 1), 200,
     "54a0dd70c013159cb4044f9dfee35ddf1275c370433633506ce0c6b25b19f0ef"),
])
def test_rate_blocks_are_pinned(doc, weights, hi, digest):
    R = network_from_dict(doc)._rate_block(_enumerate(0, hi, weights).T)
    assert hashlib.sha256(R.tobytes()).hexdigest() == digest


def test_single_state_rates_are_pinned(network):
    states = np.random.default_rng(13).integers(0, 5000, size=(500, 3))
    vals = [[r.propensity.evaluate(s) for r in network.reactions]
            for s in states.tolist()]
    assert hashlib.sha256(np.array(vals).tobytes()).hexdigest() == (
        "b492c28d3b069f54bf6b0435f4010747b0828b869f21cebe48be092fa25bdcaa")


def test_malformed_documents_rejected():
    with pytest.raises(ValidationError):
        network_from_dict({"species": []})
    with pytest.raises(ValidationError):
        network_from_dict({"species": ["A"], "reactions": [{"change": [1]}]})
    with pytest.raises(ValidationError):
        network_from_dict({"species": ["A"], "reactions": [
            {"change": [1], "propensity": [{"coeff": "missing"}]}]})
    with pytest.raises(ValidationError):
        network_from_dict({"species": ["A"], "reactions": [
            {"change": [1, 2], "propensity": [{"coeff": 1.0}]}]})
    # integer fields are not truncated; the error names reaction and field
    for change, factor, bad in [
            ([1], {"species": "A", "exponent": 2.5}, "exponent 2.5"),
            ([1], {"species": "A", "exponent": True}, "exponent True"),
            ([1], {"species": "A", "exponent": float("inf")}, "exponent inf"),
            ([1], {"species": 0.9}, "species 0.9"),
            ([1], {"species": True}, "species True"),
            ([1.5], {"species": "A"}, "change 1.5"),
            ([True], {"species": "A"}, "change True")]:
        with pytest.raises(ValidationError,
                           match=f"reaction 1 has {bad}, not an integer"):
            network_from_dict({"species": ["A"], "reactions": [
                {"change": [-1], "propensity": [{"coeff": 1.0}]},
                {"change": change, "propensity": [
                    {"coeff": 1.0, "factors": [factor]}]}]})
    # an integral float is an integer
    net = network_from_dict({"species": ["A"], "reactions": [
        {"change": [1.0], "propensity": [
            {"coeff": 1.0, "factors": [{"species": 0.0, "exponent": 2.0}]}]}]})
    assert net.reactions[0].change == (1,)
    assert net.reactions[0].propensity.terms[0].factors == (Factor(0, 2),)


@pytest.mark.parametrize("species", [7, -1])
def test_factor_species_must_be_in_range(species):
    # -1 would otherwise index the last column and rate the wrong species
    with pytest.raises(ValidationError, match="outside 0..1"):
        network_from_dict({"species": ["A", "B"], "reactions": [
            {"change": [-1, 0], "propensity": [
                {"coeff": 1.0, "factors": [{"species": species}]}]}]})


def test_partition_validation():
    with pytest.raises(ValidationError):
        ClassPartition((0, 1))
    with pytest.raises(ValidationError):
        ClassPartition(())
    p = ClassPartition((2, 1, 1))
    assert class_of((1, 2, 3), p) == 7
    with pytest.raises(ValidationError):
        class_of((1, -1, 0), p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 25))
@example([2, 1, 1], 2)
def test_enumerate_class_order_and_content(weights, ell):
    p = ClassPartition(tuple(weights))
    want = [x for x in itertools.product(*(range(ell // w + 1) for w in weights))
            if sum(w * v for w, v in zip(weights, x)) == ell]
    got = enumerate_class(ell, p)
    assert got.shape == (len(want), len(weights))
    assert got.dtype == np.int64
    assert [tuple(int(v) for v in row) for row in got] == want
    assert class_size(ell, p) == len(want)


def _class_count_by_recursion(weights, ell):
    """The recursion class_size used before the linear pass: every count of
    the first species, then the rest on what is left."""
    if ell < 0:
        return 0
    if not weights:
        return 1 if ell == 0 else 0
    head, rest = weights[0], weights[1:]
    return sum(_class_count_by_recursion(rest, ell - head * v)
               for v in range(ell // head + 1))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4),
       st.integers(0, 60))
def test_class_size_matches_the_recursion(weights, ell):
    assert class_size(ell, ClassPartition(tuple(weights))) == \
        _class_count_by_recursion(tuple(weights), ell)


def test_class_rates_counts_a_heavy_first_weight_in_linear_time():
    # the recursion looped over every count of the last species, so classes
    # 0..9740 under (150, 1) took seconds before any state was listed
    net = network_from_dict({
        "species": ["A", "B"],
        "reactions": [{"change": [0, 1], "propensity": [{"coeff": 1.0}]}]})
    part = ClassPartition((150, 1))
    runs = list(class_rates(net, part, 9740))
    sizes = np.concatenate([s for _, s, _, _ in runs])
    X = np.concatenate([X for _, _, X, _ in runs])
    assert np.array_equal(sizes, np.bincount(X @ np.array([150, 1]),
                                             minlength=9741))
    assert sizes.sum() == sum(ell // 150 + 1 for ell in range(9741))


def test_enumerate_class_matches_count():
    p = ClassPartition((2, 2, 5))
    for ell in range(0, 30):
        n = class_size(ell, p)
        states = enumerate_class(ell, p)
        assert len(states) == n
        if n:
            assert (states @ np.array([2, 2, 5]) == ell).all()
    assert class_size(10, p) == 7
    assert class_size(1, p) == 0
    assert class_size(3, p) == 0


def test_class_cap_is_checked_on_every_per_class_pass(network, part211):
    # compute_f, validate_network and network_generator all visit 0..12
    total = sum(class_size(ell, part211) for ell in range(13))
    runs = [lambda cap: compute_f(network, part211, "upper", 12, cap=cap),
            lambda cap: validate_network(network, part211, 12, cap=cap),
            lambda cap: network_generator(network, part211, 12, cap=cap)]
    for run in runs:
        run(total)
        with pytest.raises(ResourceLimitError,
                           match=rf"^classes 0\.\.12 hold {total} states, "
                                 rf"above the cap of {total - 1}$"):
            run(total - 1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 10), st.integers(0, 6))
@example([2, 2, 5], 0, 6)  # classes 1 and 3 are empty
@example([4, 3, 5], 1, 1)  # a run of empty classes only
def test_block_enumerator_concatenates_classes(weights, lo, width):
    hi = lo + width
    lattice = itertools.product(*(range(hi // w + 1) for w in weights))
    want = sorted(((sum(w * v for w, v in zip(weights, x)), x) for x in lattice
                   if lo <= sum(w * v for w, v in zip(weights, x)) <= hi))
    got = _enumerate(lo, hi, tuple(weights))
    assert got.shape == (len(want), len(weights))
    assert got.dtype == np.int64
    assert [tuple(int(v) for v in row) for row in got] == [x for _, x in want]


def negative_past_runs():
    """The example network with d2 x2 - 0.03 x2 x3 as X2's decay: the first
    negative propensity under (2, 1, 1) is at (0, 1, 84) in class 85, and
    classes 0..84 hold 53,922 states."""
    doc = copy.deepcopy(NETWORK_DOC)
    doc["reactions"][4]["propensity"].append(
        {"coeff": -0.03, "factors": [{"species": "X2"}, {"species": "X3"}]})
    return network_from_dict(doc)


@pytest.mark.parametrize("run_states", [1, 7, 64, None])
def test_run_size_changes_no_result(monkeypatch, network, part211, part225,
                                    run_states):
    # every class pass gives the same tables, generator, reports and errors
    # under runs of 1, 7 and 64 states as under the default; None keeps the
    # default, so the error checks below run under it too
    default = network_module.RUN_STATES

    def results():
        return ([compute_f(network, p, direction, 60)
                 for p in (part211, part225, ClassPartition((4, 3, 5)))
                 for direction in ("upper", "lower")],
                network_generator(network, part211, 16),
                validate_network(negative_past_runs(), part211, 90))

    want = results()
    if run_states is not None:
        monkeypatch.setattr(network_module, "RUN_STATES", run_states)
    got = results()
    for a, b in zip(want[0], got[0]):
        for name in ("minus", "plus", "empty"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    (Qa, sa, ca), (Qb, sb, cb) = want[1], got[1]
    for x, y in ((Qa.data, Qb.data), (Qa.indices, Qb.indices),
                 (Qa.indptr, Qb.indptr), (sa, sb), (ca, cb)):
        assert x.tobytes() == y.tobytes()
    assert got[2].violations == want[2].violations
    assert got[2].violations[0]["state"] == (0, 1, 84)
    # the first negative propensity past several runs, and the cap, are
    # named as by the class-by-class pass
    net = negative_past_runs()
    assert sum(class_size(ell, part211) for ell in range(85)) > 3 * default
    message = (r"negative propensity -0.020000000000000018 for reaction 4 at "
               r"\(0, 1, 84\)")
    for run in (lambda cap: compute_f(net, part211, "upper", 100, cap=cap),
                lambda cap: network_generator(net, part211, 90, cap=cap)):
        with pytest.raises(ValidationError, match=message):
            run(DEFAULT_CLASS_CAP)
        with pytest.raises(ResourceLimitError,
                           match=r"classes 0\.\.84 hold 53922 states, above "
                                 r"the cap of 53921"):
            run(53921)
    # compute_f checks each run as it comes: with classes 0..86 inside the
    # cap, the class 85 error comes before the cap's
    fits = sum(class_size(ell, part211) for ell in range(87))
    with pytest.raises(ValidationError, match=message):
        compute_f(net, part211, "upper", 100, cap=fits)


def test_class_shift_and_j_max(network, part211, part225, part111):
    shifts211 = [class_shift(r, part211) for r in network.reactions]
    assert shifts211 == [2, -1, -2, -2, -1, -1]
    assert j_max(network, part211) == 2
    assert j_max(network, part225) == 5
    assert j_max(network, part111) == 1


def test_aggregate_rate(network, part211):
    # mass moving up at least 5 classes vs into [0, 2] from state (1,1,1)
    assert aggregate_rate((1, 1, 1), (5, np.inf), network, part211) == 4.5
    assert aggregate_rate((1, 1, 1), (0, 2), network, part211) == 4.5


# a death reaction with constant rate: it fires at x = 0 and leaves the
# orthant
LEAKY_DOC = {
    "species": ["A"],
    "reactions": [{"change": [-1], "propensity": [{"coeff": 1.0}]}],
}

# a negative rate, and a reaction that fires without changing the state
ODD_DOC = {
    "species": ["A"],
    "reactions": [
        {"change": [1], "propensity": [{"coeff": 1.0}]},
        {"change": [-1], "propensity": [{"coeff": -0.5,
                                         "factors": [{"species": "A"}]}]},
        {"change": [0], "propensity": [{"coeff": 2.0}]},
    ],
}


def test_validate_network_happy_and_leaky(network, part211):
    rep = validate_network(network, part211, window=12)
    assert rep.ok, rep.summary()
    leaky = network_from_dict(LEAKY_DOC)
    rep = validate_network(leaky, ClassPartition((1,)), window=5)
    assert not rep.ok
    assert any(v["kind"] == "boundary-leak" for v in rep.violations)
    odd = network_from_dict(ODD_DOC)
    rep = validate_network(odd, ClassPartition((1,)), window=5)
    assert not rep.ok
    kinds = {(v["kind"], v["reaction"]) for v in rep.violations}
    assert kinds == {("negative-propensity", 1), ("null-change", 2)}
    first = rep.violations[0]
    assert first["kind"] == "negative-propensity" and first["state"] == (1,)


def test_validate_network_reports_are_pinned():
    # every field of every violation, in report order: class by class, and
    # within a class reaction by reaction
    rep = validate_network(network_from_dict(LEAKY_DOC), ClassPartition((1,)),
                           window=5)
    assert rep.violations == [{
        "kind": "boundary-leak", "reaction": 0, "state": (0,),
        "detail": ("reaction 0 fires at rate 1.0 from (0,) although the "
                   "destination has a negative count")}]
    rep = validate_network(network_from_dict(ODD_DOC), ClassPartition((1,)),
                           window=5)
    assert rep.violations == [
        {"kind": "negative-propensity", "reaction": 1, "state": (x,),
         "detail": f"reaction 1 has rate {-0.5 * x} at ({x},)"}
        for x in range(1, 6)
    ] + [{"kind": "null-change", "reaction": 2, "state": None,
          "detail": "reaction 2 has zero change vector but nonzero rate"}]


# X dies at 1e308 X^2 Y: at Y = 0 and X >= 2 the factors overflow to inf,
# and inf times 0 is NaN
NAN_DOC = {
    "species": ["X", "Y"],
    "reactions": [
        {"change": [1, 0], "propensity": [{"coeff": 1.0}]},
        {"change": [-1, 0], "propensity": [{"coeff": 1e308, "factors": [
            {"species": "X", "exponent": 2}, {"species": "Y"}]}]},
        {"change": [0, 1], "propensity": [{"coeff": 1.0}]},
        {"change": [0, -1],
         "propensity": [{"coeff": 1.0, "factors": [{"species": "Y"}]}]},
    ],
}

# X dies at X - 1e-13, a negative rate far smaller than any rate in use
TINY_NEGATIVE_DOC = {
    "species": ["X"],
    "reactions": [
        {"change": [1], "propensity": [{"coeff": 1.0}]},
        {"change": [-1], "propensity": [
            {"coeff": 1.0, "factors": [{"species": "X"}]},
            {"coeff": -1e-13}]},
    ],
}


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("doc, weights, window, state, message", [
    (NAN_DOC, (1, 1), 12, (2, 0), "undefined propensity nan"),
    (TINY_NEGATIVE_DOC, (1,), 5, (0,), "negative propensity -1e-13"),
], ids=["nan", "tiny-negative"])
def test_validate_network_rejects_what_build_rejects(doc, weights, window,
                                                     state, message):
    # validate_network flags a rate unless it is >= 0, as compute_f does
    network = network_from_dict(doc)
    partition = ClassPartition(weights)
    with pytest.raises(ValidationError, match=re.escape(
            f"{message} for reaction 1 at {state}")):
        compute_f(network, partition, "upper", window)
    rep = validate_network(network, partition, window)
    assert not rep.ok
    first = rep.violations[0]
    assert (first["kind"], first["reaction"], first["state"]) == (
        "negative-propensity", 1, state)


def test_structural_zero_term():
    poly = PropensityPolynomial([Term(0.0, (Factor(0),))])
    assert poly.is_structurally_zero()
    rx = Reaction((1,), poly)
    assert rx.propensity.evaluate((5,)) == 0.0
