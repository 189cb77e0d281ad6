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
                        Reaction, ReactionNetwork, ResourceLimitError, Term,
                        ValidationError, class_shift, class_size,
                        compute_f, enumerate_class, j_max, load_network,
                        network_from_dict, network_generator)
from boundchain import cme as cme_module
from boundchain import network as network_module
from boundchain.network import _enumerate, class_rates
from conftest import LEAKY_NETWORK_DOC, NETWORK_DOC, NETWORK_PATH


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


def test_rates_match_evaluate_bit_for_bit(network):
    states = np.array([[0, 0, 0], [1, 2, 3], [10, 5, 0]])
    many = network.rates(states)
    each = [[r.propensity.evaluate(s) for r in network.reactions]
            for s in states]
    assert many.tobytes() == np.array(each).tobytes()
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
        many = ReactionNetwork(("A", "B"), [Reaction((1, 0), poly)]).rates(
            big)[:, 0]
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
    R = network_from_dict(doc)._rate_block(_enumerate(0, hi, weights))
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
    with pytest.raises(ValidationError, match="at least one reaction"):
        network_from_dict({"species": ["A"], "reactions": []})
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


@pytest.mark.parametrize("exponent", [network_module.MAX_EXPONENT + 1, 10**11])
def test_factor_exponents_past_the_cap_are_rejected(exponent):
    # 2^1024 overflows a double; an exponent of 10^11 once hung build
    with pytest.raises(ValidationError, match=f"exponent {exponent} exceeds"):
        Factor(0, exponent)
    assert Factor(0, network_module.MAX_EXPONENT)._at(2.0) == math.inf


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
    assert p.class_of((1, 2, 3)) == 7
    with pytest.raises(ValidationError):
        p.class_of((1, -1, 0))
    # the label once wrapped to -2^63 without a word
    assert p.class_of((2**62 - 1, 1, 0)) == 2**63 - 1
    with pytest.raises(ValidationError, match="class label 9223372036854775808 "
                       "does not fit a 64-bit integer"):
        p.class_of((2**62, 0, 0))


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
    X = np.concatenate([X for _, _, X, _ in runs], axis=1).T.astype(np.int64)
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


def capped(monkeypatch, module, name, run):
    """``run`` as a function of a cap: it sets ``module.name`` to the cap,
    then runs."""
    def at(cap):
        monkeypatch.setattr(module, name, cap)
        return run()
    return at


def test_class_cap_is_checked_on_every_per_class_pass(monkeypatch, network,
                                                      part211):
    # compute_f and network_generator both visit 0..12; the class passes
    # read DEFAULT_CLASS_CAP, the generator MULTI_STATE_CAP.  compute_f
    # reads the example network's row ends and every state of
    # negative_past_runs(), whose rates are not affine along the rows
    total = sum(class_size(ell, part211) for ell in range(13))
    runs = [capped(monkeypatch, network_module, "DEFAULT_CLASS_CAP",
                   lambda: compute_f(network, part211, "upper", 12)),
            capped(monkeypatch, network_module, "DEFAULT_CLASS_CAP",
                   lambda: compute_f(negative_past_runs(), part211, "upper",
                                     12)),
            capped(monkeypatch, cme_module, "MULTI_STATE_CAP",
                   lambda: network_generator(network, part211, 12))]
    for run in runs:
        run(total)
        with pytest.raises(ResourceLimitError,
                           match=rf"^classes 0\.\.12 hold {total} states, "
                                 rf"above the cap of {total - 1}$"):
            run(total - 1)


def test_enumerate_class_stops_at_the_class_cap(monkeypatch, part211):
    n = class_size(40, part211)
    monkeypatch.setattr(network_module, "DEFAULT_CLASS_CAP", n)
    assert len(enumerate_class(40, part211)) == n
    monkeypatch.setattr(network_module, "DEFAULT_CLASS_CAP", n - 1)
    with pytest.raises(ResourceLimitError,
                       match=rf"^class 40 holds {n} states, above the cap "
                             rf"of {n - 1}$"):
        enumerate_class(40, part211)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
       st.integers(0, 10), st.integers(0, 6))
@example([2, 2, 5], 0, 6)  # classes 1 and 3 are empty
@example([4, 3, 5], 1, 1)  # a run of empty classes only
# the last two counts are arithmetic progressions: the last two weights
# share a factor, or the last weight is above 1
@example([4, 6], 0, 25)
@example([6, 4, 9], 3, 30)
@example([2, 4, 6], 5, 20)
@example([2, 2, 5], 7, 23)
@example([3, 5, 2], 4, 26)
@example([5], 3, 17)  # one species
@example([2, 3, 4, 6], 9, 12)  # four species, from above class 0
@example([6, 4, 9], 1, 0)  # one empty class
@example([4, 6], 11, 0)  # odd classes are empty under (4, 6)
def test_block_enumerator_concatenates_classes(weights, lo, width):
    hi = lo + width
    lattice = itertools.product(*(range(hi // w + 1) for w in weights))
    want = sorted(((sum(w * v for w, v in zip(weights, x)), x) for x in lattice
                   if lo <= sum(w * v for w, v in zip(weights, x)) <= hi))
    # a (d, n) block of float columns, every count an exact integer
    cols = _enumerate(lo, hi, tuple(weights))
    assert cols.dtype == np.float64 and cols.flags.c_contiguous
    got = cols.T.astype(np.int64)
    assert (got == cols.T).all()
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
    # every class pass gives the same tables, generator and errors under
    # runs of 1, 7 and 64 states as under the default; None keeps the
    # default, so the error checks below run under it too.  The tables of
    # negative_past_runs() come from every state, the others' from row ends
    default = network_module.RUN_STATES

    def results():
        return ([compute_f(net, p, direction, hi)
                 for net, p, hi in ((network, part211, 60),
                                    (network, part225, 60),
                                    (network, ClassPartition((4, 3, 5)), 60),
                                    (negative_past_runs(), part211, 84))
                 for direction in ("upper", "lower")],
                network_generator(network, part211, 16))

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
    # the first negative propensity past several runs, and the cap, are
    # named as by the class-by-class pass
    net = negative_past_runs()
    assert sum(class_size(ell, part211) for ell in range(85)) > 3 * default
    message = (r"negative propensity -0.020000000000000018 for reaction 4 at "
               r"\(0, 1, 84\)")
    default_cap = network_module.DEFAULT_CLASS_CAP
    runs = [capped(monkeypatch, network_module, "DEFAULT_CLASS_CAP",
                   lambda: compute_f(net, part211, "upper", 100)),
            capped(monkeypatch, cme_module, "MULTI_STATE_CAP",
                   lambda: network_generator(net, part211, 90))]
    for run in runs:
        with pytest.raises(ValidationError, match=message):
            run(default_cap)
        with pytest.raises(ResourceLimitError,
                           match=r"classes 0\.\.84 hold 53922 states, above "
                                 r"the cap of 53921"):
            run(53921)
    # compute_f checks each run as it comes: with classes 0..86 inside the
    # cap, the class 85 error comes before the cap's
    fits = sum(class_size(ell, part211) for ell in range(87))
    with pytest.raises(ValidationError, match=message):
        runs[0](fits)


def test_class_shift_and_j_max(network, part211, part225, part111):
    shifts211 = [class_shift(r, part211) for r in network.reactions]
    assert shifts211 == [2, -1, -2, -2, -1, -1]
    assert j_max(network, part211) == 2
    assert j_max(network, part225) == 5
    assert j_max(network, part111) == 1


def _death(change, *factors, coeff=1.0):
    """One species that dies by ``change`` at rate coeff times ``factors``."""
    return network_from_dict({"species": ["A"], "reactions": [{
        "change": [change], "propensity": [{"coeff": coeff, "factors": [
            {"species": "A", "exponent": e, "kind": kind}
            for e, kind in factors]}]}]})


def test_orthant_faces(network, part211):
    # (reaction, species, count taken) for each face a reaction may fire
    # across; the example network fires across none
    assert network._faces == ()
    leaky = network_from_dict(LEAKY_NETWORK_DOC)
    assert leaky._faces == ((5, 2, 1),)
    # x(x-1) vanishes at 0 and 1, so taking two is safe; x^2 is 1 at 1
    assert _death(-2, (2, "falling-factorial"))._faces == ()
    assert _death(-2, (2, "plain-power"))._faces == ((0, 0, 2),)
    assert _death(-3, (2, "falling-factorial"))._faces == ((0, 0, 3),)
    assert _death(-1, (1, "plain-power"), coeff=0.0)._faces == ()
    # the search stops at the first nonzero count, however large the change
    assert _death(-10**12, (3, "falling-factorial"))._faces == (
        (0, 0, 10**12),)
    # the f-table pass names the first state on the face, class 0's
    with pytest.raises(ValidationError, match=re.escape(
            "reaction 5 leaves the orthant from (0, 0, 0)")):
        compute_f(leaky, part211, "upper", 6)


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


def test_compute_f_rejects_a_tiny_negative_rate():
    # a rate is bad unless it is >= 0, however small its magnitude
    with pytest.raises(ValidationError, match=re.escape(
            "negative propensity -1e-13 for reaction 1 at (0,)")):
        compute_f(network_from_dict(TINY_NEGATIVE_DOC), ClassPartition((1,)),
                  "upper", 5)


def test_structural_zero_term():
    poly = PropensityPolynomial([Term(0.0, (Factor(0),))])
    rx = Reaction((1,), poly)
    assert rx.propensity.evaluate((5,)) == 0.0
