"""f-tables, optimal U-tables, rate construction, and the assumption checks.

Expected rate rows come from an independent brute-force enumeration oracle
computed before this module existed; they are asserted exactly.
"""

import collections
import copy
import functools
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boundchain import (BoundingChain, ClassPartition, ResourceLimitError,
                        StabilizationError, TailModel, ValidationError,
                        build_bounding_chain, check_optimality,
                        check_u_membership, class_shift, compute_f,
                        detect_tails, enumerate_class, estimate_exit, j_max,
                        optimal_U, network_from_dict, phi_inverse,
                        verify_assumptions)
from boundchain import network as network_module
from boundchain.builder import FTable, UTable, _cumulative, build_counters
from boundchain.network import ReactionNetwork
from conftest import INF_DOC, LEAKY_NETWORK_DOC, NETWORK_DOC

UPPER211 = {
    0: {2: 2.5}, 1: {-1: 2.5, 2: 3.5}, 2: {-1: 2.5, 2: 4.5},
    3: {-1: 5.5, 2: 5.5}, 4: {-1: 8.5, 2: 6.5}, 5: {-1: 11.5, 2: 7.5},
    6: {-1: 14.5, 2: 8.5}, 7: {-1: 17.5, 2: 9.5}, 8: {-1: 20.0, 2: 10.5},
    9: {-1: 22.5, 2: 11.5}, 10: {-1: 25.0, 2: 12.5},
    11: {-1: 27.5, 2: 13.5}, 12: {-1: 30.0, 2: 14.5},
    50: {-1: 125.0, 2: 52.5}, 60: {-1: 150.0, 2: 62.5},
}

LOWER225 = {
    0: {2: 2.5}, 1: {-1: 3.0, 3: 2.5}, 2: {-2: 3.0, 2: 2.5},
    3: {-3: 3.0, -1: 2.0, 2: 1.0, 3: 3.5},
    4: {-4: 3.0, -2: 2.0, 1: 1.0, 2: 3.5},
    5: {-5: 3.0, -1: 4.5, 2: 3.5},
    6: {-4: 3.0, -2: 4.5, 1: 2.0, 2: 3.5},
    7: {-5: 3.0, -2: 3.0, -1: 4.0, 2: 3.5},
    8: {-4: 3.0, -3: 3.0, -2: 4.0, 1: 1.0, 2: 5.5},
    9: {-5: 3.0, -4: 3.0, -2: 2.0, -1: 4.5, 1: 1.0, 2: 4.5},
    10: {-5: 6.0, -2: 6.5, 2: 4.5},
    11: {-5: 3.0, -4: 3.0, -2: 4.5, -1: 4.5, 1: 2.0, 2: 4.5},
    12: {-5: 6.0, -2: 9.0, 2: 4.5},
    13: {-5: 3.0, -4: 3.0, -3: 3.0, -2: 4.0, -1: 4.5, 1: 1.0, 2: 6.5},
    14: {-5: 6.0, -4: 3.0, -2: 8.5, 1: 1.0, 2: 5.5},
    15: {-5: 9.0, -2: 6.5, -1: 4.5, 2: 5.5},
    16: {-5: 6.0, -4: 3.0, -2: 11.0, 1: 2.0, 2: 5.5},
    17: {-5: 9.0, -2: 9.0, -1: 4.5, 2: 5.5},
    18: {-5: 6.0, -4: 3.0, -3: 3.0, -2: 10.5, 1: 1.0, 2: 7.5},
    19: {-5: 9.0, -4: 3.0, -2: 8.5, -1: 4.5, 1: 1.0, 2: 6.5},
    20: {-5: 12.0, -2: 13.0, 2: 6.5},
    21: {-5: 9.0, -4: 3.0, -2: 11.0, -1: 4.5, 1: 2.0, 2: 6.5},
    22: {-5: 12.0, -2: 15.5, 2: 6.5},
    23: {-5: 9.0, -4: 3.0, -3: 3.0, -2: 10.5, -1: 4.5, 1: 1.0, 2: 8.5},
    24: {-5: 12.0, -4: 3.0, -2: 15.0, 1: 1.0, 2: 7.5},
    25: {-5: 15.0, -2: 13.0, -1: 4.5, 2: 7.5},
    100: {-5: 60.0, -2: 65.0, 2: 22.5},
    101: {-5: 57.0, -4: 3.0, -2: 63.0, -1: 4.5, 1: 2.0, 2: 22.5},
    102: {-5: 60.0, -2: 67.5, 2: 22.5},
    103: {-5: 57.0, -4: 3.0, -3: 3.0, -2: 62.5, -1: 4.5, 1: 1.0, 2: 24.5},
    104: {-5: 60.0, -4: 3.0, -2: 67.0, 1: 1.0, 2: 23.5},
    105: {-5: 63.0, -2: 65.0, -1: 4.5, 2: 23.5},
}

NAIVE111 = {
    0: {1: 2.5}, 1: {-1: 2.5, 1: 3.5}, 2: {-1: 5.0, 1: 7.5},
    3: {-1: 7.5, 1: 17.5}, 4: {-1: 10.0, 1: 32.5}, 5: {-1: 12.5, 1: 52.5},
    6: {-1: 15.0, 1: 77.5}, 7: {-1: 17.5, 1: 107.5}, 8: {-1: 20.0, 1: 142.5},
    9: {-1: 22.5, 1: 182.5}, 10: {-1: 25.0, 1: 227.5},
    11: {-1: 27.5, 1: 277.5}, 12: {-1: 30.0, 1: 332.5},
}

# rows produced purely by the empty-class fill rule (the (2,2,5) partition
# has no states in classes 1 and 3)
UPPER225 = {
    0: {2: 2.5}, 1: {-1: 2.5, 1: 2.5}, 2: {-2: 2.5, 2: 3.5},
    3: {-3: 2.5, -1: 2.5, 1: 3.5}, 4: {-2: 5.0, 2: 7.5},
    5: {-3: 3.0, 1: 4.0, 2: 3.5}, 6: {-2: 3.0, -1: 4.5, 2: 17.5},
    7: {-3: 3.0, -2: 2.5, 1: 13.0, 2: 4.5}, 8: {-2: 5.5, -1: 4.5, 2: 32.5},
    9: {-3: 3.0, -2: 5.0, 1: 24.0, 2: 8.5}, 10: {-2: 6.0, 2: 52.5},
    11: {-3: 3.0, -2: 3.0, -1: 4.5, 1: 34.0, 2: 18.5},
}


# digest of every verify_assumptions report in test_verify_reports_are_pinned
VERIFY_PIN_SHA256 = (
    "6c8daacd320be17b0d96af4b99fe18fb0116a91e807953ac55272ced10b52501")


def phi(chain):
    """The paper's Phi: a chain's cumulative row prefix/tail sums as a
    U-table, the inverse of ``phi_inverse``."""
    J, L = chain.j_max, chain.l_exact
    minus, plus = _cumulative(chain, L, J)
    return UTable(chain.direction, J, L, minus, plus)


def nz_row(chain, ell):
    return {k: r for k, r in ((k, chain.rate(ell, k)) for k in chain.offsets)
            if r != 0.0}


def assert_rows(chain, table, exact=True):
    for ell, want in table.items():
        got = nz_row(chain, ell)
        assert set(got) == set(want), f"offsets differ at class {ell}: {got}"
        for k, rate in want.items():
            if exact and ell <= chain.l_exact:
                assert got[k] == rate, f"rate ({ell},{k}): {got[k]} != {rate}"
            else:
                assert got[k] == pytest.approx(rate, rel=1e-10)


def test_upper_211_rows(upper211):
    assert_rows(upper211, UPPER211)


def test_upper_211_tails(upper211):
    down = upper211.tails[-1]
    up = upper211.tails[2]
    assert (down.period, down.slope, down.intercepts) == (1, 2.5, (0.0,))
    assert down.onset == 7
    assert (up.period, up.slope, up.intercepts) == (1, 1.0, (2.5,))
    assert upper211.rate(157, -1) == pytest.approx(392.5, rel=1e-12)
    assert upper211.rate(157, 2) == pytest.approx(159.5, rel=1e-12)
    # the generator's diagonal is minus the band's row sum
    assert -upper211.band(157)[157].sum() == pytest.approx(-552.0, rel=1e-12)


def test_lower_225_rows(lower225):
    assert_rows(lower225, LOWER225, exact=False)


def test_lower_225_tails(lower225):
    t = lower225.tails
    assert (t[-5].period, t[-5].onset) == (5, 4)
    assert t[-5].slope == pytest.approx(0.6, rel=1e-12)
    assert t[-5].intercepts == pytest.approx((0.0, -3.6, -1.2, -4.8, -2.4),
                                             rel=1e-10, abs=1e-9)
    assert (t[-4].period, t[-4].slope) == (5, 0.0)
    assert t[-4].intercepts == pytest.approx((0.0, 3.0, 0.0, 3.0, 3.0), abs=1e-9)
    assert (t[-3].period, t[-3].slope) == (5, 0.0)
    assert t[-3].intercepts == pytest.approx((0.0, 0.0, 0.0, 3.0, 0.0), abs=1e-9)
    assert t[-2].period == 10
    assert t[-2].slope == pytest.approx(0.65, rel=1e-10)
    assert (t[-1].period, t[-1].slope) == (2, 0.0)
    assert t[-1].intercepts == pytest.approx((0.0, 4.5), abs=1e-9)
    assert (t[1].period, t[1].slope) == (5, 0.0)
    assert t[1].intercepts == pytest.approx((0.0, 2.0, 0.0, 1.0, 1.0), abs=1e-9)
    assert t[2].period == 5
    assert t[2].slope == pytest.approx(0.2, rel=1e-10)
    assert t[2].intercepts == pytest.approx((2.5, 2.3, 2.1, 3.9, 2.7),
                                            rel=1e-10, abs=1e-9)


def test_naive_111_rows(naive111):
    assert_rows(naive111, NAIVE111)
    up = naive111.tails[1]
    assert up.degree == 2
    # quadratic alpha l^2 - alpha l + b2 beyond the head
    assert naive111.rate(300, 1) == pytest.approx(2.5 * 300**2 - 2.5 * 300 + 2.5,
                                                  rel=1e-9)
    assert naive111.rate(300, -1) == pytest.approx(750.0, rel=1e-10)


def test_upper_225_fill_rows(network, part225):
    f = compute_f(network, part225, "upper", l_exact=40 + 5)
    skel = phi_inverse(optimal_U(f), part225.weights)
    assert_rows(skel, UPPER225)


# sha256 of U.minus and U.plus bytes, recorded from the memoized recursive
# optimal_U before it became running extremes along the band diagonals
U_SHA256 = {
    ((2, 1, 1), "upper"): "7538cc90af608d75b402f2a856e7eabf449269460093229e4c1a6bad627c6b5a",
    ((2, 1, 1), "lower"): "2ab021fc6c01b982967bd006c3b234eb1fc144ad12899f4239e8afbe72153a91",
    ((1, 1, 1), "upper"): "9734c21b71e254d7f43ccf6b5fec4da969b3c0b0e457d56d185f05b5fdcef853",
    ((1, 1, 1), "lower"): "51ec94230f5a0d1ec23cdbaf761adde1d2a7a5105ae0e195fe02baf0701683ed",
    ((2, 2, 5), "upper"): "69459d4136daac2c5ebc345efa812b8cba96b515595115c1a33562c7df841bb8",
    ((2, 2, 5), "lower"): "0c0a5ce4552a8d58b6c003835f11f85a937581b5f3f61ba424e080215baadc28",
    # classes 1 and 2 are empty under (4, 3, 5)
    ((4, 3, 5), "upper"): "fbccf75da56cda59f7d4c2db3221fdab65c10b5b7f85227955eccb6e02e27be8",
    ((4, 3, 5), "lower"): "a975eb8eea4843e70ff0a2fa936821aa2d116bcc6c8a821b5e77e2b46a75f0f2",
}


@pytest.mark.parametrize("weights, direction", sorted(U_SHA256))
def test_optimal_U_tables_are_unchanged(network, weights, direction):
    part = ClassPartition(weights)
    f = compute_f(network, part, direction, 40 + j_max(network, part))
    U = optimal_U(f)
    got = hashlib.sha256(U.minus.tobytes() + U.plus.tobytes()).hexdigest()
    assert got == U_SHA256[weights, direction]



def f_digest(f):
    """sha256 over the bytes of an f-table's minus, plus and empty arrays."""
    return hashlib.sha256(f.minus.tobytes() + f.plus.tobytes()
                          + f.empty.tobytes()).hexdigest()


# recorded from the class-by-class pass, before the f-table read runs of
# classes at once; classes 1 and 2 are empty under (4, 3, 5), and (2, 2, 5)
# and (3, 1, 2) have empty classes too
F_SHA256 = {
    ((2, 1, 1), "upper"): "e8728f8be3803ee97991d5900b5db053c49d0b830e1f42d6e29d3e8ce6ae6550",
    ((2, 1, 1), "lower"): "52ba27e9dd88c6d24071d70b4652b662c90bc1549887aafc194fe7d404178f06",
    ((2, 2, 5), "upper"): "a12edb642e4c38325c6c0abf3fc9542b3f6362f2283024867f3085d4355bb23a",
    ((2, 2, 5), "lower"): "76deb6cba0b7d3445e21cec8c1bfbb6819b44481ff98dc20b9fb2762fb370795",
    ((1, 1, 1), "upper"): "5a15e4ecf1aaf34024e26b05e767c88a3784ff640c296c9cbe6b84f77181b4c2",
    ((1, 1, 1), "lower"): "eb8b923e89478faf8c458a60d296a8f6bd6abd3910af0968e390d40140f02eb3",
    ((4, 3, 5), "upper"): "dd01cc493b88fbf98c304ea33c83e4c3d276f4672842bae4d52c8e4a92877c61",
    ((4, 3, 5), "lower"): "537f0066adeee7425d6e2d85deb41ec1d02af6ca15a15958def2db5160f166b0",
    ((3, 1, 2), "upper"): "c005cd2a1f7a9e6521f45ec07a11469dd57c4e2e8df6b12a0d0a30b9d3c0c275",
    ((3, 1, 2), "lower"): "9e4d262973011070558fcb69d4e05eaedf825e42239bab16eb4c24580747a90a",
}


@pytest.mark.parametrize("weights, direction", sorted(F_SHA256))
def test_f_tables_are_unchanged(network, weights, direction):
    f = compute_f(network, ClassPartition(weights), direction, 120)
    assert f_digest(f) == F_SHA256[weights, direction]


def split_network():
    """The example network with one reaction per propensity term, and each
    decay split three ways; under (2, 1, 1), 11 of its 14 reactions drop at
    least one class."""
    doc = copy.deepcopy(NETWORK_DOC)
    doc["parameters"].update({
        "d1a": 0.1, "d1b": 0.7, "d1c": 1.7, "d2a": 0.3, "d2b": 0.9,
        "d2c": 1.3, "d3a": 0.2, "d3b": 1.1, "d3c": 1.7})
    reactions = []
    for rx in doc["reactions"]:
        for term in rx["propensity"]:
            coeff = term["coeff"]
            parts = ([coeff + s for s in "abc"] if coeff in ("d1", "d2", "d3")
                     else [coeff])
            reactions += [{"change": rx["change"],
                           "propensity": [dict(term, coeff=c)]} for c in parts]
    doc["reactions"] = reactions
    return network_from_dict(doc)


@pytest.mark.parametrize("direction, digest", [
    ("upper", "1492522f0b98e91cbdae5f50fcf552a58a0a183f9a108c07eee24ecfd59dc8e0"),
    ("lower", "0f890d5cbca9cbc1aa0da71883ba3e9c4aa6b4519205c62240e101816141ed0f"),
])
def test_f_table_adds_masked_rates_in_reaction_order(direction, digest):
    # numpy adds eight or more contiguous entries pairwise, not in order,
    # and here 11 reactions are in the j = 1 prefix mask: summed pairwise,
    # 8 upper and 29 lower prefix extremes come out different.  The f-table
    # adds the masked rates in reaction order.  The class-by-class pass did
    # too, because numpy returns its column gather rates[:, mask] F-ordered,
    # so the row sums run across the columns one at a time (checked at 10
    # reactions on numpy 2.4.6); the digest was recorded from that pass.
    network, part = split_network(), ClassPartition((2, 1, 1))
    f = compute_f(network, part, direction, 60)
    assert f_digest(f) == digest
    upper = direction == "upper"
    shifts = np.array([class_shift(r, part) for r in network.reactions])
    for ell in range(61):
        rates = network.rates(enumerate_class(ell, part))
        for j in range(1, f.j_max + 1):
            for tail, mask in ((False, shifts <= -j), (True, shifts >= j)):
                mass = np.zeros(len(rates))
                for i in np.flatnonzero(mask):
                    mass = mass + rates[:, i]
                want = mass.max() if upper == tail else mass.min()
                if tail:
                    assert f.plus[j, ell] == want
                elif ell >= j:
                    assert f.minus[j, ell] == want

def _reference_U(f):
    """optimal_U entry by entry, straight from the range definitions."""
    J, L, upper = f.j_max, f.l_max, f.direction == "upper"

    @functools.lru_cache(maxsize=None)
    def u(below, ell, m):
        if below and m < 0:
            return 0.0
        if ell > L:
            raise ResourceLimitError("fill climbs past the f-table")
        if below:
            lo, hi = (m + 1, ell) if upper else (ell, m + J)
        else:
            lo, hi = (0, ell) if upper else (ell, m - 1)
        side = f.minus if below else f.plus
        vals = [0.0 if abs(lp - m) > J else float(side[abs(lp - m), lp])
                for lp in range(max(lo, 0), min(hi, L) + 1) if not f.empty[lp]]
        if upper != below:  # max-type
            return max(vals) if vals else 0.0
        if vals:
            return min(vals)
        if below:
            return max(u(True, ell, m - 1), u(True, ell + 1, m))
        return max(u(False, ell, m + 1), u(False, ell - 1, m) if ell > 0 else 0.0)

    minus = np.zeros((J + 2, L - J + 1))
    plus = np.zeros((J + 2, L - J + 1))
    for ell in range(L - J + 1):
        for j in range(1, J + 2):
            if ell - j >= 0:
                minus[j, ell] = u(True, ell, ell - j)
            plus[j, ell] = u(False, ell, ell + j)
    return minus, plus


def test_optimal_U_matches_reference_on_random_tables():
    # random f-values and empty classes, runs longer than the band included;
    # the reference recurses forever on a lower table whose top class is
    # empty, so those are left out
    rng = np.random.default_rng(3)
    raised = 0
    for _ in range(150):
        J = int(rng.integers(1, 6))
        L = int(rng.integers(2 * J + 2, 50))
        empty = rng.random(L + 1) < rng.choice([0.0, 0.3, 0.6, 0.9])
        empty[0] = False
        minus, plus = rng.choice([0.0, 0.5, 1.0, 3.5, 7.25], size=(2, J + 1, L + 1))
        minus[0] = plus[0] = np.nan
        minus[:, empty] = plus[:, empty] = np.nan
        for j in range(1, J + 1):
            minus[j, :j] = np.nan
        for direction in ("upper",) if empty[L] else ("upper", "lower"):
            f = FTable(direction, J, L, minus, plus, empty)
            try:
                want = _reference_U(f)
            except ResourceLimitError:
                raised += 1
                with pytest.raises(ResourceLimitError):
                    optimal_U(f)
                continue
            U = optimal_U(f)
            assert U.minus.tobytes() == want[0].tobytes()
            assert U.plus.tobytes() == want[1].tobytes()
    assert 0 < raised < 150


def test_build_stops_at_the_class_cap(monkeypatch, network, part211):
    # the f-table pass of l_exact = 40 enumerates classes 0..42 (j_max = 2)
    chain = build_bounding_chain(network, part211, "upper", l_exact=40)
    total = build_counters(chain)["states"]
    monkeypatch.setattr(network_module, "DEFAULT_CLASS_CAP", total)
    build_bounding_chain(network, part211, "upper", l_exact=40)
    monkeypatch.setattr(network_module, "DEFAULT_CLASS_CAP", total - 1)
    with pytest.raises(ResourceLimitError,
                       match=rf"^classes 0\.\.42 hold {total} states, "
                             rf"above the cap of {total - 1}$"):
        build_bounding_chain(network, part211, "upper", l_exact=40)


def test_band_matches_rate(upper211, lower225, naive111):
    for chain in (upper211, lower225, naive111):
        J, hi = chain.j_max, chain.l_exact + 40
        want = [[chain.rate(ell, k) for k in range(-J, J + 1)]
                for ell in range(hi + 1)]
        assert np.array_equal(chain.band(hi), want)


def test_constructor_rejects_negative_rates():
    # the tail 70 - ell goes negative at level 71, inside [0, l_total]
    tail = TailModel(1, 6, 1, (70.0,), -1.0)
    exact = {1: np.ones(7), -1: np.arange(7.0)}
    with pytest.raises(ValidationError, match="level 71, offset 1"):
        BoundingChain("upper", 1, 6, 2000, exact, {1: tail}, (1,))
    assert BoundingChain("upper", 1, 6, 70, exact, {1: tail}, (1,)).rate(70, 1) == 0.0
    exact[-1][3] = np.nan
    with pytest.raises(ValidationError, match="level 3, offset -1"):
        BoundingChain("upper", 1, 6, 70, exact, {1: tail}, (1,))


def test_f_values(network, part211):
    f = compute_f(network, part211, "upper", l_exact=110)
    # up-tail from one step above the class: b1*l + b2
    assert f.plus[1, 10] == 12.5
    # mass dropping two or more classes can vanish (x1 = 0 states)
    for ell in range(2, 40):
        assert f.minus[2, ell] == 0.0
    # the one-step-down prefix at large classes: min over the class is
    # min(d2, d3) * l once the beta term dominates the candidates
    assert f.minus[1, 100] == 250.0


def test_compute_f_precondition(network, part225):
    with pytest.raises(ValidationError):
        compute_f(network, part225, "upper", l_exact=2 * 5 + 1)


def test_u_membership_flags_violations(network, part211):
    f = compute_f(network, part211, "upper", l_exact=30)
    U = optimal_U(f)
    assert check_u_membership(U) == []
    bad = UTable(U.direction, U.j_max, U.l_exact, U.minus.copy(),
                 U.plus.copy())
    bad.minus[1, 20] = bad.minus[2, 20] - 1.0  # breaks nondecreasing prefixes
    kinds = {v[0] for v in check_u_membership(bad)}
    assert "minus" in kinds
    bad2 = UTable(U.direction, U.j_max, U.l_exact, U.minus.copy(),
                  U.plus.copy())
    bad2.plus[U.j_max + 1, 10] = 0.5  # mass beyond the band
    assert any(v[0] == "plus" for v in check_u_membership(bad2))
    with pytest.raises(ValidationError):
        phi_inverse(bad, part211.weights)


def test_phi_inverse_toy_row():
    # one populated row: cumulative-in = (1, 3), cumulative-out = (4, 1, 0)
    minus = np.zeros((4, 3))
    plus = np.zeros((4, 3))
    minus[1, 2], minus[2, 2] = 3.0, 1.0
    plus[1, 2], plus[2, 2] = 4.0, 1.0
    chain = phi_inverse(UTable("upper", 2, 2, minus, plus), (1,))
    assert nz_row(chain, 2) == {-2: 1.0, -1: 2.0, 1: 3.0, 2: 1.0}
    assert -chain.band(2)[2].sum() == -7.0


def test_phi_inverse_zero_table():
    chain = phi_inverse(UTable("upper", 2, 4, np.zeros((4, 5)), np.zeros((4, 5))),
                        (1,))
    for ell in range(5):
        assert nz_row(chain, ell) == {}


def test_phi_roundtrip(upper211, lower225, network, part211):
    for chain in (upper211, lower225):
        U = phi(chain)
        back = phi_inverse(U, chain.weights)
        for ell in range(chain.l_exact + 1):
            got, want = back.row(ell), chain.row(ell)
            assert set(got) == set(want)
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12, rel=1e-12)
    # and U -> chain -> U
    f = compute_f(network, part211, "upper", l_exact=30)
    U = optimal_U(f)
    U2 = phi(phi_inverse(U, part211.weights))
    assert np.allclose(U.minus, U2.minus, atol=1e-12)
    assert np.allclose(U.plus, U2.plus, atol=1e-12)


def test_rows_sum_to_zero_and_band(upper211, lower225):
    for chain in (upper211, lower225):
        J = chain.j_max
        rates = chain.band(chain.l_exact)
        assert rates.shape == (chain.l_exact + 1, 2 * J + 1)
        assert (rates >= 0).all() and (rates[:, J] == 0).all()
        # the generator row: the band with minus its row sum on the diagonal
        gen = rates.copy()
        gen[:, J] = -rates.sum(axis=1)
        total = gen.sum(axis=1)
        assert (np.abs(total) <= 1e-10 * np.maximum(1.0, -gen[:, J])).all()


def test_tail_matches_held_out_window(network, part211, part225):
    # tails fitted at a short horizon must reproduce exact enumeration
    # beyond it
    for part, direction in ((part211, "upper"), (part225, "lower")):
        short = build_bounding_chain(network, part, direction, l_exact=60)
        long = build_bounding_chain(network, part, direction, l_exact=90)
        for ell in range(61, 91):
            for k in long.offsets:
                assert short.rate(ell, k) == pytest.approx(
                    long.rate(ell, k), rel=1e-10, abs=1e-10)


def test_detect_tails_rejects_other_partition_weights(network, upper211,
                                                     part211, part225):
    assert detect_tails(upper211, part211) == upper211.tails
    message = r"partition weights \(2, 2, 5\) differ from the chain's \(2, 1, 1\)"
    with pytest.raises(ValidationError, match=message):
        detect_tails(upper211, part225)
    # verify_assumptions once reported an A1 domination failure instead
    with pytest.raises(ValidationError, match=message):
        verify_assumptions(network, part225, upper211, 60)


def test_stabilization_reports_degree(network, part111):
    with pytest.raises(StabilizationError) as err:
        build_bounding_chain(network, part111, "upper", l_exact=40,
                             tail_degree=1)
    assert "degree 2" in str(err.value)


@pytest.mark.parametrize("weights, direction, l_exact, degree, calls", [
    ((2, 1, 1), "upper", 70, 3, 0),
    ((2, 2, 5), "lower", 70, 3, 0),
    ((1, 1, 1), "upper", 40, 2, 1),
])
def test_polynomials_are_fitted_only_past_every_periodic_model(
        network, monkeypatch, weights, direction, l_exact, degree, calls):
    # the candidates are made one at a time: a tail that a periodic-affine
    # model matches costs no polyfit, whatever degree was requested
    fitted = []
    polyfit = np.polyfit

    def spy(*args, **kwargs):
        fitted.append(args[2])
        return polyfit(*args, **kwargs)

    monkeypatch.setattr(np, "polyfit", spy)
    build_bounding_chain(network, ClassPartition(weights), direction,
                         l_exact=l_exact, tail_degree=degree)
    assert fitted == [2] * calls


def test_tail_window_minimum_is_named(network, part211):
    # j_max = 2: the tail window needs l_exact >= 4*2+4 = 12, and the build
    # says so before its class pass, where it once named 2*j_max+2 = 6
    for l_exact in (3, 8, 11):
        with pytest.raises(ValidationError, match=r"4\*j_max\+4 = 12 "):
            build_bounding_chain(network, part211, "upper", l_exact=l_exact)
    skeleton = phi_inverse(optimal_U(compute_f(network, part211, "upper", 10)),
                           part211.weights)
    assert skeleton.l_exact == 8
    with pytest.raises(ValidationError, match=r"4\*j_max\+4 = 12 "):
        detect_tails(skeleton, part211)


def test_weights_with_a_common_factor_are_rejected(network, upper211):
    # (4, 2, 2) leaves every odd class empty: build once failed on the
    # tails, exit 3; an exit estimate needs no chain and takes them
    part = ClassPartition((4, 2, 2))
    message = r"weights \(4, 2, 2\) share the factor 2; use \(2, 1, 1\)$"
    with pytest.raises(ValidationError, match=message):
        build_bounding_chain(network, part, "upper", l_exact=40)
    with pytest.raises(ValidationError, match=message):
        verify_assumptions(network, part, upper211, 20)
    assert estimate_exit(network, part, 120, 0.5, (3, 2, 1), samples=20)


def test_tail_degree_outside_1_to_3_is_rejected(network, part211, upper211):
    # 0 and -5 once acted as 1 without a word; the build checks the degree
    # before its class pass
    for degree in (0, -5, 4):
        with pytest.raises(ValidationError,
                           match=f"tail_degree must be 1, 2 or 3, got {degree}"):
            build_bounding_chain(network, part211, "upper", l_exact=70,
                                 tail_degree=degree)
        with pytest.raises(ValidationError,
                           match=f"degree_max must be 1, 2 or 3, got {degree}"):
            detect_tails(upper211, part211, degree_max=degree)
    for degree in (1, 2, 3):
        assert detect_tails(upper211, part211, degree_max=degree) == \
            upper211.tails


def test_verify_pass_and_perturbations(network, part211, upper211):
    assert verify_assumptions(network, part211, upper211, l_check=60).ok
    # reducing the up-2 rate at one class breaks domination right there
    exact = {k: v.copy() for k, v in upper211.exact.items()}
    exact[2][30] -= 1.0
    bad = BoundingChain("upper", upper211.j_max, upper211.l_exact,
                        upper211.l_total, exact, upper211.tails,
                        upper211.weights)
    rep = verify_assumptions(network, part211, bad, l_check=40)
    assert not rep.ok
    assert rep.counterexample["kind"] == "A1"
    assert (rep.counterexample["ell"], rep.counterexample["m"]) == (30, 31)


def test_verify_zero_candidate_fails(network, part211):
    zero = BoundingChain("upper", 2, 50, 50, {}, {}, part211.weights)
    rep = verify_assumptions(network, part211, zero, l_check=20)
    assert not rep.ok
    assert rep.counterexample["kind"] == "A1"


def test_verify_lower(network, part225, lower225):
    assert verify_assumptions(network, part225, lower225, l_check=60).ok
    exact = {k: v.copy() for k, v in lower225.exact.items()}
    exact[2][30] += 1.0  # a lower bound may not move up more than the network
    bad = BoundingChain("lower", lower225.j_max, lower225.l_exact,
                        lower225.l_total, exact, lower225.tails,
                        lower225.weights)
    rep = verify_assumptions(network, part225, bad, l_check=40)
    assert not rep.ok


def test_verify_horizon_precondition(network, part211, upper211):
    with pytest.raises(ValidationError):
        verify_assumptions(network, part211, upper211, l_check=5000)
    with pytest.raises(ValidationError):
        verify_assumptions(network, part211, upper211, l_check=-3)


def _verify_pin_cases(part211, part225, upper211, lower225):
    """(partition, candidate, l_check) triples for the report pin."""
    def variant(chain, *edits, j_max=None):
        # each edit (offset, level, delta) moves one rate, floored at zero
        exact = {k: v.copy() for k, v in chain.exact.items()}
        for k, ell, delta in edits:
            row = exact.setdefault(k, np.zeros(chain.l_exact + 1))
            row[ell] = max(row[ell] + delta, 0.0)
        return BoundingChain(chain.direction, j_max or chain.j_max,
                             chain.l_exact, chain.l_total, exact, chain.tails,
                             chain.weights)

    cases = []
    for chain, part in ((upper211, part211), (lower225, part225)):
        J = chain.j_max
        for l_check in (0, 1, 2 * J, 60):
            cases.append((part, chain, l_check))
        for k in [k for k in range(-J, J + 1) if k]:
            for ell in (2, 7, 20, 33):
                for delta in (1.0, -1.0, 1e-9):
                    if delta < 0 and chain.rate(ell, k) == 0.0:
                        continue
                    cases.append((part, variant(chain, (k, ell, delta)), 40))
        # a prefix and a tail broken in the same class: the prefix is reported
        cases.append((part, variant(chain, (-1, 20, 1.0), (2, 20, -1.0)), 40))
        cases.append((part, variant(chain, (-1, 20, -1.0), (2, 20, 1.0)), 40))
        # wider than the network: zero network mass on offsets past its j_max
        cases.append((part, variant(chain, j_max=J + 1), 30))
        cases.append((part, variant(chain, (J + 1, 9, 2.0), j_max=J + 1), 30))
        cases.append((part, variant(chain, (-J - 1, 9, 2.0), j_max=J + 1), 30))
        # and at class 1, which is empty under (2, 2, 5)
        cases.append((part, variant(chain, (J + 1, 1, 2.0), j_max=J + 1), 30))
        for l_check in (0, 1, 20):
            zero = BoundingChain(chain.direction, J, 50, 50, {}, {},
                                 part.weights)
            cases.append((part, zero, l_check))
    # a candidate narrower than the network's band: the other chain's rates,
    # carrying this partition's weights
    for chain, part in ((upper211, part225), (lower225, part211)):
        cases.append((part, BoundingChain(chain.direction, chain.j_max,
                                          chain.l_exact, chain.l_total,
                                          chain.exact, chain.tails,
                                          part.weights), 30))
    return cases


def test_verify_reports_are_pinned(network, part211, part225, upper211,
                                   lower225):
    # every report field, on passing chains, single-rate perturbations of
    # both directions, zero chains and bands wider or narrower than the
    # network's; the digest was recorded before verify_assumptions read the
    # f-table
    cases = _verify_pin_cases(part211, part225, upper211, lower225)
    assert len(cases) >= 100
    reports = []
    for part, cand, l_check in cases:
        rep = verify_assumptions(network, part, cand, l_check)
        ce = rep.counterexample or {}
        reports.append((rep.ok, ce.get("kind"), ce.get("ell"), ce.get("m"),
                        ce.get("state"), rep.detail))
    digest = hashlib.sha256(repr(reports).encode()).hexdigest()
    assert digest == VERIFY_PIN_SHA256


def _feasible_perturbation(U, rng):
    """Feasible candidate that the optimal table must dominate."""
    J = U.j_max
    minus = U.minus.copy()
    plus = U.plus.copy()
    if U.direction == "upper":
        scales = np.sort(rng.uniform(0.3, 1.0, size=J))[::-1]
        bumps = np.sort(rng.uniform(0.0, 5.0, size=J))[::-1]
        for j in range(1, J + 1):
            minus[j] *= scales[j - 1]
            plus[j] += bumps[j - 1]
    else:
        bumps = np.sort(rng.uniform(0.0, 5.0, size=J))[::-1]
        scales = np.sort(rng.uniform(0.3, 1.0, size=J))[::-1]
        for j in range(1, J + 1):
            # entries with ell < j stand for mass below class 0 and must
            # stay zero, so only the columns ell >= j get lifted
            minus[j, j:] += bumps[j - 1]
            plus[j] *= scales[j - 1]
    return UTable(U.direction, J, U.l_exact, minus, plus)


def test_optimality(network, part211, part225, upper211, lower225):
    assert check_optimality(upper211, upper211, window=60).worst_margin == 0.0
    rng = np.random.default_rng(5)
    for chain, part in ((upper211, part211), (lower225, part225)):
        U = phi(chain)
        for _ in range(10):
            cand = phi_inverse(_feasible_perturbation(U, rng), part.weights)
            rep = check_optimality(cand, chain, window=60)
            assert rep.ok, rep.detail
        # the generator really produces feasible candidates
        cand = phi_inverse(_feasible_perturbation(U, rng), part.weights)
        assert verify_assumptions(network, part, cand, l_check=30).ok


def test_chain_csv_roundtrip(tmp_path, upper211, lower225, naive111):
    for chain in (upper211, lower225, naive111):
        path = tmp_path / "chain.csv"
        chain.to_csv(path)
        back = BoundingChain.from_csv(path)
        assert back.direction == chain.direction
        assert back.j_max == chain.j_max
        assert back.l_exact == chain.l_exact
        assert back.l_total == chain.l_total
        assert tuple(back.weights) == tuple(chain.weights)
        for ell in list(range(0, chain.l_exact)) + [chain.l_exact + 37]:
            for k in chain.offsets:
                assert back.rate(ell, k) == chain.rate(ell, k)


def _add_row(row):
    def edit(lines):
        return lines[:2] + [row] + lines[2:]
    return edit


@pytest.mark.parametrize("edit", [
    _add_row("-1,-1,9.0"),  # would overwrite the rate at ell = l_exact
    _add_row("71,-1,9.0"),  # past l_exact = 70
    _add_row("1,-1,2.5"),  # repeats (1, -1)
    lambda lines: [lines[0].replace(" l_total=3000", "")] + lines[1:],
    lambda lines: [line.replace("1,-1,2.5", "1,-1,-2.5") for line in lines],
    _add_row("1," + "9" * 200_000 + ",2.5"),  # past the csv field limit
    lambda lines: [lines[0].replace("l_exact=70", "l_exact=" + "9" * 30)]
    + lines[1:],
    lambda lines: [lines[0].replace("j_max=2", "j_max=" + "9" * 30)]
    + lines[1:],
    lambda lines: lines[:-2] + ["-1,2.5,0.0,7," + "9" * 30 + ",0,0.0,0.0"]
    + lines[-1:],
], ids=["negative-ell", "ell-past-l-exact", "duplicate-row", "missing-key",
        "negative-rate", "huge-field", "huge-l-exact", "huge-j-max",
        "huge-period"])
def test_from_csv_rejects_corrupt_files(tmp_path, upper211, edit):
    path = tmp_path / "chain.csv"
    upper211.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[1] == "ell,offset,rate" and "1,-1,2.5" in lines
    path.write_text("\n".join(edit(lines)) + "\n")
    with pytest.raises(ValidationError):
        BoundingChain.from_csv(path)


@pytest.mark.parametrize("rows, field", [
    (["2,1.0,2.5,0,2,0,0.0,0.0", "2,7.0,2.5,40,2,1,0.0,0.0"], "slope"),
    (["2,1.0,2.5,0,2,0,0.0,0.0", "2,1.0,2.5,40,2,1,0.0,0.0"], "onset"),
    # two rows, as many as the first row's period
    (["2,1.0,2.5,0,2,0,0.0,0.0", "2,1.0,2.5,0,3,1,0.0,0.0"], "period"),
    (["2,1.0,2.5,0,2,0,0.0,0.0", "2,1.0,2.5,0,2,1,0.5,0.0"], "c2"),
    (["2,1.0,2.5,0,2,0,0.0,0.0", "2,1.0,2.5,0,2,1,0.0,0.5"], "c3"),
], ids=["slope", "onset", "period", "c2", "c3"])
def test_from_csv_rejects_tail_rows_that_disagree(tmp_path, upper211, rows,
                                                   field):
    # each shared field was once read off the first row by residue, so a
    # second residue's slope or onset was dropped without a word
    path = tmp_path / "chain.csv"
    upper211.to_csv(path)
    lines = path.read_text().splitlines()
    i = lines.index("2,1.0,2.5,0,1,0,0.0,0.0")
    path.write_text("\n".join(lines[:i] + rows + lines[i + 1:]) + "\n")
    with pytest.raises(ValidationError,
                       match=f"tail rows of offset 2 disagree on {field}$"):
        BoundingChain.from_csv(path)


@pytest.mark.xfail(strict=True, raises=ValidationError,
                   reason="optimal_U keeps in-band f-values in the lower plus "
                   "table's j_max+1 column at the empty class 1, so phi_inverse "
                   "rejects the table: U beyond the band does not vanish")
def test_lower_chain_over_empty_classes_builds(network):
    part = ClassPartition((4, 3, 5))  # classes 1 and 2 hold no state
    chain = build_bounding_chain(network, part, "lower", l_exact=90)
    assert verify_assumptions(network, part, chain,
                              chain.l_total - chain.j_max)


def test_flat_tail_is_fitted_without_rounding_noise():
    # the period-5 window of offset -3 holds 3.3 up to an ulp and exact
    # zeros; a mean-difference slope of -3.55e-17 made the zeros negative
    doc = dict(NETWORK_DOC, parameters={
        "b1": 1.1, "b2": 2.3, "alpha": 2.3, "beta": 1.7, "d1": 2.1,
        "d2": 2.9, "d3": 3.3})
    net = network_from_dict(doc)
    part = ClassPartition((2, 2, 5))
    chain = build_bounding_chain(net, part, "lower", l_exact=70,
                                 l_total=3000)
    assert chain.tails[-3].slope == 0.0
    long = build_bounding_chain(net, part, "lower", l_exact=90)
    assert np.allclose(chain.band(90), long.band(90), rtol=1e-10, atol=1e-10)


# -- the row-end path of the f-table pass ------------------------------------


def _outcome(run):
    """``run()``, or the text of the ValidationError it raises."""
    try:
        return run()
    except ValidationError as exc:
        return str(exc)


def _both_paths(run):
    """``run``'s outcome on the row-end path, then on the full pass."""
    fast = _outcome(run)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(network_module, "_rows_affine", lambda network, hi: False)
        full = _outcome(run)
    return fast, full


def _same_f(fast, full):
    if isinstance(fast, str) or isinstance(full, str):
        assert fast == full
        return
    for name in ("minus", "plus", "empty"):
        assert getattr(fast, name).tobytes() == getattr(full, name).tobytes()


DYADIC = (0.375, 0.5, 1.0, 2.5, 3.0)
KINDS = ("plain-power", "falling-factorial")


@st.composite
def affine_networks(draw):
    """A network of 2 or 3 species whose rates are affine along rows:
    each term is a dyadic coefficient times powers and falling factorials
    of the head species and at most one exponent-1 factor on the last two.
    A reaction that takes one of the last two species has that species'
    factor in every term, so it never fires from the face; one that takes
    a head species may."""
    d = draw(st.sampled_from((2, 3)))
    weights = tuple(draw(st.lists(st.integers(1, 6), min_size=d,
                                  max_size=d)))
    reactions = []
    for _ in range(draw(st.integers(1, 4))):
        change = draw(st.lists(st.integers(-1, 1), min_size=d - 2,
                               max_size=d - 2))
        change += draw(st.sampled_from([(p, q) for p in (-1, 0, 1)
                                        for q in (-1, 0, 1) if p + q > -2]))
        taken = [i for i in (d - 2, d - 1) if change[i] < 0]
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            factors = [{"species": i, "exponent": e,
                        "kind": draw(st.sampled_from(KINDS))}
                       for i in range(d - 2)
                       if (e := draw(st.integers(0, 2)))]
            last = taken[0] if taken else draw(
                st.sampled_from((None, d - 2, d - 1)))
            if last is not None:
                factors.append({"species": last,
                                "kind": draw(st.sampled_from(KINDS))})
            terms.append({"coeff": draw(st.sampled_from(DYADIC)),
                          "factors": factors})
        reactions.append({"change": change, "propensity": terms})
    net = network_from_dict({"species": [f"S{i}" for i in range(d)],
                             "reactions": reactions})
    part = ClassPartition(weights)
    shifts = [abs(class_shift(r, part)) for r in net.reactions]
    assume(max(shifts) > 0)
    hi = draw(st.integers(2 * max(shifts) + 2, 60))
    return net, part, hi


@settings(max_examples=60, deadline=None)
@given(affine_networks(), st.sampled_from(("upper", "lower")),
       st.sampled_from((0.0, 1.0, 4.0, 16.0)))
def test_row_ends_give_the_full_pass_bytes(case, direction, rate):
    net, part, hi = case
    assert network_module._rows_affine(net, hi)
    _same_f(*_both_paths(lambda: compute_f(net, part, direction, hi)))
    # a chain of one rate at every offset, against the same f-table pass
    J = j_max(net, part)
    L = hi + J
    exact = {k: np.where(np.arange(L + 1) + k >= 0, rate, 0.0)
             for k in range(-J, J + 1) if k}
    cand = BoundingChain(direction, J, L, L, exact, {}, part.weights)
    fast, full = _both_paths(lambda: verify_assumptions(net, part, cand, hi))
    assert fast == full


@pytest.mark.parametrize("run_states", [7, 64, None])
def test_row_end_fault_names_the_full_pass_state(monkeypatch, part211,
                                                 run_states):
    # X1 is born at 40.5 - X2 - 0.75 X3, which is 9.75 - t / 4 along the row
    # (0, t, 41 - t): first negative in class 41, at t = 40 and t = 41, so
    # the first bad state is inside the row, one before its end (0, 41, 0)
    doc = copy.deepcopy(NETWORK_DOC)
    doc["reactions"][0]["propensity"] = [
        {"coeff": 40.5}, {"coeff": -1.0, "factors": [{"species": "X2"}]},
        {"coeff": -0.75, "factors": [{"species": "X3"}]}]
    net = network_from_dict(doc)
    assert network_module._rows_affine(net, 100)
    if run_states is not None:
        monkeypatch.setattr(network_module, "RUN_STATES", run_states)
    want = "negative propensity -0.25 for reaction 0 at (0, 40, 1)"
    for direction in ("upper", "lower"):
        assert _both_paths(lambda: compute_f(net, part211, direction,
                                             100)) == (want, want)


def test_rows_affine_holds_where_rates_are_exact_and_affine(network):
    # the example network's only squared species is X1, a head species,
    # and its coefficients are multiples of 1/2
    assert network_module._rows_affine(network, 3000)
    assert not network_module._rows_affine(network_from_dict(INF_DOC), 30)
    assert not network_module._rows_affine(
        network_from_dict(LEAKY_NETWORK_DOC), 40)  # a face on X3

    def edited(factors=None, coeff=1.0):
        doc = copy.deepcopy(NETWORK_DOC)
        doc["reactions"][0]["propensity"].append(
            {"coeff": coeff, "factors": factors or []})
        return network_from_dict(doc)

    X2, X3 = {"species": "X2"}, {"species": "X3"}
    assert network_module._rows_affine(edited([X3]), 3000)
    assert not network_module._rows_affine(edited([X2, X3]), 40)
    assert not network_module._rows_affine(edited(
        [{"species": "X3", "exponent": 2, "kind": "falling-factorial"}]), 40)
    assert not network_module._rows_affine(edited(coeff=0.1), 40)
    # a zero coefficient adds no rate, whatever its factors
    assert network_module._rows_affine(edited([X2, X3], coeff=0.0), 3000)
    # the exactness bound, with 2^k = 2: 2 (H + H + 2.5 + 2.5 H^2 + 2 H^2
    # + 2.5 H + 2.5 H + 3 H) = 9 H^2 + 20 H + 5 must stay below 2^53
    H = max(h for h in range(31_630_000, 31_640_000)
            if 9 * h * h + 20 * h + 5 < 2 ** 53)
    assert network_module._rows_affine(network, H)
    assert not network_module._rows_affine(network, H + 1)


@pytest.mark.parametrize("weights", [(2, 1, 1), (2, 2, 5), (1, 1, 1)])
def test_row_end_path_evaluates_two_states_per_row(monkeypatch, network,
                                                   weights):
    # a row is the states of a class with the same head counts
    part = ClassPartition(weights)
    ends = sum(min(2, n) for ell in range(61)
               for n in collections.Counter(
                   map(tuple, enumerate_class(ell, part)[:, :-2])).values())
    evaluated = []
    block = ReactionNetwork._rate_block

    def spy(self, states):
        evaluated.append(np.shape(states)[1])
        return block(self, states)

    monkeypatch.setattr(ReactionNetwork, "_rate_block", spy)
    compute_f(network, part, "upper", 60)
    assert sum(evaluated) == ends < sum(
        len(enumerate_class(ell, part)) for ell in range(61))
