"""Drift statistics, the sign rules, the combination table, irreducibility."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundchain import (BoundingChain, ClassPartition, ConsistencyError,
                        TailModel, ValidationError, build_bounding_chain,
                        check_irreducible, classify, combine, drift_stats)
from boundchain.classifier import ChainClass, DriftStats
from boundchain.cli import main


def test_drift_upper(upper211):
    s = drift_stats(upper211)
    assert s.valid
    assert s.degrees == {-1: 1, 2: 1}
    assert s.b1 == pytest.approx(-0.5, abs=1e-12)
    assert s.b2 == pytest.approx(5.0, abs=1e-12)
    assert s.b3 == pytest.approx(1.75, abs=1e-12)


def test_drift_lower(lower225):
    s = drift_stats(lower225)
    assert s.valid
    assert s.b1 == pytest.approx(-3.9, rel=1e-9)
    assert s.b2 == pytest.approx(10.2, rel=1e-9)
    assert s.b3 == pytest.approx(1.0, rel=1e-9)
    assert any("averaged" in n for n in s.notes)


def test_drift_superlinear(naive111):
    s = drift_stats(naive111)
    assert not s.valid
    assert s.degrees == {-1: 1, 1: 2}
    assert np.isnan(s.b1)


def test_drift_requires_tails(upper211):
    live = BoundingChain("upper", upper211.j_max, upper211.l_exact,
                         upper211.l_exact, upper211.exact, {},
                         upper211.weights)
    with pytest.raises(ValidationError):
        drift_stats(live)


def test_classify_fixtures(upper211, lower225, naive111):
    up = classify(drift_stats(upper211))
    assert up.label == "positive-recurrent"
    assert "coarse column label: recurrent" in up.provenance
    low = classify(drift_stats(lower225))
    assert low.label == "positive-recurrent"
    assert "coarse" not in low.provenance
    assert classify(drift_stats(naive111)).label == "explosive"


def stats(b1, b2, b3, direction="lower"):
    return DriftStats(b1=b1, b2=b2, b3=b3, valid=True, degrees={},
                      direction=direction)


def test_classify_sign_rules():
    assert classify(stats(1.0, 0.0, 0.0)).label == "transient-nonexplosive"
    assert classify(stats(-1.0, 9.0, 9.0)).label == "positive-recurrent"
    assert classify(stats(0.0, 2.0, 1.0)).label == "transient-nonexplosive"
    assert classify(stats(0.0, -1.0, -2.0)).label == "positive-recurrent"
    assert classify(stats(0.0, 1.0, 0.0)).label == "null-recurrent"
    assert classify(stats(0.0, 0.0, 0.0)).label == "null-recurrent"


def test_classify_zero_tolerance_scales():
    # |B1| below tol relative to the largest statistic counts as zero
    assert classify(stats(1e-6, -1e6, -1e6)).label == "positive-recurrent"
    assert classify(stats(1e-10, -1.0, -1.0)).label == "positive-recurrent"
    assert classify(stats(1e-6, -1.0, -1.0)).label == "transient-nonexplosive"


def test_classify_superlinear_rules():
    up_dominant = DriftStats(float("nan"), float("nan"), float("nan"),
                             valid=False, degrees={-1: 1, 1: 2},
                             direction="upper")
    assert classify(up_dominant).label == "explosive"
    balanced = DriftStats(float("nan"), float("nan"), float("nan"),
                          valid=False, degrees={-1: 2, 1: 2},
                          direction="upper")
    assert classify(balanced).label == "unknown"
    down_dominant = DriftStats(float("nan"), float("nan"), float("nan"),
                               valid=False, degrees={-2: 3, 1: 1},
                               direction="upper")
    assert classify(down_dominant).label == "unknown"


E, T, N, P = ("explosive", "transient-nonexplosive", "null-recurrent",
              "positive-recurrent")

# (lower class, upper class) -> deduced behavior; None marks an impossible
# pairing that must be refused
COMBINE_TABLE = {
    (E, E): "explosive", (E, T): None, (E, N): None, (E, P): None,
    (T, E): "transient(explosive-or-not)",
    (T, T): "transient-and-nonexplosive", (T, N): None, (T, P): None,
    (N, E): "transient-or-null-recurrent", (N, T): "non-explosive",
    (N, N): "null-recurrent", (N, P): None,
    (P, E): "no-information", (P, T): "non-explosive", (P, N): "recurrent",
    (P, P): "positive-recurrent",
}


def test_combine_table():
    for (z, y), want in COMBINE_TABLE.items():
        if want is None:
            with pytest.raises(ConsistencyError):
                combine(z, y, z_irreducible=True, y_irreducible=True)
        else:
            got = combine(z, y, z_irreducible=True, y_irreducible=True)
            assert got.label == want, f"({z}, {y}) -> {got.label}"


def test_combine_coarse_and_unknown_labels():
    # an upper chain known only to be recurrent still rules in recurrence
    got = combine(P, "recurrent-unrefined", True, True)
    assert got.label == "recurrent"
    got = combine(N, "recurrent-unrefined", True, True)
    assert got.label == "null-recurrent"
    with pytest.raises(ConsistencyError):
        combine(E, "recurrent-unrefined", True, True)
    # unknown on either side contributes no facts
    assert combine("unknown", "unknown", True, True).label == "no-information"
    assert combine(E, "unknown", True, True).label == "explosive"
    assert combine("unknown", P, True, True).label == "positive-recurrent"


def test_combine_accepts_chainclass_objects():
    z = ChainClass(P, "B1 < 0")
    y = ChainClass(P, "B1 < 0")
    assert combine(z, y, True, True).label == "positive-recurrent"


def test_combine_requires_attestation():
    with pytest.raises(ValidationError):
        combine(P, P)
    with pytest.raises(ValidationError):
        combine(P, P, z_irreducible=True)
    with pytest.raises(ValidationError):
        combine(P, P, y_irreducible=True)


def test_combine_rejects_unknown_label():
    with pytest.raises(ValidationError):
        combine("bogus", P, True, True)
    with pytest.raises(ValidationError):
        ChainClass("bogus", "note")
    with pytest.raises(ValidationError):
        ChainClass(P, "")


def test_irreducible_fixtures(upper211, lower225):
    assert check_irreducible(upper211)
    att = check_irreducible(lower225)
    assert att.attested, att.detail


def mm1(lam, mu, l_exact=20):
    up = np.full(l_exact + 1, lam)
    down = np.full(l_exact + 1, mu)
    down[0] = 0.0
    return BoundingChain("lower", 1, l_exact, 1000,
                         {1: up, -1: down},
                         {1: TailModel(1, 0, intercepts=(lam,)),
                          -1: TailModel(-1, 1, intercepts=(mu,))},
                         (1,))


def test_classify_matches_birth_death_theory():
    assert classify(drift_stats(mm1(1.0, 2.0))).label == "positive-recurrent"
    assert classify(drift_stats(mm1(2.0, 1.0))).label == "transient-nonexplosive"
    assert classify(drift_stats(mm1(1.0, 1.0))).label == "null-recurrent"


def test_birth_death_pipeline(birth_death):
    part = ClassPartition((1,))
    for direction in ("upper", "lower"):
        chain = build_bounding_chain(birth_death, part, direction, l_exact=60)
        for ell in range(61):
            want = {1: 1.5} if ell == 0 else {1: 1.5, -1: 2.0 * ell}
            assert chain.row(ell) == want
        assert classify(drift_stats(chain)).label == "positive-recurrent"
        assert check_irreducible(chain)


def pure_birth():
    up = np.full(31, 2.0)
    return BoundingChain("upper", 1, 30, 300, {1: up},
                         {1: TailModel(1, 0, intercepts=(2.0,))}, (1,))


def absorbing_origin():
    # up-rate vanishes at 0, so nothing is reachable and the witness says so
    grid = np.arange(31, dtype=float)
    return BoundingChain("upper", 1, 30, 300,
                         {1: 2.0 * grid, -1: grid},
                         {1: TailModel(1, 0, slope=2.0),
                          -1: TailModel(-1, 1, slope=1.0)}, (1,))


def dead_tail_row():
    # connected window but the up-rate dies exactly at the horizon
    up = np.full(31, 2.0)
    up[30] = 0.0
    down = np.full(31, 1.0)
    down[0] = 0.0
    return BoundingChain("upper", 1, 30, 30, {1: up, -1: down}, {}, (1,))


def trapped():
    # no up-rate at class 10: classes 0..10 are all that class 0 reaches
    up = np.full(31, 2.0)
    up[10] = 0.0
    down = np.full(31, 1.0)
    down[0] = 0.0
    return BoundingChain("upper", 1, 30, 300, {1: up, -1: down},
                         {1: TailModel(1, 0, intercepts=(2.0,)),
                          -1: TailModel(-1, 1, intercepts=(1.0,))}, (1,))


def one_way():
    # +2 reaches every class, but no down-rate at 12 and 13 keeps 12 and up
    # from coming back below 12
    up = np.full(41, 1.5)
    down = np.full(41, 0.5)
    down[0] = 0.0
    down[12:14] = 0.0
    return BoundingChain("lower", 2, 40, 300, {2: up, -1: down},
                         {2: TailModel(2, 0, intercepts=(1.5,)),
                          -1: TailModel(-1, 1, slope=0.5)}, (1,))


def test_irreducible_pure_birth():
    att = check_irreducible(pure_birth())
    assert not att
    assert "return" in att.detail
    assert att.witness  # the classes that cannot come back to 0


def test_irreducible_absorbing_origin():
    att = check_irreducible(absorbing_origin())
    assert not att
    assert att.witness == [0]


def test_irreducible_rejects_negative_horizon(upper211):
    # a horizon of -1 once reached a BFS that failed inside scipy, and the
    # chain came back attested irreducible on [0, -1]
    with pytest.raises(ValidationError, match="horizon must be nonnegative"):
        check_irreducible(upper211, -1)


def barrier():
    # unit rates on a long exact head, but nothing climbs from 250 to 252
    up, down = np.ones(301), np.ones(301)
    down[0] = 0.0
    up[250] = up[251] = 0.0
    return BoundingChain("upper", 1, 300, 1000, {1: up, -1: down},
                         {1: TailModel(1, 0, intercepts=(1.0,)),
                          -1: TailModel(-1, 1, intercepts=(1.0,))}, (1,))


def test_irreducible_checks_every_exact_level(tmp_path, capsys):
    # the default window once stopped at 200 whatever l_exact was, and
    # attested a chain that never gets past its barrier at 250
    att = check_irreducible(barrier())
    assert not att
    assert att.witness == list(range(251))
    assert att.detail.startswith("classes reachable from 0 stop at 250 "
                                 "inside [0, 300];")
    assert check_irreducible(barrier(), 200)  # an explicit horizon holds
    path = tmp_path / "barrier.csv"
    barrier().to_csv(path)
    assert main(["classify", "--chain", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["irreducible"] is False
    assert doc["irreducibility_detail"] == att.detail


def test_irreducible_dead_tail_row():
    att = check_irreducible(dead_tail_row())
    assert not att
    assert att.witness == [30]
    assert "up-rate" in att.detail


CONNECTED = ("form one strongly connected component with persistently "
             "positive tail rates both ways")

# (chain, horizon) -> (attested, witness, detail), as the strongly connected
# components search over the reachable window gave them
ATTESTATIONS = [
    ("upper211", 200, (True, None,
                       f"reachable classes in [0, 200] {CONNECTED}")),
    ("lower225", 200, (True, None,
                       f"reachable classes in [0, 200] {CONNECTED}")),
    ("naive111", 200, (True, None,
                       f"reachable classes in [0, 200] {CONNECTED}")),
    ("upper211", 0, (True, None, f"reachable classes in [0, 0] {CONNECTED}")),
    ("pure_birth", 200, (False, list(range(1, 51)),
                         "200 reachable classes cannot return to class 0, "
                         "e.g. [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]")),
    ("pure_birth", 37, (False, list(range(1, 38)),
                        "37 reachable classes cannot return to class 0, "
                        "e.g. [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]")),
    ("absorbing_origin", 200, (False, [0],
                               "classes reachable from 0 stop at 0 inside "
                               "[0, 200]; the chain is trapped in [0]")),
    ("dead_tail_row", 200, (False, [30], "no positive up-rate at class 30")),
    ("trapped", 200, (False, list(range(11)),
                      "classes reachable from 0 stop at 10 inside [0, 200]; "
                      "the chain is trapped in "
                      "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]")),
    ("trapped", 37, (False, list(range(11)),
                     "classes reachable from 0 stop at 10 inside [0, 37]; "
                     "the chain is trapped in "
                     "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]")),
    ("one_way", 200, (False, list(range(12, 62)),
                      "189 reachable classes cannot return to class 0, "
                      "e.g. [12, 13, 14, 15, 16, 17, 18, 19, 20, 21]")),
    ("one_way", 37, (False, list(range(12, 38)),
                     "26 reachable classes cannot return to class 0, "
                     "e.g. [12, 13, 14, 15, 16, 17, 18, 19, 20, 21]")),
]


@pytest.mark.parametrize("name,horizon,want", ATTESTATIONS,
                         ids=[f"{n}-{h}" for n, h, _ in ATTESTATIONS])
def test_attestations_are_pinned(request, name, horizon, want):
    builder = globals().get(name)
    chain = builder() if builder else request.getfixturevalue(name)
    att = check_irreducible(chain, horizon)
    assert (att.attested, att.witness, att.detail) == want


def csgraph_reference(chain, horizon=200):
    """check_irreducible as a BFS and a strong-components search in csgraph."""
    import scipy.sparse as sp
    from scipy.sparse.csgraph import breadth_first_order, connected_components

    horizon = min(horizon, chain.l_total)
    J = chain.j_max
    rates = chain.band(max(horizon, chain.l_exact))
    ell, col = np.nonzero(rates[:horizon + 1] > 0)
    m = ell + col - J
    inside = m <= horizon
    graph = sp.coo_matrix((np.ones(inside.sum()), (ell[inside], m[inside])),
                          shape=(horizon + 1, horizon + 1)).tocsr()
    reach = breadth_first_order(graph, 0, directed=True,
                                return_predecessors=False)
    if reach.max(initial=0) < horizon - chain.j_max:
        witness = sorted(int(i) for i in reach)
        return (False, witness,
                f"classes reachable from 0 stop at {max(witness)} inside "
                f"[0, {horizon}]; the chain is trapped in {witness[:20]}")
    sub = graph[reach][:, reach]
    n_comp, labels = connected_components(sub, directed=True,
                                          connection="strong")
    if n_comp > 1:
        stuck = [int(reach[i]) for i in np.flatnonzero(labels != labels[0])]
        return (False, sorted(stuck)[:50],
                f"{len(stuck)} reachable classes cannot return to class 0, "
                f"e.g. {sorted(stuck)[:10]}")
    period = 1
    for tm in chain.tails.values():
        period = int(np.lcm(period, tm.period))
    lo = max(1, chain.l_exact - period + 1)
    tail = rates[lo:chain.l_exact + 1] > 0
    up, down = tail[:, J + 1:].any(axis=1), tail[:, :J].any(axis=1)
    miss = np.flatnonzero(~(up & down))
    if miss.size:
        i = int(miss[0])
        return (False, [lo + i],
                f"no positive {'down' if up[i] else 'up'}-rate at class "
                f"{lo + i}")
    return (True, None, f"reachable classes in [0, {horizon}] {CONNECTED}")


RATES = st.sampled_from([0.0, 0.0, 0.5, 2.0])


@st.composite
def banded_chains(draw):
    """Banded chains with random zero patterns, with and without tails."""
    J = draw(st.integers(1, 3))
    l_exact = draw(st.integers(0, 60))
    l_total = l_exact + draw(st.integers(0, 250))
    offsets = [k for k in range(-J, J + 1)
               if k and draw(st.booleans())] or [J]
    exact, tails = {}, {}
    for k in offsets:
        dense = draw(st.booleans())
        exact[k] = np.array(draw(st.lists(
            st.just(1.0) if dense else RATES,
            min_size=l_exact + 1, max_size=l_exact + 1)))
        if draw(st.booleans()):
            period = draw(st.integers(1, 3))
            tails[k] = TailModel(
                k, l_exact + 1, period,
                tuple(draw(st.lists(RATES, min_size=period,
                                    max_size=period))),
                draw(st.sampled_from([0.0, 0.5])))
    return BoundingChain("upper", J, l_exact, l_total, exact, tails, (1,))


@settings(max_examples=300, deadline=None)
@given(chain=banded_chains(), horizon=st.integers(0, 200))
def test_irreducible_matches_csgraph_reference(chain, horizon):
    att = check_irreducible(chain, horizon)
    assert (att.attested, att.witness, att.detail) == \
        csgraph_reference(chain, horizon)
