"""Joint (network, chain) transition rows and the coupled simulation."""

import hashlib
import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from boundchain import (BoundingChain, ClassPartition, CoupledSimulator,
                        TransportError, ValidationError, build_bounding_chain,
                        coupled_ssa, network_from_dict)
from boundchain import coupling
from boundchain.errors import ConsistencyError
from conftest import LEAKY_NETWORK_DOC, NETWORK_DOC
from test_transport import pi_bar_broadcast


def marginal_tols(sim, x, ell):
    """Expected marginal rates of the joint row at (x, ell), self-loops in."""
    key = tuple(int(v) for v in x)
    want_net = {}
    for r in sim.network.reactions:
        rate = r.propensity.evaluate(key)
        if rate > 0.0:
            dest = tuple(v + dv for v, dv in zip(key, r.change))
            want_net[dest] = want_net.get(dest, 0.0) + rate
    q_x = sum(want_net.values())
    want_chain = {ell + k: r for k, r in sim.chain.row(ell).items()}
    q_y = sum(want_chain.values())
    want_net[key] = want_net.get(key, 0.0) + q_y
    want_chain[ell] = want_chain.get(ell, 0.0) + q_x
    return want_net, want_chain


def row_marginals(row):
    """Reconstructed (network, chain) marginal rates of a joint row."""
    net, cha = {}, {}
    for (dest, m), rate in zip(row.pairs, row.rates):
        net[dest] = net.get(dest, 0.0) + rate
        cha[m] = cha.get(m, 0.0) + rate
    return net, cha


def ordered_throughout(traj, partition, upper=True):
    """Whether every class label of a coupled path stays on its side of
    the chain level."""
    cls = traj.states @ np.asarray(partition.weights, dtype=np.int64)
    return bool((cls <= traj.levels).all() if upper
                else (cls >= traj.levels).all())


def assert_marginals(sim, x, ell):
    row = sim.row(x, ell)
    got_net, got_chain = row_marginals(row)
    want_net, want_chain = marginal_tols(sim, x, ell)
    # the self pair is dropped from the stored row; add it back on both sides
    self_mass = row.M - row.exit_rate
    key = (tuple(int(v) for v in x), ell)
    got_net[key[0]] = got_net.get(key[0], 0.0) + self_mass
    got_chain[ell] = got_chain.get(ell, 0.0) + self_mass
    for want, got in ((want_net, got_net), (want_chain, got_chain)):
        assert set(got) <= set(want) | {key[0], ell}
        for k, v in want.items():
            assert got.get(k, 0.0) == pytest.approx(v, abs=1e-10 * max(1.0, row.M))


def test_marginals_ordered_and_disordered(network, part211, upper211):
    sim = CoupledSimulator(network, part211, upper211)
    cases = [((3, 2, 1), 9), ((3, 2, 1), 40), ((0, 0, 5), 5),
             ((5, 0, 0), 10), ((2, 2, 2), 8),
             ((10, 3, 3), 10),  # disordered: class 26 above the level
             ((4, 4, 4), 2)]
    for x, ell in cases:
        assert_marginals(sim, x, ell)


def test_marginals_lower(network, part225, lower225):
    sim = CoupledSimulator(network, part225, lower225)
    for x, ell in [((3, 2, 1), 9), ((3, 2, 1), 2), ((1, 1, 1), 20),
                   ((0, 3, 2), 16), ((6, 0, 0), 12)]:
        assert_marginals(sim, x, ell)


def test_origin_row_moves_in_lockstep(network, part211, upper211):
    row = CoupledSimulator(network, part211, upper211).row((0, 0, 0), 0)
    assert row.source == ((0, 0, 0), 0)
    assert row.pairs == [((1, 0, 0), 2)]
    assert row.rates == pytest.approx([2.5])
    assert row.exit_rate == pytest.approx(2.5)


def test_identical_chain_couples_diagonally(birth_death):
    # singleton classes: the chain is the network, so the ordered coupling
    # must move both components together at every step
    part = ClassPartition((1,))
    chain = build_bounding_chain(birth_death, part, "upper", l_exact=40)
    sim = CoupledSimulator(birth_death, part, chain)
    for ell in (0, 1, 7, 23):
        row = sim.row((ell,), ell)
        for (dest, m), rate in zip(row.pairs, row.rates):
            assert dest[0] == m
            assert rate > 0


def test_row_sampling_covers_all_pairs(network, part211, upper211):
    sim = CoupledSimulator(network, part211, upper211)
    row = sim.row((3, 2, 1), 9)
    seen = set()
    for u in np.linspace(0.0, row.exit_rate * (1 - 1e-12), 2000):
        seen.add(row.sample(float(u)))
    assert seen == set(row.pairs)


def test_coupled_ssa_preserves_order(network, part211, upper211):
    sim = CoupledSimulator(network, part211, upper211)
    for seed in range(5):
        traj = coupled_ssa(network, part211, upper211, (3, 2, 1), 12,
                           t_final=3.0, seed=seed, simulator=sim)
        assert traj.reason == "horizon"
        assert ordered_throughout(traj, part211, upper=True)
        assert len(traj.times) == len(traj.levels) == len(traj.states)


def test_coupled_ssa_preserves_order_lower(network, part225, lower225):
    sim = CoupledSimulator(network, part225, lower225)
    for seed in range(5):
        traj = coupled_ssa(network, part225, lower225, (3, 2, 1), 3,
                           t_final=3.0, seed=seed, simulator=sim)
        assert traj.reason == "horizon"
        assert ordered_throughout(traj, part225, upper=False)


def test_coupled_ssa_jump_cap(monkeypatch, network, part211, upper211):
    # a path still running after JUMP_CAP jumps ends with reason "cap"
    monkeypatch.setattr(coupling, "JUMP_CAP", 25)
    traj = coupled_ssa(network, part211, upper211, (3, 2, 1), 12,
                       t_final=1e9, seed=0)
    assert traj.reason == "cap"
    assert len(traj) == 26
    assert ordered_throughout(traj, part211, upper=True)


def test_coupled_ssa_rejects_disordered_start(network, part211, upper211):
    with pytest.raises(ValidationError):
        coupled_ssa(network, part211, upper211, (10, 3, 3), 10, t_final=1.0)


def test_chain_weights_must_match(network, part225, upper211):
    with pytest.raises(ValidationError, match=r"partition weights \(2, 2, 5\) "
                       r"differ from the chain's \(2, 1, 1\)"):
        CoupledSimulator(network, part225, upper211)


def test_coupled_ssa_rejects_a_simulator_built_for_other_inputs(
        network, part211, part225, upper211, lower225):
    sim = CoupledSimulator(network, part211, upper211)
    twin = network_from_dict(NETWORK_DOC)
    # another network object, partition or chain: the rows would come from
    # the simulator and the labels, band and start check from the arguments
    for args in ((twin, part211, upper211), (network, part225, upper211),
                 (network, part211, lower225)):
        with pytest.raises(ValidationError, match="simulator was built"):
            coupled_ssa(*args, (3, 2, 1), 12, t_final=1.0, simulator=sim)
    # an equal partition built apart is the same partition
    traj = coupled_ssa(network, ClassPartition((2, 1, 1)), upper211,
                       (3, 2, 1), 12, t_final=1.0, simulator=sim)
    assert ordered_throughout(traj, part211, upper=True)


def test_explosive_chain_runs_off_the_band(network, part111, naive111):
    # the quadratic up-drift pushes the level past the modeled range fast
    sim = CoupledSimulator(network, part111, naive111)
    bands = 0
    for seed in range(6):
        traj = coupled_ssa(network, part111, naive111, (3, 2, 1), 25,
                           t_final=5.0, seed=seed, simulator=sim)
        assert ordered_throughout(traj, part111, upper=True)
        if traj.reason == "band":
            bands += 1
            assert traj.levels[-1] > naive111.l_total - naive111.j_max
            assert traj.times[-1] < 5.0
    assert bands >= 3


def test_coupled_start_anywhere_ordered(network, part211, upper211):
    traj = coupled_ssa(network, part211, upper211, (0, 0, 0), 0,
                       t_final=1.0, seed=2)
    assert ordered_throughout(traj, part211, upper=True)
    x0class = part211.class_of(np.array([0, 0, 0]))
    assert traj.levels[0] == 0 and x0class == 0


# two reactions share the change (1, 0) and one has the zero change
SHARED_DOC = {
    "species": ["A", "B"],
    "reactions": [
        {"change": [1, 0], "propensity": [{"coeff": 1.0}]},
        {"change": [0, -1],
         "propensity": [{"coeff": 2.0, "factors": [{"species": "B"}]}]},
        {"change": [1, 0],
         "propensity": [{"coeff": 0.5, "factors": [{"species": "B"}]}]},
        {"change": [0, 0],
         "propensity": [{"coeff": 0.7, "factors": [{"species": "A"}]}]},
        {"change": [-1, 1],
         "propensity": [{"coeff": 1.0, "factors": [{"species": "A"}]}]},
        {"change": [-1, 0],
         "propensity": [{"coeff": 1.5, "factors": [{"species": "A"}]}]},
    ],
}


def test_shared_changes_give_one_pair_per_destination():
    net = network_from_dict(SHARED_DOC)
    part = ClassPartition((2, 1))
    chain = build_bounding_chain(net, part, "upper", l_exact=30, l_total=60)
    sim = CoupledSimulator(net, part, chain)
    # ordered rows, the origin, and a disordered row (class 18 > 12)
    for x, ell in [((2, 3), 7), ((2, 3), 20), ((0, 4), 4), ((0, 0), 0),
                   ((5, 0), 10), ((6, 6), 12)]:
        row = sim.row(x, ell)
        assert row.pairs == sorted(set(row.pairs))
        assert row.source not in row.pairs
        assert_marginals(sim, x, ell)
    traj = coupled_ssa(net, part, chain, (2, 3), 7, t_final=5.0, seed=1,
                       simulator=sim)
    assert ordered_throughout(traj, part, upper=True)


def row_digest(sim, pairs):
    """sha256 over (pairs, rates, exit_rate, M) of the rows at ``pairs``."""
    h = hashlib.sha256()
    for x, ell in sorted(pairs):
        row = sim.row(x, ell)
        h.update(repr([(tuple(int(v) for v in dest), int(m))
                       for dest, m in row.pairs]).encode())
        h.update(np.asarray(row.rates, dtype=float).tobytes())
        h.update(repr((float(row.exit_rate), float(row.M))).encode())
    return h.hexdigest()


def visited_pairs(network, part, chain, sim, seeds, t_final):
    visited = set()
    for seed in seeds:
        traj = coupled_ssa(network, part, chain, (15, 5, 5), 40, t_final,
                           seed=seed, simulator=sim)
        visited.update(zip(map(tuple, traj.states.tolist()),
                           traj.levels.tolist()))
    return visited


def test_visited_rows_are_unchanged(network, part211, upper211):
    # the rows seeds 0-9 of acceptance criterion 5 visit, as the dict-built
    # rows gave them: every float must be the same
    sim = CoupledSimulator(network, part211, upper211)
    visited = visited_pairs(network, part211, upper211, sim, range(10), 20.0)
    assert len(visited) == 2423
    assert row_digest(sim, visited) == (
        "2c6df5589c302f2af8c6de8dfefb986b6efdc57cfb5f80d9ee1ec780c9620f07")


def test_rows_keep_their_summation_order(part211):
    # rates that binary floating point cannot hold exactly, so the order in
    # which a row adds them up shows in its last bits
    doc = dict(NETWORK_DOC, parameters={
        "b1": 1.1, "b2": 2.3, "alpha": 2.3, "beta": 1.7, "d1": 2.1,
        "d2": 2.9, "d3": 3.3})
    network = network_from_dict(doc)
    chain = build_bounding_chain(network, part211, "upper", l_exact=70,
                                 l_total=3000)
    sim = CoupledSimulator(network, part211, chain)
    visited = visited_pairs(network, part211, chain, sim, range(5), 5.0)
    assert len(visited) == 1005
    assert row_digest(sim, visited) == (
        "d20bb0a879a0efc98d2476be5938e7527687791ec79992fe2ca6ce5ef223d8a6")


def test_lower_rows_are_unchanged(network, part225, lower225):
    # the rows of the lower coupled paths (the plan taken as pi_bar(b, a).T),
    # as the array-built rows gave them
    sim = CoupledSimulator(network, part225, lower225)
    visited = set()
    for seed in range(5):
        traj = coupled_ssa(network, part225, lower225, (3, 2, 1), 3,
                           t_final=3.0, seed=seed, simulator=sim)
        visited.update(zip(map(tuple, traj.states.tolist()),
                           traj.levels.tolist()))
    assert len(visited) == 93
    assert row_digest(sim, visited) == (
        "227edc9a21e21ef8b436ab366f1e300a9a94f05b41165e435afd21a1cd559178")


def test_wide_rows_are_unchanged(network, part211, upper211):
    # ordered rows whose class and level lie up to about 400 classes apart:
    # past 128 entries numpy adds a row's totals as two halves
    sim = CoupledSimulator(network, part211, upper211)
    pairs = [(x, ell) for x in itertools.product(range(6), repeat=3)
             for ell in range(150, 400, 7)]
    assert len(pairs) == 7776
    assert row_digest(sim, pairs) == (
        "709cbf1d623437c4c3afe6ffc7573e614770372c40a393d35e0b4833bbe34d12")


@pytest.mark.parametrize("chain_name, part_name, count, digest", [
    ("upper211", "part211", 708,
     "8bfd4d43aa3fbb1af1c9c74de11b714e59023600b22230972cd6900d30d37e68"),
    ("lower225", "part225", 374,
     "01c02c1c40f28725dce699d42356a22256e3833bd50543403afe6bc123dc8622"),
])
def test_disordered_rows_are_unchanged(request, network, chain_name,
                                       part_name, count, digest):
    # the product-coupling rows on a grid of pairs on the wrong side
    chain = request.getfixturevalue(chain_name)
    part = request.getfixturevalue(part_name)
    upper = chain.direction == "upper"
    pairs = [(x, ell) for x in itertools.product(range(0, 9, 2), repeat=3)
             for ell in range(0, 40, 3)
             if (part.class_of(x) > ell if upper
                 else part.class_of(x) < ell)]
    assert len(pairs) == count
    assert row_digest(CoupledSimulator(network, part, chain), pairs) == digest


def dense_row(sim, band, state, ell):
    """A joint row built on arrays over the classes lo..hi: the reference.

    Propensities from ``ReactionNetwork.rates``, class masses by
    ``np.bincount``, the plan from the broadcast fill, the self-loop pair
    zeroed in the dense joint array; ``band`` is ``chain.band(l_total)``.
    """
    network, chain = sim.network, sim.chain
    x = np.asarray(state, dtype=np.int64)
    c = sim.partition.class_of(x)
    nu = network.change_matrix().reshape(-1, network.d)
    moves, first, group = np.unique(
        np.vstack([nu, np.zeros((1, network.d), dtype=np.int64)]),
        axis=0, return_index=True, return_inverse=True)
    group = group.reshape(-1)
    shift = moves @ np.asarray(sim.partition.weights, dtype=np.int64)
    flow = np.append(network.rates(x[None])[0], 0.0)
    q_x = float(np.cumsum(flow)[-1])
    q_y = float(np.cumsum(band[ell])[-1])
    M = q_x + q_y
    if M <= 0.0:
        return [], np.zeros(0), 0.0, 0.0
    flow[-1] = q_y
    rate = np.bincount(group, weights=flow, minlength=len(moves))
    cls = c + shift
    live = rate > 0
    J = chain.j_max
    ks = np.flatnonzero(band[ell]) - J
    lo = min(int(cls[live].min()), ell + int(ks.min(initial=0)))
    hi = max(int(cls[live].max()), ell + int(ks.max(initial=0)))
    b = np.zeros(hi - lo + 1)
    b[ell + ks - lo] = band[ell, ks + J]
    b[ell - lo] = q_x
    rows = np.flatnonzero(live)
    if (c <= ell) if sim.upper else (c >= ell):
        by_reaction = np.argsort(first)
        order = by_reaction[live[by_reaction]]
        a = np.bincount(cls[order] - lo, weights=rate[order],
                        minlength=len(b))
        plan = (pi_bar_broadcast(a, b) if sim.upper
                else pi_bar_broadcast(b, a).T)
        at = cls[rows] - lo
        joint = (rate[rows] / a[at])[:, None] * plan[at]
    else:
        joint = np.outer(rate[rows], b) / M
    dests = x + moves[rows]
    at_self = rows == group[-1]
    self_mass = float(joint[at_self, ell - lo].sum())
    joint[at_self, ell - lo] = 0.0
    i, j = np.nonzero(joint)
    pairs = list(zip(map(tuple, dests[i].tolist()), (lo + j).tolist()))
    return pairs, joint[i, j], M - self_mass, M


# awkward rates, whose sums show the order and grouping of their terms in
# the last bits, and a zero-change reaction, whose mass the self-loop joins
AWKWARD_DOC = dict(
    NETWORK_DOC,
    parameters={"b1": 1.1, "b2": 2.3, "alpha": 2.3, "beta": 1.7, "d1": 2.1,
                "d2": 2.9, "d3": 3.3},
    reactions=NETWORK_DOC["reactions"] + [
        {"change": [0, 0, 0], "propensity": [
            {"coeff": 0.7, "factors": [{"species": "X2"}]}]}])


@pytest.mark.parametrize("weights, direction", [((2, 1, 1), "upper"),
                                                ((2, 2, 5), "lower")])
def test_rows_match_the_dense_construction(weights, direction):
    network = network_from_dict(AWKWARD_DOC)
    part = ClassPartition(weights)
    chain = build_bounding_chain(network, part, direction, l_exact=70,
                                 l_total=400)
    sim = CoupledSimulator(network, part, chain)
    band = chain.band(chain.l_total)
    rng = np.random.default_rng(11)
    sign = 1 if direction == "upper" else -1
    ordered = 0
    for x, gap in zip(rng.integers(0, 30, size=(500, 3)).tolist(),
                      rng.integers(-20, 140, size=500).tolist()):
        # gaps up to 140 classes: past 128 entries numpy adds in halves
        ell = max(0, part.class_of(x) + sign * gap)
        row = sim.row(x, ell)
        pairs, rates, exit_rate, M = dense_row(sim, band, tuple(x), ell)
        assert row.pairs == pairs, (x, ell)
        assert np.array(row.rates).tobytes() == rates.tobytes(), (x, ell)
        assert (repr(row.exit_rate), repr(row.M)) == (repr(exit_rate),
                                                     repr(M))
        ordered += gap >= 0
    assert 300 < ordered < 480


def test_propensities_are_evaluated_once_per_state(network, part211,
                                                  upper211):
    # rows are cached per (state, level) pair and their network side per
    # state: criterion 5's 2,423 pairs cost one evaluation per reaction at
    # each distinct state, not one per row
    sim = CoupledSimulator(network, part211, upper211)
    calls = []

    def spy(add_to):
        def counted(total, x):
            calls.append(tuple(x))
            return add_to(total, x)
        return counted

    sim._add_to = [spy(add_to) for add_to in sim._add_to]
    visited = visited_pairs(network, part211, upper211, sim, range(10), 20.0)
    for x, ell in visited:
        sim.row(x, ell)
    states = {x for x, _ in visited}
    assert len(visited) == 2423
    assert len(network.reactions) == 6 and len(states) < 2423 // 4
    assert len(calls) == 6 * len(states)
    assert set(calls) == {tuple(map(float, x)) for x in states}


def test_row_counters(network, part211, upper211):
    sim = CoupledSimulator(network, part211, upper211)
    sim.row((3, 2, 1), 9)
    sim.row(np.array([3, 2, 1]), 9)
    sim.row((3, 2, 1), 10)
    assert sim.counters == {"rows_built": 2, "row_hits": 1}


def test_row_rejects_levels_off_the_band(network, part211, upper211):
    sim = CoupledSimulator(network, part211, upper211)
    for ell in (-1, upper211.l_total + 1):
        with pytest.raises(ValidationError):
            sim.row((0, 0, 0), ell)


def test_row_rejects_a_jump_out_of_the_orthant(part211, upper211):
    # X3 decays at rate 1 at X3 = 0 too; the row check names the first
    # reaction that would take a count below 0
    sim = CoupledSimulator(network_from_dict(LEAKY_NETWORK_DOC), part211,
                           upper211)
    with pytest.raises(ValidationError, match=re.escape(
            "reaction 5 leaves the orthant from (3, 2, 0)")):
        sim.row((3, 2, 0), 12)


def halved(chain, side):
    """``chain`` with the rates of its offsets k > 0 (side 1) or k < 0
    (side -1) halved."""
    def halve(tm):
        return replace(tm, intercepts=tuple(0.5 * v for v in tm.intercepts),
                       slope=0.5 * tm.slope, c2=0.5 * tm.c2, c3=0.5 * tm.c3)

    return BoundingChain(
        chain.direction, chain.j_max, chain.l_exact, chain.l_total,
        {k: 0.5 * v if k * side > 0 else v for k, v in chain.exact.items()},
        {k: halve(tm) if k * side > 0 else tm
         for k, tm in chain.tails.items()},
        weights=chain.weights)


def test_undominated_chain_raises_transport_error(network, part211,
                                                  upper211):
    # with its up-rates halved the chain no longer bounds the network, and
    # the first row that needs the missing up-mass must refuse to couple
    chain = halved(upper211, 1)
    with pytest.raises(TransportError) as err:
        coupled_ssa(network, part211, chain, (15, 5, 5), 40, 20.0, seed=0)
    k = err.value.index
    assert isinstance(k, int) and 0 <= k <= upper211.l_total
    assert f"class {k}" in str(err.value)


def test_undominated_lower_chain_raises_transport_error(network, part225,
                                                        lower225):
    # with its down-rates halved the lower chain no longer bounds the
    # network from below; lower rows take the walk with the two sides
    # swapped, so the failing index must still be re-mapped to a class
    chain = halved(lower225, -1)
    with pytest.raises(TransportError) as err:
        coupled_ssa(network, part225, chain, (3, 2, 1), 3, 3.0, seed=0)
    k = err.value.index
    assert isinstance(k, int) and 0 <= k <= lower225.l_total
    assert f"class {k}" in str(err.value)


@pytest.mark.parametrize("x, ell", [((3, 2, 1), 9), ((6, 6, 6), 12)],
                         ids=["ordered", "disordered"])
def test_a_row_that_breaks_its_marginals_raises(monkeypatch, network,
                                                part211, upper211, x, ell):
    # the runtime marginal check: under a negative tolerance every move
    # and every level of the row misses its marginal, and the error names
    # them all, the source state and level among them
    sim = CoupledSimulator(network, part211, upper211)
    net, cha = row_marginals(sim.row(x, ell))
    states = sorted(set(net) | {x})
    levels = sorted(set(cha) | {ell})
    monkeypatch.setattr(coupling, "MARGINAL_RTOL", -1.0)
    sim = CoupledSimulator(network, part211, upper211)
    with pytest.raises(ConsistencyError, match=re.escape(
            f"joint row at {(x, ell)} breaks its marginals at network "
            f"states {states} and chain levels {levels}")):
        sim.row(x, ell)
