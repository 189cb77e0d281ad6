"""Joint construction that runs the network and its 1-D bound in lockstep.

Each joint state (x, ell) gets a transition row built from two rate
vectors: the network's propensities at x, one per reaction with a
zero-change self-loop appended, and the chain's rates at ell, one row of
its band.  The self-loops make both sides carry the same total mass M.
While the pair is ordered, the class masses of the network row and the
chain row are coupled by the north-west-corner plan (the comonotone
coupling), and each class splits its plan row among its destinations by
rate share; the plan is triangular, so an ordered pair stays ordered after
every jump.  A disordered pair moves by the product coupling until order is
restored.  Every built row is checked against both marginals.

A row is built on Python floats over the supports of the two sides: at
most a handful of classes and 2*j_max + 1 levels, however far apart the
class and the level are.  The plan's nonzero entries come from the walk
behind ``pi_bar``, and every sum is taken in the order the dense array
computation used, so the rows are bit-identical to it.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from operator import add, mul

import numpy as np

from .chain import BoundingChain
from .errors import ConsistencyError, ValidationError
from .network import (ClassPartition, ReactionNetwork, check_propensities,
                      class_of)
from .simulate import check_t_final, make_rng
from .transport import TransportError, _walk

ROW_CACHE = 100_000
MARGINAL_RTOL = 1e-10


def _total(entries, width: int) -> float:
    """numpy's sum of the ``width``-long row with these (index, mass) entries."""
    row = np.zeros(width)
    for k, m in entries:
        row[k] = m
    return float(row.sum())


@dataclass
class CouplingRow:
    source: tuple
    pairs: list  # [(state tuple, chain level), ...]
    rates: np.ndarray
    exit_rate: float
    M: float
    cum: list | None = None  # running sums of rates, in order

    def sample(self, u: float):
        """Destination for u uniform on [0, exit_rate)."""
        if self.cum is None:
            self.cum = list(accumulate(self.rates.tolist()))
        return self.pairs[min(bisect_right(self.cum, u), len(self.pairs) - 1)]


class CoupledSimulator:
    """Builds and caches joint rows for (network, chain) pairs."""

    def __init__(self, network: ReactionNetwork, partition: ClassPartition,
                 chain: BoundingChain):
        if tuple(chain.weights or ()) not in ((), tuple(partition.weights)):
            raise ValidationError("chain weights do not match the partition")
        self.network = network
        self.partition = partition
        self.chain = chain
        self.upper = chain.direction == "upper"
        nu = network.change_matrix().reshape(-1, network.d)
        # one destination per distinct change vector, the self-loop's zero
        # vector included, sorted so a row's pairs come out in sorted order
        moves, first, group = np.unique(
            np.vstack([nu, np.zeros((1, network.d), dtype=np.int64)]),
            axis=0, return_index=True, return_inverse=True)
        self._moves = [tuple(m) for m in moves.tolist()]
        self._group = group.reshape(-1).tolist()
        self._self = self._group.pop()
        # class masses add up in reaction order, the self-loop last
        self._by_reaction = np.argsort(first).tolist()
        self._shift = (moves @ np.asarray(partition.weights,
                                          dtype=np.int64)).tolist()
        self._add_to = [r.propensity._add_to for r in network.reactions]
        # the counts each reaction takes: (species, count) where nu < 0
        self._takes = [[(i, -v) for i, v in enumerate(change) if v < 0]
                       for change in nu.tolist()]
        band = chain.band(chain.l_total)
        # exit rate per level, added one offset at a time in offset order
        # (np.sum would group the terms differently)
        self._exit = np.cumsum(band, axis=1)[:, -1].tolist()
        self._band = band.tolist()
        # the cache reaches the simulator through a weak proxy: a bound
        # method would close a reference cycle that keeps every cached row
        # alive after the simulator is dropped, until the cyclic GC runs
        self._row = lru_cache(maxsize=ROW_CACHE)(
            partial(CoupledSimulator._build_row, weakref.proxy(self)))

    def row(self, x, ell: int) -> CouplingRow:
        """Joint row at (x, ell); the ROW_CACHE most recently used are kept."""
        return self._row(tuple(int(v) for v in x), int(ell))

    @property
    def counters(self) -> dict:
        """Rows built and rows served from the per-pair cache."""
        info = self._row.cache_info()
        return {"rows_built": info.misses, "row_hits": info.hits}

    def _build_row(self, state: tuple, ell: int) -> CouplingRow:
        w = self.partition.weights
        if len(state) != len(w) or min(state) < 0:
            class_of(state, self.partition)  # raises, naming the fault
        c = sum(map(mul, w, state))
        if not 0 <= ell <= self.chain.l_total:
            raise ValidationError(
                f"level {ell} outside the chain's range [0, {self.chain.l_total}]")
        source = (state, ell)
        # network side: propensities at x, then the self-loop at mass q_y
        x = [float(v) for v in state]
        flow = [add_to(0.0, x) for add_to in self._add_to]
        if not all(f >= 0.0 for f in flow):
            check_propensities(np.array([flow]), [state])
        for r, (f, takes) in enumerate(zip(flow, self._takes)):
            if f > 0.0 and any(state[i] < n for i, n in takes):
                raise ValidationError(
                    f"reaction {r} leaves the orthant from {state}")
        q_x = 0.0
        for f in flow:  # one reaction at a time, in order
            q_x += f
        q_y = self._exit[ell]
        M = q_x + q_y
        if M <= 0.0:
            return CouplingRow(source=source, pairs=[], rates=np.zeros(0),
                               exit_rate=0.0, M=0.0)
        rate = [0.0] * len(self._moves)
        for g, f in zip(self._group, flow):
            rate[g] += f
        rate[self._self] += q_y
        live = [g for g, r in enumerate(rate) if r > 0.0]
        cls = {g: c + self._shift[g] for g in live}
        # chain side: the band row at ell, the self-loop at mass q_x in its
        # k = 0 slot; both sides index the classes lo..hi from 0
        J = self.chain.j_max
        band = list(self._band[ell])
        band[J] = q_x
        levels = [(ell - J + k, r) for k, r in enumerate(band) if r != 0.0]
        lo = min(min(cls.values()), levels[0][0], ell)
        hi = max(max(cls.values()), levels[-1][0], ell)
        b = [(m - lo, r) for m, r in levels]
        if (c <= ell) if self.upper else (c >= ell):
            a = {}
            for g in self._by_reaction:
                if g in cls:
                    a[cls[g] - lo] = a.get(cls[g] - lo, 0.0) + rate[g]
            a_sparse = sorted(a.items())
            width = hi - lo + 1
            total_a = _total(a_sparse, width)
            total_b = _total(b, width)
            try:
                entries = (
                    _walk(a_sparse, b, total_a, total_b, width) if self.upper
                    else [(k, j, v) for j, k, v in
                          _walk(b, a_sparse, total_b, total_a, width)])
            except TransportError as exc:
                if exc.index is None:
                    raise
                raise TransportError(
                    f"no order-preserving coupling at {source}, class "
                    f"{lo + exc.index}: {exc}", index=lo + exc.index) from exc
            plan = {}
            for k, j, v in entries:
                plan.setdefault(k, []).append((j, v))
            joint = []
            for g in live:
                share = rate[g] / a[cls[g] - lo]
                joint.append([(j, share * v)
                              for j, v in plan.get(cls[g] - lo, ())])
        else:
            joint = [[(j, rate[g] * r / M) for j, r in b] for g in live]
        dests = [tuple(map(add, state, self._moves[g])) for g in live]
        tol = MARGINAL_RTOL * max(1.0, M)
        net_bad = []
        col = {}
        for g, dest, entries in zip(live, dests, joint):
            total = 0.0
            for j, v in entries:
                total += v
                col[j] = col.get(j, 0.0) + v
            if abs(total - rate[g]) > tol:
                net_bad.append(dest)
        chain_bad = [lo + j for j, r in b if abs(col.get(j, 0.0) - r) > tol]
        if net_bad or chain_bad:
            raise ConsistencyError(
                f"joint row at {source} breaks its marginals at network "
                f"states {net_bad} and chain levels {chain_bad}")
        # the source pair is the diagonal self-loop, not a jump
        pairs = []
        rates = []
        self_mass = 0.0
        for g, dest, entries in zip(live, dests, joint):
            for j, v in entries:
                if g == self._self and j == ell - lo:
                    self_mass = v
                elif v != 0.0:
                    pairs.append((dest, lo + j))
                    rates.append(v)
        return CouplingRow(source=source, pairs=pairs,
                           rates=np.array(rates, dtype=float),
                           exit_rate=M - self_mass, M=M)

    def marginals(self, row: CouplingRow):
        """Reconstructed (network, chain) marginal rates of a joint row."""
        net: dict[tuple, float] = {}
        cha: dict[int, float] = {}
        for (dest, m), rate in zip(row.pairs, row.rates):
            net[dest] = net.get(dest, 0.0) + rate
            cha[m] = cha.get(m, 0.0) + rate
        return net, cha


def coupling_row(i, ell: int, network: ReactionNetwork,
                 partition: ClassPartition,
                 chain: BoundingChain) -> CouplingRow:
    """One joint transition row; convenience over a throwaway simulator."""
    return CoupledSimulator(network, partition, chain).row(i, ell)


@dataclass
class CoupledTrajectory:
    seed: int
    times: np.ndarray
    states: np.ndarray  # (n, d) network path
    levels: np.ndarray  # (n,) chain path
    reason: str  # horizon | absorbed | band | cap

    def __len__(self) -> int:
        return len(self.times)

    def ordered_throughout(self, partition: ClassPartition,
                           upper: bool = True) -> bool:
        cls = self.states @ np.asarray(partition.weights, dtype=np.int64)
        return bool((cls <= self.levels).all() if upper
                    else (cls >= self.levels).all())


def coupled_ssa(network: ReactionNetwork, partition: ClassPartition,
                chain: BoundingChain, x0, y0: int, t_final: float,
                seed: int = 0, jump_cap: int = 10_000_000,
                simulator: CoupledSimulator | None = None) -> CoupledTrajectory:
    """Simulate the joint process from an ordered start up to t_final.

    The order between the class label and the chain level is re-checked
    after every jump; a violation is a construction bug and raises.  If the
    chain level runs past the band where the chain is defined the path is
    cut short with reason "band".
    """
    check_t_final(t_final)
    sim = simulator or CoupledSimulator(network, partition, chain)
    rng = make_rng(seed)
    x = tuple(int(v) for v in x0)
    y = int(y0)
    c = class_of(x, partition)
    w = partition.weights
    if sim.upper and c > y:
        raise ValidationError(f"start is not ordered: class {c} > level {y}")
    if not sim.upper and c < y:
        raise ValidationError(f"start is not ordered: class {c} < level {y}")
    t = 0.0
    times = [0.0]
    xs = [x]
    ys = [y]
    reason = "horizon"
    for _ in range(jump_cap):
        if y > chain.l_total - chain.j_max:
            reason = "band"
            break
        row = sim._row(x, y)
        if row.exit_rate <= 0.0:
            reason = "absorbed"
            break
        dt = rng.exponential(1.0 / row.exit_rate)
        if t + dt > t_final:
            reason = "horizon"
            break
        t += dt
        x, y = row.sample(rng.uniform(0.0, row.exit_rate))
        c = sum(map(mul, w, x))
        if (sim.upper and c > y) or (not sim.upper and c < y):
            raise ConsistencyError(
                f"order broke at t={t}: class {c} vs level {y} "
                f"(seed {seed})"
            )
        times.append(t)
        xs.append(x)
        ys.append(y)
    else:
        reason = "cap"
    return CoupledTrajectory(seed=seed, times=np.asarray(times),
                             states=np.asarray(xs, dtype=np.int64),
                             levels=np.asarray(ys), reason=reason)
