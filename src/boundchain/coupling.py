"""Joint construction that runs the network and its 1-D bound in lockstep.

Each joint state (x, ell) gets a transition row built from two rate
vectors: the network's propensities at x, one row of
``ReactionNetwork.rates`` with a zero-change self-loop appended, and the
chain's rates at ell, one row of its band.  The self-loops make both sides
carry the same total mass M.  While the pair is ordered, the class masses
of the network row and the chain row are coupled by the north-west-corner
plan ``pi_bar`` (the comonotone coupling), and each class splits its plan
row among its destinations by rate share; the plan is triangular, so an
ordered pair stays ordered after every jump.  A disordered pair moves by
the product coupling until order is restored.  Every built row is checked
against both marginals.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import mul

import numpy as np

from .chain import BoundingChain
from .errors import ConsistencyError, ValidationError
from .network import (ClassPartition, ReactionNetwork, check_propensities,
                      class_of)
from .simulate import check_t_final, make_rng
from .transport import TransportError, pi_bar

ROW_CACHE = 100_000
MARGINAL_RTOL = 1e-10


@dataclass
class CouplingRow:
    source: tuple
    pairs: list  # [(state tuple, chain level), ...]
    rates: np.ndarray
    exit_rate: float
    M: float
    cum: np.ndarray | None = None

    def sample(self, u: float):
        """Destination for u uniform on [0, exit_rate)."""
        if self.cum is None:
            self.cum = np.cumsum(self.rates)
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
        self._nu = network.change_matrix().reshape(-1, network.d)
        # one destination per distinct change vector, the self-loop's zero
        # vector included, sorted so a row's pairs come out in sorted order
        moves, first, group = np.unique(
            np.vstack([self._nu, np.zeros((1, network.d), dtype=np.int64)]),
            axis=0, return_index=True, return_inverse=True)
        self._moves = moves
        self._group = group.reshape(-1)
        self._self = int(self._group[-1])
        # class masses add up in reaction order, the self-loop last
        self._by_reaction = np.argsort(first)
        self._shift = moves @ np.asarray(partition.weights, dtype=np.int64)
        self._band = chain.band(chain.l_total)
        # exit rate per level, added one offset at a time in offset order
        # (np.sum would group the terms differently)
        self._exit = np.cumsum(self._band, axis=1)[:, -1]
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
        x = np.asarray(state, dtype=np.int64)
        c = class_of(x, self.partition)
        if not 0 <= ell <= self.chain.l_total:
            raise ValidationError(
                f"level {ell} outside the chain's range [0, {self.chain.l_total}]")
        source = (state, ell)
        # network side: propensities at x, then the self-loop at mass q_y
        R = self.network.rates(x[None])
        check_propensities(R, x[None])
        flow = np.append(R[0], 0.0)
        leaves = (flow[:-1] > 0) & (x + self._nu < 0).any(axis=1)
        if leaves.any():
            raise ValidationError(
                f"reaction {int(np.flatnonzero(leaves)[0])} leaves the orthant "
                f"from {state}")
        q_x = float(np.cumsum(flow)[-1])  # one reaction at a time, in order
        q_y = float(self._exit[ell])
        M = q_x + q_y
        if M <= 0.0:
            return CouplingRow(source=source, pairs=[], rates=np.zeros(0),
                               exit_rate=0.0, M=0.0)
        flow[-1] = q_y
        rate = np.bincount(self._group, weights=flow,
                           minlength=len(self._moves))
        cls = c + self._shift
        live = rate > 0
        # chain side: the band row at ell, then the self-loop at mass q_x
        J = self.chain.j_max
        ks = np.flatnonzero(self._band[ell]) - J
        lo = min(int(cls[live].min()), ell + int(ks.min(initial=0)))
        hi = max(int(cls[live].max()), ell + int(ks.max(initial=0)))
        b = np.zeros(hi - lo + 1)
        b[ell + ks - lo] = self._band[ell, ks + J]
        b[ell - lo] = q_x
        rows = np.flatnonzero(live)
        if (c <= ell) if self.upper else (c >= ell):
            order = self._by_reaction[live[self._by_reaction]]
            a = np.bincount(cls[order] - lo, weights=rate[order],
                            minlength=len(b))
            try:
                plan = pi_bar(a, b) if self.upper else pi_bar(b, a).T
            except TransportError as exc:
                if exc.index is None:
                    raise
                raise TransportError(
                    f"no order-preserving coupling at {source}, class "
                    f"{lo + exc.index}: {exc}", index=lo + exc.index) from exc
            at = cls[rows] - lo
            joint = (rate[rows] / a[at])[:, None] * plan[at]
        else:
            joint = np.outer(rate[rows], b) / M
        dests = x + self._moves[rows]
        tol = MARGINAL_RTOL * max(1.0, M)
        net_bad = np.abs(joint.sum(axis=1) - rate[rows]) > tol
        chain_bad = np.abs(joint.sum(axis=0) - b) > tol
        if net_bad.any() or chain_bad.any():
            raise ConsistencyError(
                f"joint row at {source} breaks its marginals at network "
                f"states {list(map(tuple, dests[net_bad].tolist()))} and "
                f"chain levels {(lo + np.flatnonzero(chain_bad)).tolist()}")
        # the source pair is the diagonal self-loop, not a jump
        at_self = rows == self._self
        self_mass = float(joint[at_self, ell - lo].sum())
        joint[at_self, ell - lo] = 0.0
        i, j = np.nonzero(joint)
        pairs = list(zip(map(tuple, dests[i].tolist()), (lo + j).tolist()))
        return CouplingRow(source=source, pairs=pairs, rates=joint[i, j],
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
