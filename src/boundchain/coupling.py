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

A row is built in one pass on Python floats over the supports of the two
sides: at most a handful of classes and 2*j_max + 1 levels, however far
apart the class and the level are.  The network side (propensities, q_x,
the class masses that hold no self-loop, and the destination and rate
share of each move) is computed once per state and the band row's nonzero
offsets once per level, and both are cached, as the rows are per (state,
level) pair; a row adds only its level's exit rate q_y to the self-loop
and to that loop's class.  The moves are grouped by the class shift they
make once per simulator, so the class masses come out in class order
without sorting.  The walk behind ``pi_bar``
hands back the plan's rows, which the moves read directly; the plan's two
totals are taken in numpy's pairwise order on Python floats, and every
other sum in the order the dense array computation used, so the rows are
bit-identical to it.  A row keeps the running sums of its rates, which
sampling bisects.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import accumulate
from math import inf
from operator import add, mul

import numpy as np

from .chain import BoundingChain
from .errors import ConsistencyError, ValidationError
from .network import (ClassPartition, ReactionNetwork, _check_dims,
                      check_propensities)
from .simulate import check_t_final, make_rng
from .transport import TransportError, _pairwise_sum, _walk

ROW_CACHE = 100_000
JUMP_CAP = 10_000_000  # jumps of one coupled path, which then ends as "cap"
PATH_CAP = 1_000  # paths of one `bounds couple` run, all held until written
MARGINAL_RTOL = 1e-10


@dataclass(slots=True)
class CouplingRow:
    source: tuple
    pairs: list  # [(state tuple, chain level), ...]
    rates: list
    exit_rate: float
    M: float
    cum: list  # running sums of rates, in order

    def sample(self, u: float):
        """Destination for u uniform on [0, exit_rate)."""
        return self.pairs[min(bisect_right(self.cum, u), len(self.pairs) - 1)]


class CoupledSimulator:
    """Builds and caches joint rows for (network, chain) pairs."""

    def __init__(self, network: ReactionNetwork, partition: ClassPartition,
                 chain: BoundingChain):
        chain.check_partition(partition)
        _check_dims(network, partition)
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
        self._shift = (moves @ np.asarray(partition.weights,
                                          dtype=np.int64)).tolist()
        # the moves grouped by class shift, in shift order: a class's mass
        # adds its moves' rates in reaction order, the self-loop last; the
        # self-loop's class (shift 0) is split at the self-loop, whose rate
        # depends on the level
        by_shift = {}
        for g in np.argsort(first).tolist():
            by_shift.setdefault(self._shift[g], []).append(g)
        own = by_shift.pop(0)
        i = own.index(self._self)
        self._head, self._tail = own[:i], own[i + 1:]
        self._classes = sorted(by_shift.items())
        self._add_to = [r.propensity._add_to for r in network.reactions]
        band = chain.band(chain.l_total)
        # exit rate per level, added one offset at a time in offset order
        # (np.sum would group the terms differently)
        self._exit = np.cumsum(band, axis=1)[:, -1].tolist()
        self._band = band
        # the caches reach the simulator through a weak proxy: a bound
        # method would close a reference cycle that keeps every cached row
        # alive after the simulator is dropped, until the cyclic GC runs;
        # the rows are cached per (state, level), their network side per
        # state and their chain side per level
        proxy = weakref.proxy(self)
        self._row = lru_cache(maxsize=ROW_CACHE)(
            partial(CoupledSimulator._build_row, proxy))
        self._state = lru_cache(maxsize=ROW_CACHE)(
            partial(CoupledSimulator._network_side, proxy))
        self._level = lru_cache(maxsize=ROW_CACHE)(
            partial(CoupledSimulator._chain_side, proxy))

    def row(self, x, ell: int) -> CouplingRow:
        """Joint row at (x, ell); the ROW_CACHE most recently used are kept."""
        return self._row(tuple(int(v) for v in x), int(ell))

    @property
    def counters(self) -> dict:
        """Rows built and rows served from the per-pair cache."""
        info = self._row.cache_info()
        return {"rows_built": info.misses, "row_hits": info.hits}

    def _network_side(self, state: tuple):
        """What every row at ``state`` shares, whatever its level.

        That is the class c, the total propensity q_x and the class masses
        that hold no self-loop; the self-loop's class adds its members
        before the self-loop (``head``), the self-loop's own rate (the
        zero-change reactions; a row adds its chain side's exit rate q_y to
        it) and the members after it (``tail``).  Each live move comes with
        its destination, its class and its rate share of that class, or
        None where the share waits for q_y; the self-loop comes with rate
        None.
        """
        x = [float(v) for v in state]
        flow = [add_to(0.0, x) for add_to in self._add_to]
        if self.network._faces or not all(0.0 <= f < inf for f in flow):
            check_propensities(self.network, np.array([flow]), [state])
        q_x = 0.0
        for f in flow:  # one reaction at a time, in order
            q_x += f
        rate = [0.0] * len(self._moves)
        for g, f in zip(self._group, flow):
            rate[g] += f
        c = sum(map(mul, self.partition.weights, state))
        # each class's mass in class order (every rate is >= 0, so the
        # zero rates of idle moves add nothing)
        below, above = [], []
        mass = {}
        for shift, members in self._classes:
            m = 0.0
            for g in members:
                m += rate[g]
            mass[shift] = m
            if m > 0.0:
                (below if shift < 0 else above).append((c + shift, m))
        head = 0.0
        for g in self._head:
            head += rate[g]
        moves = []
        for g, (r_g, shift, move) in enumerate(zip(rate, self._shift,
                                                   self._moves)):
            if g == self._self:
                r_g = share = None
            elif not r_g > 0.0:
                continue
            else:
                share = r_g / mass[shift] if shift else None
            moves.append((tuple(map(add, state, move)), c + shift, r_g,
                          share))
        return (c, q_x, below, above, head, rate[self._self],
                [rate[g] for g in self._tail], tuple(moves))

    def _chain_side(self, ell: int):
        """Band row at ``ell`` as (level, rate) pairs below and above it."""
        J = self.chain.j_max
        band = self._band[ell].tolist()
        return ([(ell - J + k, r) for k, r in enumerate(band[:J]) if r != 0.0],
                [(ell + k, r) for k, r in enumerate(band[J + 1:], 1)
                 if r != 0.0])

    def _build_row(self, state: tuple, ell: int) -> CouplingRow:
        if len(state) != len(self.partition.weights) or min(state) < 0:
            self.partition.class_of(state)  # raises, naming the fault
        _check_level(self.chain, ell)
        source = (state, ell)
        c, q_x, below, above, head, own, tail, moves = self._state(state)
        q_y = self._exit[ell]
        M = q_x + q_y
        if M <= 0.0:
            return CouplingRow(source, [], [], 0.0, 0.0, [])
        # network side: the self-loop at mass q_y more, its class's mass
        # added in class order, the self-loop at its place
        r_self = own + q_y
        m_self = head + r_self
        for r in tail:
            m_self += r
        a = below + [(c, m_self)] + above if m_self > 0.0 else below + above
        # chain side: the band row at ell, the self-loop at mass q_x in its
        # k = 0 slot; both sides index the classes lo..hi from 0
        down, up = self._level(ell)
        levels = down + [(ell, q_x)] + up if q_x != 0.0 else down + up
        lo = min(a[0][0], levels[0][0], ell)
        hi = max(a[-1][0], levels[-1][0], ell)
        b = [(m - lo, r) for m, r in levels]
        upper = self.upper
        ordered = (c <= ell) if upper else (c >= ell)
        if ordered:
            a = [(k - lo, m) for k, m in a]
            width = hi - lo + 1
            total_a = _pairwise_sum(a, width)
            total_b = _pairwise_sum(b, width)
            try:
                if upper:
                    plan = _walk(a, b, total_a, total_b, width)
                else:
                    # the lower plan is Pi-bar[b, a] transposed
                    plan = {k: [] for k, _ in a}
                    for j, row in _walk(b, a, total_b, total_a,
                                        width).items():
                        for k, v in row:
                            plan[k].append((j, v))
            except TransportError as exc:
                if exc.index is None:
                    raise
                raise TransportError(
                    f"no order-preserving coupling at {source}, class "
                    f"{lo + exc.index}: {exc}", index=lo + exc.index) from exc
        # one pass over each move's joint entries (its rate share of its
        # class's plan row, or the product coupling's row) checks both
        # marginals and collects the pairs; the source pair is the
        # diagonal self-loop, not a jump
        tol = MARGINAL_RTOL * max(1.0, M)
        net_bad = []
        col = {j: 0.0 for j, _ in b}
        pairs = []
        rates = []
        self_mass = 0.0
        diag = ell - lo
        for dest, k, r_g, share in moves:
            own_move = r_g is None
            if own_move:
                r_g = r_self
                if not r_g > 0.0:
                    continue
            total = 0.0
            if ordered:
                if share is None:
                    share = r_g / m_self
                row = plan[k - lo]
            else:
                row = b
            for j, v in row:
                v = share * v if ordered else r_g * v / M
                total += v
                col[j] += v
                if j == diag and own_move:
                    self_mass = v
                elif v != 0.0:
                    pairs.append((dest, lo + j))
                    rates.append(v)
            if abs(total - r_g) > tol:
                net_bad.append(dest)
        chain_bad = [lo + j for j, r in b if abs(col[j] - r) > tol]
        if net_bad or chain_bad:
            raise ConsistencyError(
                f"joint row at {source} breaks its marginals at network "
                f"states {net_bad} and chain levels {chain_bad}")
        return CouplingRow(source, pairs, rates, M - self_mass, M,
                           list(accumulate(rates)))


def _check_level(chain: BoundingChain, ell: int) -> None:
    if not 0 <= ell <= chain.l_total:
        raise ValidationError(
            f"level {ell} outside the chain's range [0, {chain.l_total}]")


@dataclass
class CoupledTrajectory:
    seed: int
    times: np.ndarray
    states: np.ndarray  # (n, d) network path
    levels: np.ndarray  # (n,) chain path
    reason: str  # horizon | absorbed | band | cap

    def __len__(self) -> int:
        return len(self.times)


def coupled_ssa(network: ReactionNetwork, partition: ClassPartition,
                chain: BoundingChain, x0, y0: int, t_final: float,
                seed: int = 0,
                simulator: CoupledSimulator | None = None) -> CoupledTrajectory:
    """Simulate the joint process from an ordered start up to t_final.

    The order between the class label and the chain level is re-checked
    after every jump; a violation is a construction bug and raises.  If the
    chain level runs past the band where the chain is defined the path is
    cut short with reason "band", and one still running after JUMP_CAP
    jumps with reason "cap".  A given ``simulator`` must have been built
    for this network, partition and chain.
    """
    check_t_final(t_final)
    sim = simulator or CoupledSimulator(network, partition, chain)
    if (sim.network is not network or sim.chain is not chain
            or sim.partition != partition):
        raise ValidationError(
            "the simulator was built for another network, partition or chain")
    rng = make_rng(seed)
    x = tuple(int(v) for v in x0)
    y = int(y0)
    _check_level(chain, y)
    c = partition.class_of(x)
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
    # looked up once: the last level whose band row lies inside the chain,
    # the row cache, the two draws and the three appends
    top = chain.l_total - chain.j_max
    upper = sim.upper
    row_at = sim._row
    exponential = rng.standard_exponential
    uniform = rng.random
    add_time, add_state, add_level = times.append, xs.append, ys.append
    for _ in range(JUMP_CAP):
        if y > top:
            reason = "band"
            break
        row = row_at(x, y)
        rate = row.exit_rate
        if rate <= 0.0:
            reason = "absorbed"
            break
        # the same draws and products as exponential(1 / rate) and
        # uniform(0, rate), at a third of their call cost; the row's
        # propensity check keeps the rate finite
        dt = exponential() * (1.0 / rate)
        if t + dt > t_final:
            reason = "horizon"
            break
        t += dt
        # CouplingRow.sample, inline
        pairs = row.pairs
        i = bisect_right(row.cum, uniform() * rate)
        x, y = pairs[i] if i < len(pairs) else pairs[-1]
        c = sum(map(mul, w, x))
        if (c > y) if upper else (c < y):
            raise ConsistencyError(
                f"order broke at t={t}: class {c} vs level {y} "
                f"(seed {seed})"
            )
        add_time(t)
        add_state(x)
        add_level(y)
    else:
        reason = "cap"
    return CoupledTrajectory(seed=seed, times=np.asarray(times),
                             states=np.asarray(xs, dtype=np.int64),
                             levels=np.asarray(ys), reason=reason)
