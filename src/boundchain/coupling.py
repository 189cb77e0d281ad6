"""Joint construction that runs the network and its 1-D bound in lockstep.

Each joint state (x, ell) gets a transition row built from an optimal
transport plan between the class-aggregated network row and the chain row,
both padded with a self-loop so they carry the same total mass.  The plan
is triangular, so an ordered pair stays ordered after every jump.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .chain import BoundingChain
from .errors import ConsistencyError, ValidationError
from .network import ClassPartition, ReactionNetwork, class_of
from .simulate import check_t_final, make_rng
from .transport import pi_bar

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
        i = int(np.searchsorted(self.cum, u, side="right"))
        return self.pairs[min(i, len(self.pairs) - 1)]


class CoupledSimulator:
    """Builds and caches joint rows for (network, chain) pairs."""

    def __init__(self, network: ReactionNetwork, partition: ClassPartition,
                 chain: BoundingChain, cache_size: int = ROW_CACHE):
        if tuple(chain.weights or ()) not in ((), tuple(partition.weights)):
            raise ValidationError("chain weights do not match the partition")
        self.network = network
        self.partition = partition
        self.chain = chain
        self.upper = chain.direction == "upper"
        self._cache: OrderedDict = OrderedDict()
        self._cache_size = cache_size

    def _network_moves(self, x: np.ndarray) -> dict:
        moves: dict[tuple, float] = {}
        for r in self.network.reactions:
            rate = r.propensity.evaluate(x)
            if rate < 0:
                raise ValidationError(
                    f"negative propensity at {tuple(int(v) for v in x)}"
                )
            if rate == 0.0:
                continue
            dest = x + r.change
            if (dest < 0).any():
                raise ValidationError(
                    f"reaction leaves the orthant from {tuple(int(v) for v in x)}"
                )
            key = tuple(int(v) for v in dest)
            moves[key] = moves.get(key, 0.0) + float(rate)
        return moves

    def row(self, x, ell: int) -> CouplingRow:
        key = (tuple(int(v) for v in x), int(ell))
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        row = self._build_row(np.asarray(x, dtype=np.int64), int(ell))
        self._cache[key] = row
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)
        return row

    def _build_row(self, x: np.ndarray, ell: int) -> CouplingRow:
        c = class_of(x, self.partition)
        source = (tuple(int(v) for v in x), ell)
        moves = self._network_moves(x)
        q_x = sum(moves.values())
        chain_row = self.chain.row(ell)
        chain_moves = {ell + k: rate for k, rate in chain_row.items()}
        q_y = sum(chain_moves.values())
        M = q_x + q_y
        if M <= 0.0:
            return CouplingRow(source=source, pairs=[],
                               rates=np.zeros(0), exit_rate=0.0, M=0.0)
        ordered = (c <= ell) if self.upper else (c >= ell)
        if ordered:
            joint = self._ordered_row(x, c, ell, moves, chain_moves, q_x, q_y, M)
        else:
            joint = self._product_row(x, c, ell, moves, chain_moves, q_x, q_y, M)
        self._verify_marginals(x, c, ell, moves, chain_moves, q_x, q_y, joint)
        self_mass = joint.pop(source, 0.0)
        pairs = sorted(joint)
        rates = np.array([joint[p] for p in pairs])
        return CouplingRow(source=source, pairs=pairs, rates=rates,
                           exit_rate=M - self_mass, M=M)

    def _ordered_row(self, x, c, ell, moves, chain_moves, q_x, q_y, M) -> dict:
        class_mass: dict[int, float] = {}
        by_class: dict[int, list] = {}
        for dest, rate in moves.items():
            k = class_of(np.asarray(dest), self.partition)
            class_mass[k] = class_mass.get(k, 0.0) + rate
            by_class.setdefault(k, []).append((dest, rate))
        # self-loops make both rows carry mass M
        class_mass[c] = class_mass.get(c, 0.0) + q_y
        by_class.setdefault(c, []).append((tuple(int(v) for v in x), q_y))
        b_moves = dict(chain_moves)
        b_moves[ell] = b_moves.get(ell, 0.0) + q_x
        lo = min(min(class_mass), min(b_moves))
        hi = max(max(class_mass), max(b_moves))
        a = np.zeros(hi - lo + 1)
        b = np.zeros(hi - lo + 1)
        for k, m in class_mass.items():
            a[k - lo] = m
        for k, m in b_moves.items():
            b[k - lo] = m
        if self.upper:
            plan = pi_bar(a, b)  # class index x chain index
        else:
            plan = pi_bar(b, a).T
        joint: dict[tuple, float] = {}
        for k, members in by_class.items():
            total = class_mass[k]
            row = plan[k - lo]
            targets = np.flatnonzero(row)
            for dest, rate in members:
                share = rate / total
                for m_idx in targets:
                    pair = (dest, int(m_idx + lo))
                    joint[pair] = joint.get(pair, 0.0) + share * row[m_idx]
        return joint

    def _product_row(self, x, c, ell, moves, chain_moves, q_x, q_y, M) -> dict:
        # disordered pairs evolve independently until order is restored
        net = dict(moves)
        net[tuple(int(v) for v in x)] = net.get(tuple(int(v) for v in x), 0.0) + q_y
        cha = dict(chain_moves)
        cha[ell] = cha.get(ell, 0.0) + q_x
        joint: dict[tuple, float] = {}
        for dest, r1 in net.items():
            for m, r2 in cha.items():
                joint[(dest, m)] = joint.get((dest, m), 0.0) + r1 * r2 / M
        return joint

    def _verify_marginals(self, x, c, ell, moves, chain_moves, q_x, q_y,
                          joint) -> None:
        self_key = tuple(int(v) for v in x)
        want_net = dict(moves)
        want_net[self_key] = want_net.get(self_key, 0.0) + q_y
        want_chain = dict(chain_moves)
        want_chain[ell] = want_chain.get(ell, 0.0) + q_x
        got_net: dict[tuple, float] = {}
        got_chain: dict[int, float] = {}
        for (dest, m), rate in joint.items():
            got_net[dest] = got_net.get(dest, 0.0) + rate
            got_chain[m] = got_chain.get(m, 0.0) + rate
        scale = max(1.0, q_x + q_y)
        for want, got, side in ((want_net, got_net, "network"),
                                (want_chain, got_chain, "chain")):
            keys = set(want) | set(got)
            for k in keys:
                a, b = want.get(k, 0.0), got.get(k, 0.0)
                if abs(a - b) > MARGINAL_RTOL * scale:
                    raise ConsistencyError(
                        f"joint row at ({tuple(int(v) for v in x)}, {ell}) "
                        f"breaks the {side} marginal at {k}: {b} != {a}"
                    )

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
    reason: str  # horizon | absorbed | band

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
    x = np.asarray(x0, dtype=np.int64).copy()
    y = int(y0)
    c = class_of(x, partition)
    if sim.upper and c > y:
        raise ValidationError(f"start is not ordered: class {c} > level {y}")
    if not sim.upper and c < y:
        raise ValidationError(f"start is not ordered: class {c} < level {y}")
    t = 0.0
    times = [0.0]
    xs = [x.copy()]
    ys = [y]
    reason = "horizon"
    for _ in range(jump_cap):
        if y > chain.l_total - chain.j_max:
            reason = "band"
            break
        row = sim.row(x, y)
        if row.exit_rate <= 0.0:
            reason = "absorbed"
            break
        dt = rng.exponential(1.0 / row.exit_rate)
        if t + dt > t_final:
            reason = "horizon"
            break
        t += dt
        dest, m = row.sample(rng.uniform(0.0, row.exit_rate))
        x = np.asarray(dest, dtype=np.int64)
        y = m
        c = class_of(x, partition)
        if (sim.upper and c > y) or (not sim.upper and c < y):
            raise ConsistencyError(
                f"order broke at t={t}: class {c} vs level {y} "
                f"(seed {seed})"
            )
        times.append(t)
        xs.append(x.copy())
        ys.append(y)
    else:
        reason = "cap"
    return CoupledTrajectory(seed=seed, times=np.asarray(times),
                             states=np.asarray(xs),
                             levels=np.asarray(ys), reason=reason)
