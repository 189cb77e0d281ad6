"""Build optimal 1-D bounding chains: f-tables, U-tables, the Phi bijection.

Pipeline: exact class enumeration gives the per-class extreme aggregates
(f-tables), running min/max over class ranges gives the optimal cumulative
tables (U-tables), and differencing (the inverse of Phi) turns those into a
banded transition-rate table.  Tails beyond the exact horizon are detected
from one stream of candidate models per offset, periodic-affine before
low-degree polynomial; the first that matches the exact values on a
trailing window is taken, and the requested degree is checked on that fit.
``verify_assumptions`` checks a chain against the same f-table pass.

The f-table pass reads ``network.class_rates`` with row ends asked for.
Where every rate is affine along the rows of a class (the head counts
fixed, the last two counts along an arithmetic progression) and the
floats are exact, that is where d >= 2, no term with a nonzero
coefficient has total exponent above 1 on the last two species, no
orthant face is on them, and
2^k * sum_terms |c| * prod_factors max(hi, e)^e < 2^53 with 2^-k the finest
power of two in a coefficient, the runs hold only each row's two end
states: every rate and row mass is then an exact multiple of 2^-k, affine
along the row, so its extremes over the row are at the ends and the table
is the full enumeration's, byte for byte.  Otherwise they hold every
state.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .chain import BoundingChain, TailModel
from .errors import (ConsistencyError, ResourceLimitError, StabilizationError,
                     ValidationError)
from .network import (ClassPartition, ReactionNetwork, _class_sizes,
                      class_rates, class_shift, enumerate_class, j_max)

RTOL = 1e-10


@dataclass
class FTable:
    """Per-class extreme prefix/tail aggregates.

    ``minus[j, ell]`` is the extreme over S_ell of the row mass into classes
    0..ell-j; ``plus[j, ell]`` the extreme of the mass into classes ell+j
    and beyond (j in [1, j_max]).  Upper direction takes min on the minus
    side and max on the plus side; lower direction swaps them.  Entries at
    empty classes, or where ell - j < 0, are NaN.
    """

    direction: str
    j_max: int
    l_max: int
    minus: np.ndarray
    plus: np.ndarray
    empty: np.ndarray


def _masks(network: ReactionNetwork, partition: ClassPartition, J: int):
    """Reactions in the prefix (shift <= -j) and tail (shift >= j) masses."""
    shifts = np.array([class_shift(r, partition) for r in network.reactions])
    j = np.arange(1, J + 1)[:, None]
    return shifts <= -j, shifts >= j


def _masses(rates: np.ndarray, masks) -> np.ndarray:
    """Row k: the rows of the (reactions, n) ``rates`` in ``masks[k]``,
    added in reaction order."""
    out = np.zeros((len(masks), rates.shape[1]))
    for row, mask in zip(out, masks):
        for i in np.flatnonzero(mask):
            row += rates[i]
    return out


def _class_extremes(network: ReactionNetwork, partition: ClassPartition,
                    direction: str, hi: int) -> FTable:
    """The f-table on classes [0, hi]: one pass over ``class_rates``'
    runs of classes, checked, with row ends asked for.

    Each run's prefix and tail masses are its masked rate rows added in
    reaction order, one (j_max, n) table per side; each class's extreme is
    a ``reduceat`` over the starts of the run's non-empty classes, on the
    row ends or on every state, whichever the run holds.
    """
    J = j_max(network, partition)
    upper = direction == "upper"
    below, above = _masks(network, partition, J)
    low, high = (np.minimum, np.maximum) if upper else (np.maximum, np.minimum)
    minus, plus = np.full((2, J + 1, hi + 1), np.nan)
    empty = np.zeros(hi + 1, dtype=bool)
    for lo, counts, X, rates in class_rates(network, partition, hi,
                                            ends=True):
        full = counts > 0
        empty[lo:lo + counts.size] = ~full
        if not full.any():
            continue
        ells = lo + np.flatnonzero(full)
        starts = (np.cumsum(counts) - counts)[full]
        minus[1:, ells] = low.reduceat(_masses(rates, below), starts, axis=1)
        plus[1:, ells] = high.reduceat(_masses(rates, above), starts, axis=1)
    # no prefix mass where ell - j < 0
    minus[np.arange(J + 1)[:, None] > np.arange(hi + 1)] = np.nan
    return FTable(direction, J, hi, minus, plus, empty)


def compute_f(network: ReactionNetwork, partition: ClassPartition,
              direction: str, l_exact: int) -> FTable:
    """Exact f-table on classes [0, l_exact], by full class enumeration,
    or from each row's two end states where rates are exact and affine
    along rows (the module docstring's conditions); both give the same
    bytes."""
    if direction not in ("upper", "lower"):
        raise ValidationError(f"direction must be upper or lower, got {direction!r}")
    J = j_max(network, partition)
    if l_exact < 2 * J + 2:
        raise ValidationError(f"l_exact must be at least 2*j_max+2 = {2 * J + 2}")
    return _class_extremes(network, partition, direction, l_exact)


@dataclass
class UTable:
    """Optimal cumulative tables, banded: ``minus[j, ell]`` = U(ell, ell-j),
    ``plus[j, ell]`` = U(ell, ell+j) for j in [1, j_max+1].  The j_max+1
    column is kept explicitly (it is zero for every constructible table) so
    rate differencing never indexes past the band."""

    direction: str
    j_max: int
    l_exact: int
    minus: np.ndarray
    plus: np.ndarray


def _shift(row: np.ndarray, step: int, edge: float) -> np.ndarray:
    """``row[ell + step]`` at every ell (step is +1 or -1), ``edge`` off the end."""
    out = np.roll(row, -step)
    out[-1 if step > 0 else 0] = edge
    return out


def optimal_U(f: FTable) -> UTable:
    """Running min/max aggregation of the f-table over class ranges.

    In band coordinates (j = |ell - m|) an aggregation range gains one class
    per offset along a band diagonal, so each table is a running extreme
    down its diagonals, one offset at a time.  Empty classes add nothing;
    a max over an empty range is zero.  Entries of the min-type tables whose
    whole aggregation range consists of empty classes are unconstrained;
    they get the smallest value compatible with both monotonicity
    requirements (max of the two already-forced neighbors one offset
    further out), which keeps the table inside the admissible set.
    """
    J = f.j_max
    L = f.l_max
    upper = f.direction == "upper"
    # a run of r empty classes empties ranges of up to r classes, and their
    # fill reads offset r + 1
    padded = np.concatenate(([False], f.empty, [False]))
    runs = np.diff(np.flatnonzero(padded[1:] != padded[:-1]))[::2]
    width = max(J + 1, int(runs.max(initial=0)) + 1)
    minus = np.full((width + 1, L + 1), np.nan)
    plus = np.full((width + 1, L + 1), np.nan)
    for table, part in ((minus, f.minus), (plus, f.plus)):
        table[1:J + 1] = part[1:]
        table[J + 1:, ~f.empty] = 0.0  # no row mass past the band
    # U(ell, m) = 0 for m < 0: no mass leaves below class 0
    minus[np.arange(width + 1)[:, None] > np.arange(L + 1)] = 0.0
    # each fold reads the previous offset one level down the diagonal in
    # the upper direction, one level up in the lower direction
    step = -1 if upper else 1
    min_side, max_side = (minus, plus) if upper else (plus, minus)
    # min-type: the range grows outward, offset j folds in offset j - 1
    for j in range(2, width + 1):
        min_side[j] = np.fmin(min_side[j], _shift(min_side[j - 1], step, np.nan))
    # the empty-range fill, from the outer band inward; past the top level
    # the upper fill has nothing to read
    for j in range(width - 1, 0, -1):
        gap = np.isnan(min_side[j])
        outer = _shift(min_side[j + 1], -step, np.nan if upper else 0.0)
        min_side[j, gap] = np.maximum(min_side[j + 1], outer)[gap]
    # max-type: the range grows inward from offset J + 1, which the upper
    # plus range [0, ell] always covers with zero mass past the band
    max_side[J + 1] = 0.0 if upper else np.nan
    for j in range(J, 0, -1):
        max_side[j] = np.fmax(max_side[j], _shift(max_side[j + 1], step, np.nan))
    max_side[np.isnan(max_side)] = 0.0
    # the last j_max rows of the f-table are lookahead: the lower-direction
    # ranges reach that far above ell, and the upper fill climbs past ell
    l_out = L - J
    minus = minus[:J + 2, :l_out + 1].copy()
    plus = plus[:J + 2, :l_out + 1].copy()
    minus[0] = plus[0] = 0.0
    if np.isnan(minus).any() or np.isnan(plus).any():
        raise ResourceLimitError(
            "empty-class fill needs f-values beyond the computed range; "
            "raise l_exact"
        )
    return UTable(f.direction, J, l_out, minus, plus)


def check_u_membership(U: UTable) -> list:
    """Violations of the admissibility conditions (monotonicity, boundary)."""
    J, L = U.j_max, U.l_exact
    scale = max(1.0, np.nanmax(np.abs(U.minus)), np.nanmax(np.abs(U.plus)))
    tol = RTOL * scale
    # nondecreasing in m on the minus side: U(ell, m-1) <= U(ell, m)
    down = ((U.minus[2:] > U.minus[1:-1] + tol)
            & (np.arange(1, J + 1)[:, None] <= np.arange(L + 1)))
    # nonincreasing in m on the plus side
    up = U.plus[2:] > U.plus[1:-1] + tol
    sign = (U.minus.min(axis=0) < -tol) | (U.plus.min(axis=0) < -tol)
    edge = np.abs(U.plus[J + 1]) > tol
    bad = []
    rows = down.any(axis=0) | up.any(axis=0) | sign | edge
    for ell in np.flatnonzero(rows).tolist():
        for j in range(1, J + 1):
            if down[j - 1, ell]:
                bad.append(("minus", ell, ell - j,
                            f"U({ell},{ell - j - 1}) > U({ell},{ell - j})"))
            if up[j - 1, ell]:
                bad.append(("plus", ell, ell + j,
                            f"U({ell},{ell + j + 1}) > U({ell},{ell + j})"))
        if sign[ell]:
            bad.append(("sign", ell, None, f"negative U entry in row {ell}"))
        if edge[ell]:
            bad.append(("plus", ell, ell + J + 1,
                        "U beyond the band does not vanish"))
    return bad


def phi_inverse(U: UTable, weights) -> BoundingChain:
    """Difference the cumulative tables into a banded rate table."""
    bad = check_u_membership(U)
    if bad:
        lines = "; ".join(b[3] for b in bad[:5])
        raise ValidationError(
            f"U-table violates admissibility in {len(bad)} entries: {lines}"
        )
    J, L = U.j_max, U.l_exact
    exact = {}
    for j in range(1, J + 1):
        down = U.minus[j] - U.minus[j + 1]
        up = U.plus[j] - U.plus[j + 1]
        if np.any(down != 0.0):
            exact[-j] = down
        if np.any(up != 0.0):
            exact[j] = up
    return BoundingChain(U.direction, J, L, L, exact, {}, weights)


def _cumulative(chain: BoundingChain, hi: int, J: int):
    """Row masses of a chain on levels 0..hi: ``minus[j, ell]`` into classes
    <= ell - j and ``plus[j, ell]`` into classes >= ell + j, for j in
    [0, J + 1] with J >= chain.j_max.  Each is summed from the band edge
    inward."""
    K = chain.j_max
    rates = chain.band(hi)
    minus = np.zeros((J + 2, hi + 1))
    plus = np.zeros((J + 2, hi + 1))
    minus[K:0:-1] = np.cumsum(rates[:, :K], axis=1).T
    plus[K:0:-1] = np.cumsum(rates[:, :K:-1], axis=1).T
    return minus, plus


# -- tail detection ---------------------------------------------------------


def _misfit(values: np.ndarray, start: int, model: TailModel) -> np.ndarray:
    """Where the model misses ``values``, the rates on levels start, start+1, ..."""
    pred = model(np.arange(start, start + len(values)))
    return ~(np.abs(pred - values) <= RTOL * np.maximum(1.0, np.abs(values)))


def _candidates(values: np.ndarray, start: int, offset: int,
                periods: list[int]):
    """(fit degree, model) for the window on levels start, start+1, ...,
    simplest first: periodic-affine (degree 1), then the polynomial fits."""
    n = len(values)
    ells = np.arange(start, start + n)
    for p in periods:
        if 2 * p > n - 1:
            continue  # need at least three points per residue
        slope = float(np.mean((values[p:] - values[:-p]) / p))
        # a flat tail first: on constant rates the mean difference can be
        # rounding noise, and a noise slope turns exact zeros negative
        for s in (0.0, slope) if slope else (0.0,):
            # each residue's intercept from its last level in the window
            beta = (values[-p:] - s * ells[-p:])[np.argsort(ells[-p:] % p)]
            yield 1, TailModel(offset=offset, onset=start, period=p,
                               intercepts=tuple(beta.tolist()), slope=s)
    for deg in (2, 3):
        c = np.zeros(4)
        c[:deg + 1] = np.polyfit(ells, values, deg)[::-1]
        yield deg, TailModel(offset=offset, onset=start, period=1,
                             intercepts=(float(c[0]),), slope=float(c[1]),
                             c2=float(c[2]), c3=float(c[3]))


def _window_start(J: int, l_exact: int) -> int:
    """First level of the trailing tail window, 4*j_max+4 levels wide."""
    width = 4 * J + 4
    if l_exact < width:
        raise ValidationError(
            f"l_exact must be at least 4*j_max+4 = {width} for the tail window")
    return l_exact - width


def _check_degree(name: str, degree: int) -> None:
    if degree not in (1, 2, 3):
        raise ValidationError(f"{name} must be 1, 2 or 3, got {degree!r}")


def detect_tails(chain: BoundingChain, partition: ClassPartition,
                 degree_max: int = 1) -> dict[int, TailModel]:
    """Fit one tail model per offset on the trailing exact window.

    One stream of candidates per offset, simplest first: periodic-affine
    over the divisors of lcm(weights) in ascending order, then degree 2 and
    3 polynomials at period 1.  The first that reproduces the exact rates on
    the whole window is taken and the requested degree checked on it; no
    match is a stabilization error.  The onset is pushed down as far as the
    model keeps matching.
    """
    _check_degree("degree_max", degree_max)
    J, L = chain.j_max, chain.l_exact
    start = _window_start(J, L)
    chain.check_partition(partition)
    lcm = math.lcm(*chain.weights)
    periods = [p for p in range(1, lcm + 1) if lcm % p == 0]
    rates = chain.band(L)
    tails = {}
    for k in sorted(chain.exact):
        values = rates[start:, J + k]
        if np.all(values == 0.0):
            continue
        for degree, model in _candidates(values, start, k, periods):
            if not _misfit(values, start, model).any():
                break
        else:
            raise StabilizationError(
                f"offset {k}: exact rates on [{start}, {L}] fit no "
                f"periodic-affine or degree<=3 model"
            )
        if degree > degree_max:  # periodic-affine always passes
            raise StabilizationError(
                f"offset {k}: tail is polynomial of degree {degree}, but "
                f"degree {degree_max} was requested"
            )
        # the model holds down to the true onset: one past the last miss
        # below the window
        miss = np.flatnonzero(_misfit(rates[:start, J + k], 0, model))
        tails[k] = replace(model, onset=int(miss[-1]) + 1 if miss.size else 0)
    return tails


def _check_coprime(partition: ClassPartition) -> None:
    """Weights with a common factor g leave every class off the multiples
    of g empty, which no tail model fits; the weights divided by g group
    the states the same way, their level l standing for class g l."""
    g = math.gcd(*partition.weights)
    if g > 1:
        w = partition.weights
        raise ValidationError(f"weights {w} share the factor {g}; use "
                              f"{tuple(v // g for v in w)}")


def build_bounding_chain(network: ReactionNetwork, partition: ClassPartition,
                         direction: str, l_exact: int = 300,
                         l_total: int | None = None,
                         tail_degree: int = 1) -> BoundingChain:
    """compute_f -> optimal_U -> phi_inverse, plus validated tail models."""
    if l_total is None:
        l_total = l_exact
    if l_total < l_exact:
        raise ValidationError("l_total must be at least l_exact")
    _check_degree("tail_degree", tail_degree)
    J = j_max(network, partition)
    _check_coprime(partition)
    _window_start(J, l_exact)
    # the lower-direction ranges look up to j_max classes above ell, so the
    # f-table is computed past the requested horizon for both directions
    f = compute_f(network, partition, direction, l_exact + J)
    U = optimal_U(f)
    skeleton = phi_inverse(U, partition.weights)
    if skeleton.l_exact < l_exact:
        raise ConsistencyError("built table is shorter than requested")
    tails = detect_tails(skeleton, partition, degree_max=tail_degree)
    return BoundingChain(direction, J, skeleton.l_exact, l_total,
                         skeleton.exact, tails, partition.weights)


def build_counters(chain: BoundingChain) -> dict:
    """The work behind a ``build_bounding_chain`` result, for a manifest:
    the classes its f-table pass covered, 0..l_exact + j_max, the number
    of lattice states in them (what the class cap counts, not the number
    evaluated, which the row-end path makes smaller), and each offset's
    tail period and onset."""
    classes = chain.l_exact + chain.j_max + 1
    return {"classes": classes,
            "states": sum(itertools.islice(_class_sizes(chain.weights),
                                           classes)),
            "tails": {str(k): {"period": m.period, "onset": m.onset}
                      for k, m in sorted(chain.tails.items())}}


# -- assumption verification -------------------------------------------------


@dataclass
class AssumptionReport:
    ok: bool
    direction: str
    l_check: int
    counterexample: dict | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def verify_assumptions(network: ReactionNetwork, partition: ClassPartition,
                       candidate: BoundingChain,
                       l_check: int) -> AssumptionReport:
    """Check the domination and monotonicity assumptions on [0, l_check].

    Domination reads the f-table the builder writes, from the same class
    pass: in the upper direction every row prefix of the candidate is at
    most the smallest same-class prefix of the network, and tails dominate
    the largest network tails; lower direction flips both.  A failure there
    names a state attaining the network extreme.  Monotonicity in the
    class index is the same condition for both directions: deeper rows push
    no more mass downward (prefixes nonincreasing in ell on m < ell, checked
    via tail sums on m > ell so the diagonal never enters).  Outside the
    band both sides are constant and the checks hold vacuously.
    """
    direction = candidate.direction
    upper = direction == "upper"
    if l_check < 0:
        raise ValidationError(f"l_check must be nonnegative, got {l_check}")
    J = max(candidate.j_max, j_max(network, partition))
    _check_coprime(partition)
    candidate.check_partition(partition)
    if candidate.l_total < l_check + J:
        raise ValidationError(
            f"candidate must be defined on [0, {l_check + J}] for this window"
        )
    name1 = "A1" if upper else "B1"
    name2 = "A2" if upper else "B2"
    down, up = _cumulative(candidate, l_check + 1, J)
    f = _class_extremes(network, partition, direction, l_check)
    # four (j, ell) tables against references: the candidate's prefix and
    # tail masses against the f-table (domination; no network mass past its
    # band), then rows ell + 1 against rows ell (monotonicity; tails from
    # m + 1, so m = ell never enters).  NaN (empty class, m < 0) never fails;
    # past the f-table, prefixes into m < 0 are zero on both sides
    lhs = np.stack([down[1:-1, :-1], up[1:-1, :-1],
                    down[2:, 1:], up[1:-1, 1:]])
    ref = np.zeros((4, J, l_check + 1))
    ref[:2, :f.j_max] = f.minus[1:], f.plus[1:]
    ref[:2, :, f.empty] = np.nan
    ref[2:] = down[1:-1, :-1], up[2:, :-1]
    tol = RTOL * np.maximum(1.0, np.abs(ref))
    high = np.array([upper, not upper, True, False])[:, None, None]
    bad = np.where(high, lhs > ref + tol, lhs < ref - tol)
    # domination first; then class by class, prefixes j = 1..J before tails
    hits = np.argwhere(bad.reshape(2, 2, J, -1).transpose(0, 3, 1, 2))
    if not hits.size:
        return AssumptionReport(True, direction, l_check, None,
                                f"{name1} and {name2} hold on [0, {l_check}]")
    mono, ell, tail, i = hits[0].tolist()
    name = name2 if mono else name1
    m = ell + i + 1 if tail else ell - i - 1
    k = 2 * mono + tail
    detail = (f"{name} fails at (ell={ell}, m={m}): candidate "
              f"{float(lhs[k, i, ell])} vs network extreme "
              f"{float(ref[k, i, ell])}")
    state = None
    if not mono:
        # the witness: the first state of the class attaining the extreme
        X = enumerate_class(ell, partition)
        mass = _masses(network._rate_block(X.T),
                       _masks(network, partition, J)[tail][i:i + 1])[0]
        state = tuple(int(v) for v in X[np.argmin(mass) if upper != tail
                                        else np.argmax(mass)])
        detail += f" attained at state {state}"
    return AssumptionReport(False, direction, l_check,
                            {"kind": name, "ell": ell, "m": m, "state": state},
                            detail)


@dataclass
class OptimalityReport:
    ok: bool
    worst_margin: float
    worst_at: tuple | None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_optimality(candidate: BoundingChain, optimal: BoundingChain,
                     window: int) -> OptimalityReport:
    """Domination of row prefixes on [0, window]^2.

    Upper direction: every feasible candidate satisfies
    candidate_{ell,0:m} <= optimal_{ell,0:m}; lower direction reverses the
    inequality.  Returns the worst signed margin (positive = violation).
    """
    if window < 0:
        raise ValidationError(f"window must be nonnegative, got {window}")
    upper = optimal.direction == "upper"
    J = max(candidate.j_max, optimal.j_max)
    # one column per m in ell-J-1..ell+J: prefixes into 0..m below the
    # diagonal, then the prefix through it expressed with tail sums
    tables = []
    for chain in (candidate, optimal):
        minus, plus = _cumulative(chain, window, J)
        tables.append(np.vstack([minus[:0:-1], -plus[1:]]).T)
    c, o = tables
    margin = (c - o) if upper else (o - c)
    ms = np.arange(window + 1)[:, None] + np.arange(-J - 1, J + 1)
    margin[ms < 0] = -np.inf
    ell, col = np.unravel_index(int(np.argmax(margin)), margin.shape)
    worst = float(margin[ell, col])
    worst_at = (int(ell), int(ms[ell, col]))
    scale = max(1.0, abs(worst))
    ok = worst <= RTOL * scale
    return OptimalityReport(ok, worst, worst_at,
                            "dominated" if ok else
                            f"candidate exceeds the optimal bound at {worst_at}")
