"""Build optimal 1-D bounding chains: f-tables, U-tables, the Phi bijection.

Pipeline: exact class enumeration gives the per-class extreme aggregates
(f-tables), running min/max over class ranges gives the optimal cumulative
tables (U-tables), and differencing (the inverse of Phi) turns those into a
banded transition-rate table.  Tails beyond the exact horizon are detected
by fitting periodic-affine (or low-degree polynomial) models that must match
the exact values bit-for-bit on a trailing window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import BoundingChain, TailModel
from .errors import (ConsistencyError, ResourceLimitError, StabilizationError,
                     ValidationError)
from .network import (DEFAULT_CLASS_CAP, ClassPartition, ReactionNetwork,
                      class_rates, class_shift, j_max)

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

    def f_minus(self, ell: int, m: int) -> float:
        """f at (ell, m) for m < ell; zero beyond the band."""
        j = ell - m
        if j <= 0 or m < 0:
            raise ValidationError(f"f_minus needs 0 <= m < ell, got ({ell}, {m})")
        if j > self.j_max:
            return 0.0
        return float(self.minus[j, ell])

    def f_plus(self, ell: int, m: int) -> float:
        j = m - ell
        if j <= 0:
            raise ValidationError(f"f_plus needs m > ell, got ({ell}, {m})")
        if j > self.j_max:
            return 0.0
        return float(self.plus[j, ell])

    def is_empty(self, ell: int) -> bool:
        return bool(self.empty[ell])


def compute_f(network: ReactionNetwork, partition: ClassPartition,
              direction: str, l_exact: int,
              cap: int = DEFAULT_CLASS_CAP) -> FTable:
    """Exact f-table on classes [0, l_exact] by full class enumeration."""
    if direction not in ("upper", "lower"):
        raise ValidationError(f"direction must be upper or lower, got {direction!r}")
    J = j_max(network, partition)
    if l_exact < 2 * J + 2:
        raise ValidationError(f"l_exact must be at least 2*j_max+2 = {2 * J + 2}")
    shifts = np.array([class_shift(r, partition) for r in network.reactions])
    minus = np.full((J + 1, l_exact + 1), np.nan)
    plus = np.full((J + 1, l_exact + 1), np.nan)
    empty = np.zeros(l_exact + 1, dtype=bool)
    # column masks: reactions counted in the prefix 0..ell-j / tail ell+j..
    minus_masks = [shifts <= -j for j in range(1, J + 1)]
    plus_masks = [shifts >= j for j in range(1, J + 1)]
    for ell, X, rates in class_rates(network, partition, l_exact, cap=cap):
        if X.shape[0] == 0:
            empty[ell] = True
            continue
        for j in range(1, J + 1):
            if ell - j >= 0:
                pref = rates[:, minus_masks[j - 1]].sum(axis=1)
                minus[j, ell] = pref.min() if direction == "upper" else pref.max()
            tail = rates[:, plus_masks[j - 1]].sum(axis=1)
            plus[j, ell] = tail.max() if direction == "upper" else tail.min()
    return FTable(direction, J, l_exact, minus, plus, empty)


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


def optimal_U(f: FTable, direction: str | None = None) -> UTable:
    """Running min/max aggregation of the f-table over class ranges.

    Entries of the min-type tables whose whole aggregation range consists of
    empty classes are unconstrained; they get the smallest value compatible
    with both monotonicity requirements (max of the two already-forced
    neighbors), which keeps the table inside the admissible set.
    """
    direction = direction or f.direction
    if direction != f.direction:
        raise ValidationError("f-table direction does not match the requested one")
    J = f.j_max
    L = f.l_max
    upper = direction == "upper"

    memo_minus: dict = {}
    memo_plus: dict = {}

    def u_minus(ell: int, m: int) -> float:
        # U(ell, m) on m < ell
        if m < 0:
            return 0.0
        key = (ell, m)
        if key in memo_minus:
            return memo_minus[key]
        if upper:
            lo, hi = m + 1, ell
        else:
            lo, hi = ell, m + J
        if ell > L:
            raise ResourceLimitError(
                "empty-class fill needs f-values beyond the computed range; "
                "raise l_exact"
            )
        vals = [f.f_minus(lp, m) for lp in range(lo, min(hi, L) + 1)
                if not f.is_empty(lp)]
        if upper:
            if vals:
                out = min(vals)
            else:
                # unconstrained: smallest value keeping row and column monotone
                out = max(u_minus(ell, m - 1), u_minus(ell + 1, m))
        else:
            # max-type aggregation: empty classes contribute nothing, and the
            # sup over the out-of-band remainder is zero
            out = max(vals) if vals else 0.0
        memo_minus[key] = out
        return out

    def u_plus(ell: int, m: int) -> float:
        # U(ell, m) on m > ell
        key = (ell, m)
        if key in memo_plus:
            return memo_plus[key]
        if upper:
            lo, hi = 0, ell
        else:
            lo, hi = ell, m - 1
        if ell > L:
            raise ResourceLimitError(
                "empty-class fill needs f-values beyond the computed range; "
                "raise l_exact"
            )
        vals = [f.f_plus(lp, m) for lp in range(max(lo, 0), min(hi, L) + 1)
                if not f.is_empty(lp)]
        if upper:
            out = max(vals) if vals else 0.0
        else:
            if vals:
                out = min(vals)
            else:
                out = max(u_plus(ell, m + 1), u_plus(ell - 1, m) if ell > 0 else 0.0)
        memo_plus[key] = out
        return out

    # the last j_max rows of the f-table are lookahead: the lower-direction
    # ranges reach that far above ell, and the empty-class fill recursion can
    # climb past ell in either direction
    l_out = L - J
    minus = np.zeros((J + 2, l_out + 1))
    plus = np.zeros((J + 2, l_out + 1))
    for ell in range(l_out + 1):
        for j in range(1, J + 2):
            if ell - j >= 0:
                minus[j, ell] = u_minus(ell, ell - j)
            plus[j, ell] = u_plus(ell, ell + j)
    return UTable(direction, J, l_out, minus, plus)


def check_u_membership(U: UTable, rtol: float = RTOL) -> list:
    """Violations of the admissibility conditions (monotonicity, boundary)."""
    bad = []
    J, L = U.j_max, U.l_exact
    scale = max(1.0, np.nanmax(np.abs(U.minus)), np.nanmax(np.abs(U.plus)))
    tol = rtol * scale
    for ell in range(L + 1):
        for j in range(1, J + 1):
            # nondecreasing in m on the minus side: U(ell, m-1) <= U(ell, m)
            if ell - j >= 0 and U.minus[j + 1, ell] > U.minus[j, ell] + tol:
                bad.append(("minus", ell, ell - j,
                            f"U({ell},{ell - j - 1}) > U({ell},{ell - j})"))
            # nonincreasing in m on the plus side
            if U.plus[j + 1, ell] > U.plus[j, ell] + tol:
                bad.append(("plus", ell, ell + j,
                            f"U({ell},{ell + j + 1}) > U({ell},{ell + j})"))
        if U.minus[:, ell].min() < -tol or U.plus[:, ell].min() < -tol:
            bad.append(("sign", ell, None, f"negative U entry in row {ell}"))
        if abs(U.plus[J + 1, ell]) > tol:
            bad.append(("plus", ell, ell + J + 1,
                        "U beyond the band does not vanish"))
    return bad


def phi_inverse(U: UTable, weights=None) -> BoundingChain:
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
    return BoundingChain(U.direction, J, L, L, exact, tails={}, weights=weights)


def phi(chain: BoundingChain) -> UTable:
    """Cumulative row prefix/tail sums of a chain; inverse of ``phi_inverse``."""
    J, L = chain.j_max, chain.l_exact
    minus = np.zeros((J + 2, L + 1))
    plus = np.zeros((J + 2, L + 1))
    for j in range(J, 0, -1):
        down = np.array([chain.rate(ell, -j) for ell in range(L + 1)])
        up = np.array([chain.rate(ell, j) for ell in range(L + 1)])
        minus[j] = minus[j + 1] + down
        plus[j] = plus[j + 1] + up
    return UTable(chain.direction, J, L, minus, plus)


# -- tail detection ---------------------------------------------------------


def _divisors(n: int) -> list[int]:
    return [p for p in range(1, n + 1) if n % p == 0]


def _match(values: np.ndarray, start: int, model: TailModel,
           rtol: float = RTOL) -> bool:
    ells = np.arange(start, start + len(values))
    pred = model(ells)
    scale = np.maximum(1.0, np.abs(values))
    return bool(np.all(np.abs(pred - values) <= rtol * scale))


def _fit_window(values: np.ndarray, start: int, offset: int,
                periods: list[int], degree_max: int) -> TailModel | None:
    """First tail model (simplest first) matching every window value."""
    n = len(values)
    ells = np.arange(start, start + n)
    candidates: list[TailModel] = []
    for p in periods:
        if 2 * p > n - 1:
            continue  # need at least three points per residue
        diffs = (values[p:] - values[:-p]) / p
        slope = float(np.mean(diffs))
        intercepts = []
        for residue in range(p):
            idx = np.flatnonzero(ells % p == residue)
            beta = values[idx[-1]] - slope * ells[idx[-1]]
            intercepts.append(float(beta))
        candidates.append(TailModel(offset=offset, onset=start, period=p,
                                    intercepts=tuple(intercepts), slope=slope))
    for deg in (2, 3):
        if deg > degree_max or n < deg + 2:
            continue
        coeffs = np.polyfit(ells, values, deg)
        c = np.zeros(4)
        c[:deg + 1] = coeffs[::-1]
        candidates.append(TailModel(offset=offset, onset=start, period=1,
                                    intercepts=(float(c[0]),), slope=float(c[1]),
                                    c2=float(c[2]), c3=float(c[3])))
    for model in candidates:
        if _match(values, start, model):
            return model
    return None


def detect_tails(chain: BoundingChain, partition: ClassPartition | None = None,
                 degree_max: int = 1) -> dict[int, TailModel]:
    """Fit one tail model per offset on the trailing exact window.

    Periods tried are the divisors of lcm(weights) in ascending order, then
    polynomials of degree 2..degree_max at period 1.  A model must reproduce
    the exact rates on the whole window; the onset is pushed down as far as
    the model keeps matching.  No admissible model is a stabilization error.
    """
    J, L = chain.j_max, chain.l_exact
    width = 4 * J + 4
    start = L - width
    if start < 0:
        raise ValidationError("exact horizon too short for the tail window")
    weights = chain.weights if chain.weights else (partition.weights if partition else (1,))
    periods = _divisors(math.lcm(*weights))
    tails = {}
    for k in sorted(chain.exact):
        values = np.array([chain.rate(ell, k) for ell in range(start, L + 1)])
        if np.all(values == 0.0):
            continue
        model = _fit_window(values, start, k, periods, degree_max)
        if model is None:
            diagnosis = _fit_window(values, start, k, periods, 3)
            if diagnosis is not None:
                raise StabilizationError(
                    f"offset {k}: tail is polynomial of degree "
                    f"{diagnosis.degree}, but degree {degree_max} was requested"
                )
            raise StabilizationError(
                f"offset {k}: exact rates on [{start}, {L}] fit no "
                f"periodic-affine or degree<=3 model"
            )
        # extend the validated range downward to find the true onset
        onset = start
        while onset > 0:
            v = chain.rate(onset - 1, k)
            if not _match(np.array([v]), onset - 1, model):
                break
            onset -= 1
        tails[k] = TailModel(offset=k, onset=onset, period=model.period,
                             intercepts=model.intercepts, slope=model.slope,
                             c2=model.c2, c3=model.c3)
    return tails


def build_bounding_chain(network: ReactionNetwork, partition: ClassPartition,
                         direction: str, l_exact: int = 300,
                         l_total: int | None = None, tail_degree: int = 1,
                         cap: int = DEFAULT_CLASS_CAP) -> BoundingChain:
    """compute_f -> optimal_U -> phi_inverse, plus validated tail models."""
    if l_total is None:
        l_total = l_exact
    if l_total < l_exact:
        raise ValidationError("l_total must be at least l_exact")
    J = j_max(network, partition)
    # the lower-direction ranges look up to j_max classes above ell, so the
    # f-table is computed past the requested horizon for both directions
    f = compute_f(network, partition, direction, l_exact + J, cap=cap)
    U = optimal_U(f)
    skeleton = phi_inverse(U, weights=partition.weights)
    if skeleton.l_exact < l_exact:
        raise ConsistencyError("built table is shorter than requested")
    tails = detect_tails(skeleton, partition, degree_max=tail_degree)
    return BoundingChain(direction, J, skeleton.l_exact, l_total,
                         skeleton.exact, tails, weights=partition.weights)


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
                       candidate: BoundingChain, l_check: int,
                       rtol: float = RTOL) -> AssumptionReport:
    """Check the domination and monotonicity assumptions on [0, l_check].

    Upper direction: every row prefix of the candidate is at most the
    smallest same-class prefix of the network, and tails dominate the
    largest network tails; lower direction flips both.  Monotonicity in the
    class index is the same condition for both directions: deeper rows push
    no more mass downward (prefixes nonincreasing in ell on m < ell, checked
    via tail sums on m > ell so the diagonal never enters).  Outside the
    band both sides are constant and the checks hold vacuously.
    """
    direction = candidate.direction
    upper = direction == "upper"
    J = max(candidate.j_max, j_max(network, partition))
    if candidate.l_total < l_check + J:
        raise ValidationError(
            f"candidate must be defined on [0, {l_check + J}] for this window"
        )
    shifts = np.array([class_shift(r, partition) for r in network.reactions])

    def fail(kind, ell, m, lhs, rhs, state=None):
        detail = (f"{kind} fails at (ell={ell}, m={m}): "
                  f"candidate {lhs} vs network extreme {rhs}")
        if state is not None:
            detail += f" attained at state {state}"
        return AssumptionReport(False, direction, l_check,
                                {"kind": kind, "ell": ell, "m": m,
                                 "state": state}, detail)

    def extreme(X, agg, smallest):
        # the class extreme of one aggregate and the state attaining it
        idx = int(np.argmin(agg) if smallest else np.argmax(agg))
        return float(agg[idx]), tuple(int(v) for v in X[idx])

    name1 = "A1" if upper else "B1"
    name2 = "A2" if upper else "B2"
    for ell, X, rates in class_rates(network, partition, l_check):
        if X.shape[0] == 0:
            continue
        for j in range(1, min(J, ell) + 1):
            m = ell - j
            cand = candidate.prefix(ell, m)
            ref, state = extreme(X, rates[:, shifts <= -j].sum(axis=1), upper)
            tol = rtol * max(1.0, abs(ref))
            if upper and cand > ref + tol:
                return fail(name1, ell, m, cand, ref, state)
            if not upper and cand < ref - tol:
                return fail(name1, ell, m, cand, ref, state)
        for j in range(1, J + 1):
            m = ell + j
            cand = candidate.tail_sum(ell, m)
            ref, state = extreme(X, rates[:, shifts >= j].sum(axis=1), not upper)
            tol = rtol * max(1.0, abs(ref))
            if upper and cand < ref - tol:
                return fail(name1, ell, m, cand, ref, state)
            if not upper and cand > ref + tol:
                return fail(name1, ell, m, cand, ref, state)
    # monotonicity between consecutive rows (identical for both directions)
    for ell in range(l_check + 1):
        for j in range(1, J + 1):
            m = ell - j
            if m >= 0:
                hi = candidate.prefix(ell, m)
                lo = candidate.prefix(ell + 1, m)
                if lo > hi + rtol * max(1.0, abs(hi)):
                    return fail(name2, ell, m, lo, hi)
        for j in range(1, J + 1):
            # tail form of the same inequality for m > ell (m = ell excluded)
            m = ell + j
            lo = candidate.tail_sum(ell, m + 1)
            hi = candidate.tail_sum(ell + 1, m + 1)
            if hi < lo - rtol * max(1.0, abs(lo)):
                return fail(name2, ell, m, hi, lo)
    return AssumptionReport(True, direction, l_check, None,
                            f"{name1} and {name2} hold on [0, {l_check}]")


@dataclass
class OptimalityReport:
    ok: bool
    worst_margin: float
    worst_at: tuple | None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def check_optimality(candidate: BoundingChain, optimal: BoundingChain,
                     window: int, rtol: float = RTOL) -> OptimalityReport:
    """Domination of row prefixes on [0, window]^2.

    Upper direction: every feasible candidate satisfies
    candidate_{ell,0:m} <= optimal_{ell,0:m}; lower direction reverses the
    inequality.  Returns the worst signed margin (positive = violation).
    """
    upper = optimal.direction == "upper"
    worst = -math.inf
    worst_at = None
    J = max(candidate.j_max, optimal.j_max)
    for ell in range(window + 1):
        for m in range(ell - J - 1, ell + J + 1):
            if m < 0:
                continue
            if m < ell:
                c = candidate.prefix(ell, m)
                o = optimal.prefix(ell, m)
            else:
                # prefix through the diagonal, expressed with tail sums
                c = -candidate.tail_sum(ell, m + 1)
                o = -optimal.tail_sum(ell, m + 1)
            margin = (c - o) if upper else (o - c)
            if margin > worst:
                worst = margin
                worst_at = (ell, m)
    scale = max(1.0, abs(worst))
    ok = worst <= rtol * scale
    return OptimalityReport(ok, worst, worst_at,
                            "dominated" if ok else
                            f"candidate exceeds the optimal bound at {worst_at}")
