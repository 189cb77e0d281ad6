"""Asymptotic classification of banded 1-D chains and the two-chain verdict.

The drift statistics come from the tail models: with rate(l) ~ slope_k*l +
intercept_k at offset k, the signed first moment has slope B1 = sum k*slope_k
and intercept B2 = sum k*intercept_k, and B3 = B2 - (1/2) sum k^2*slope_k.
Periodic tails have no pointwise intercept limit, so B2 uses the average of
the per-residue intercepts (the Cesaro reading of the defining limit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import BoundingChain
from .errors import ConsistencyError, ValidationError

ZERO_TOL = 1e-9

CHAIN_CLASSES = ("explosive", "transient-nonexplosive", "null-recurrent",
                 "positive-recurrent", "recurrent-unrefined", "unknown")

X_BEHAVIORS = ("explosive", "transient(explosive-or-not)",
               "transient-and-nonexplosive", "transient-or-null-recurrent",
               "non-explosive", "null-recurrent", "recurrent",
               "positive-recurrent", "no-information")


@dataclass
class DriftStats:
    b1: float
    b2: float
    b3: float
    valid: bool
    degrees: dict
    direction: str
    notes: list = field(default_factory=list)


@dataclass(frozen=True)
class ChainClass:
    label: str
    provenance: str

    def __post_init__(self):
        if self.label not in CHAIN_CLASSES:
            raise ValidationError(f"unknown chain class {self.label!r}")
        if not self.provenance:
            raise ValidationError("chain class needs a provenance note")


@dataclass(frozen=True)
class XBehavior:
    label: str
    detail: str

    def __post_init__(self):
        if self.label not in X_BEHAVIORS:
            raise ValidationError(f"unknown X behavior {self.label!r}")


def drift_stats(chain: BoundingChain) -> DriftStats:
    """B1/B2/B3 from the chain's tail models."""
    if not chain.tails and any(chain.rate(chain.l_exact, k) != 0.0
                               for k in chain.offsets):
        # all-zero tails are legitimate for a chain that dies out; live rates
        # at the horizon without tail models mean detection never ran
        raise ValidationError("chain carries no tail models")
    degrees = chain.tail_degrees()
    notes = []
    valid = all(d <= 1 for d in degrees.values())
    b1 = b2 = b3 = float("nan")
    if valid:
        b1 = sum(k * tm.slope for k, tm in chain.tails.items())
        b2 = sum(k * tm.mean_intercept() for k, tm in chain.tails.items())
        b3 = b2 - 0.5 * sum(k * k * tm.slope for k, tm in chain.tails.items())
        if any(tm.period > 1 for tm in chain.tails.values()):
            notes.append("periodic tails: intercepts averaged over residues")
    else:
        notes.append(
            "superlinear tails at offsets "
            + ", ".join(str(k) for k, d in sorted(degrees.items()) if d > 1)
        )
    return DriftStats(b1=b1, b2=b2, b3=b3, valid=valid, degrees=degrees,
                      direction=chain.direction, notes=notes)


def _sign(value: float, scale: float) -> int:
    if abs(value) <= ZERO_TOL * scale:
        return 0
    return 1 if value > 0 else -1


def classify(stats: DriftStats) -> ChainClass:
    """Decision rules on the drift statistics.

    Affine tails: B1 > 0, or B1 = 0 with B3 > 0, is transient (and
    non-explosive, the rates being at most linear); B1 = 0 with B2 >= 0 and
    B3 <= 0 is null-recurrent; B1 < 0, or B1 = 0 with B2 < 0, is positive
    recurrent.  Superlinear tails: explosive when the dominant up-offset
    degree is at least 2 and strictly exceeds the dominant down degree (a
    sufficient condition only); anything else is unknown.
    """
    if not stats.valid:
        up = max((d for k, d in stats.degrees.items() if k > 0), default=-1)
        down = max((d for k, d in stats.degrees.items() if k < 0), default=-1)
        if up >= 2 and up > down:
            return ChainClass(
                "explosive",
                f"superlinear up-drift: degree {up} up vs degree {down} down",
            )
        return ChainClass(
            "unknown",
            f"superlinear rates (up degree {up}, down degree {down}) "
            "outside the sufficient explosion rule",
        )
    scale = max(1.0, abs(stats.b1), abs(stats.b2), abs(stats.b3))
    s1 = _sign(stats.b1, scale)
    s2 = _sign(stats.b2, scale)
    s3 = _sign(stats.b3, scale)
    coarse = " (coarse column label: recurrent)" if stats.direction == "upper" else ""
    if s1 > 0:
        return ChainClass("transient-nonexplosive", "B1 > 0")
    if s1 < 0:
        return ChainClass("positive-recurrent", "B1 < 0" + coarse)
    if s3 > 0:
        return ChainClass("transient-nonexplosive", "B1 = 0 and B3 > 0")
    if s2 < 0:
        return ChainClass("positive-recurrent", "B1 = 0 and B2 < 0" + coarse)
    return ChainClass("null-recurrent", "B1 = 0, B2 >= 0, B3 <= 0")


def _as_label(value) -> str:
    label = value.label if isinstance(value, ChainClass) else str(value)
    if label not in CHAIN_CLASSES:
        raise ValidationError(f"unknown chain class {label!r}")
    return label


def combine(z, y, z_irreducible: bool = False,
            y_irreducible: bool = False) -> XBehavior:
    """Deduce the behavior of the bounded process from both chain classes.

    ``z`` classifies the lower chain, ``y`` the upper one.  The cell logic
    follows from six implications: the upper chain being non-explosive,
    recurrent, or positive recurrent transfers as is; the lower chain being
    explosive or transient transfers as is, and its null recurrence rules
    out positive recurrence.  Contradictory fact sets are the impossible
    (black) cells.  Both chains must be attested irreducible.
    """
    if not (z_irreducible and y_irreducible):
        raise ValidationError(
            "combine requires both chains attested irreducible"
        )
    z_label, y_label = _as_label(z), _as_label(y)

    facts = set()
    if y_label in ("transient-nonexplosive", "null-recurrent",
                   "positive-recurrent", "recurrent-unrefined"):
        facts.add("non-explosive")
    if y_label in ("null-recurrent", "positive-recurrent", "recurrent-unrefined"):
        facts.add("recurrent")
    if y_label == "positive-recurrent":
        facts.add("positive-recurrent")
    if z_label == "explosive":
        facts.add("explosive")
    if z_label == "transient-nonexplosive":
        facts.add("transient")
    if z_label == "null-recurrent":
        facts.add("not-positive-recurrent")

    contradictions = [
        ("explosive", "non-explosive"),
        ("transient", "recurrent"),
        ("not-positive-recurrent", "positive-recurrent"),
    ]
    for a, b in contradictions:
        if a in facts and b in facts:
            raise ConsistencyError(
                f"impossible combination: lower chain {z_label} with upper "
                f"chain {y_label} (both '{a}' and '{b}' would hold)"
            )

    detail = f"lower {z_label}, upper {y_label}"
    if "explosive" in facts:
        return XBehavior("explosive", detail)
    if "positive-recurrent" in facts:
        return XBehavior("positive-recurrent", detail)
    if "transient" in facts:
        if "non-explosive" in facts:
            return XBehavior("transient-and-nonexplosive", detail)
        return XBehavior("transient(explosive-or-not)", detail)
    if "recurrent" in facts:
        if "not-positive-recurrent" in facts:
            return XBehavior("null-recurrent", detail)
        return XBehavior("recurrent", detail)
    if "non-explosive" in facts:
        return XBehavior("non-explosive", detail)
    if "not-positive-recurrent" in facts:
        return XBehavior("transient-or-null-recurrent", detail)
    return XBehavior("no-information", detail)


@dataclass
class Attestation:
    attested: bool
    witness: list | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.attested


def _reach(steps: list, start: int) -> np.ndarray:
    """Mask of the classes reachable from ``start``; class i steps to steps[i]."""
    seen = [False] * len(steps)
    seen[start] = True
    todo = [start]
    while todo:
        for m in steps[todo.pop()]:
            if not seen[m]:
                seen[m] = True
                todo.append(m)
    return np.array(seen)


def check_irreducible(chain: BoundingChain, horizon: int = 200) -> Attestation:
    """Strong connectivity of the reachable window plus tail positivity.

    The window is restricted to classes reachable from class 0: when some
    class labels are unachievable under the weights, their rows exist only
    to complete the rate table and nothing ever enters them, so they do not
    belong to the state space the chain actually moves on.  The reachable
    set must span the window, and every class in it must lead back to
    class 0 (a reach along the band's positive rates, then one against
    them), which makes it one strongly connected component.
    Sound for banded chains whose tail rates are eventually positive: rates
    are polynomial with nonnegative leading behavior, so positivity on one
    full period of the tail models persists for all larger classes.
    """
    if horizon < 0:
        raise ValidationError(f"horizon must be nonnegative, got {horizon}")
    horizon = min(horizon, chain.l_total)
    J = chain.j_max
    rates = chain.band(max(horizon, chain.l_exact))
    ell, col = np.nonzero(rates[:horizon + 1] > 0)
    m = ell + col - J
    inside = m <= horizon
    out = [[] for _ in range(horizon + 1)]
    into = [[] for _ in range(horizon + 1)]
    for a, b in zip(ell[inside].tolist(), m[inside].tolist()):
        out[a].append(b)
        into[b].append(a)
    reach = _reach(out, 0)
    witness = np.flatnonzero(reach).tolist()
    if witness[-1] < horizon - J:
        return Attestation(False, witness,
                           f"classes reachable from 0 stop at "
                           f"{witness[-1]} inside [0, {horizon}]; the chain "
                           f"is trapped in {witness[:20]}")
    stuck = np.flatnonzero(reach & ~_reach(into, 0)).tolist()
    if stuck:
        return Attestation(False, stuck[:50],
                           f"{len(stuck)} reachable classes cannot return to "
                           f"class 0, e.g. {stuck[:10]}")
    period = 1
    for tm in chain.tails.values():
        period = int(np.lcm(period, tm.period))
    lo = max(1, chain.l_exact - period + 1)
    tail = rates[lo:chain.l_exact + 1] > 0
    up, down = tail[:, J + 1:].any(axis=1), tail[:, :J].any(axis=1)
    miss = np.flatnonzero(~(up & down))
    if miss.size:
        i = int(miss[0])
        return Attestation(False, [lo + i],
                           f"no positive {'down' if up[i] else 'up'}-rate "
                           f"at class {lo + i}")
    return Attestation(True, None,
                       f"reachable classes in [0, {horizon}] form one "
                       "strongly connected component with persistently "
                       "positive tail rates both ways")
