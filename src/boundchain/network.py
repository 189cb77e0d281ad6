"""Reaction networks with polynomial propensities and weighted class partitions.

States are vectors of species counts.  A partition with positive integer
weights w assigns state x to class w.x, so every class
S_l = {x : w.x = l} is a finite slice of the lattice.  That finiteness is
what makes the min/max tables of the bound builder computable by exact
enumeration.

Every pass over the classes goes through one block layer: ``class_rates``
cuts classes 0..hi into runs of consecutive classes, lists each run's
states in class-major lexicographic order with one species-by-species
expansion, and evaluates every reaction on the whole run at once, under
one cumulative state cap.  ``enumerate_class`` is the one-class case of
the same enumerator.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError, ValidationError

DEFAULT_CLASS_CAP = 10_000_000

# states per run of classes in class_rates; a larger class is a run alone
RUN_STATES = 1 << 14

_FACTOR_KINDS = ("plain-power", "falling-factorial")


@dataclass(frozen=True)
class Factor:
    """One per-species factor of a propensity term."""

    species: int
    exponent: int = 1
    kind: str = "plain-power"

    def __post_init__(self):
        if self.exponent < 1:
            raise ValidationError("factor exponent must be a positive integer")
        if self.kind not in _FACTOR_KINDS:
            raise ValidationError(f"unknown factor kind {self.kind!r}")

    def evaluate(self, counts: np.ndarray) -> np.ndarray:
        return self._at(np.array(counts, dtype=float))

    def _at(self, x):
        """The factor at ``x``, a float or a float array, as a product
        taken left to right: x x ... x, or x (x-1) ... (x-r+1).

        Exponent 1 returns ``x`` itself.  IEEE products give the same float
        on either kind of input, and a plain cube is correctly rounded
        while x*x is exact, that is for counts up to 94,906,265.
        """
        if self.exponent == 1:  # most factors; skips the loop's set-up
            return x
        out = x
        for r in range(1, self.exponent):
            out = out * (x if self.kind == "plain-power" else x - r)
        return out


@dataclass(frozen=True)
class Term:
    coeff: float
    factors: tuple[Factor, ...] = ()


class PropensityPolynomial:
    """Sum of coefficient times product-of-factors terms on count vectors."""

    def __init__(self, terms):
        self.terms = tuple(terms)

    def evaluate(self, state) -> float:
        """Value at one state, on Python floats."""
        return self._add_to(0.0, [float(v) for v in state])

    def evaluate_many(self, states) -> np.ndarray:
        """Vectorized evaluation on an (n, d) array of states."""
        X = np.asarray(states, dtype=float)
        return self._add_to(np.zeros(X.shape[0]), X.T)

    def _add_to(self, out, counts):
        """``out`` plus the value on per-species ``counts``: floats, with
        ``out`` a float, or float columns, with ``out`` an array.

        The one evaluator of the package.  Each term is its coefficient
        times its factors in order, and the terms are added to ``out`` in
        order, in place for an array, so both kinds give the same floats.
        """
        for term in self.terms:
            val = float(term.coeff)
            for f in term.factors:
                val *= f._at(counts[f.species])
            out += val
        return out

    def is_structurally_zero(self) -> bool:
        return all(t.coeff == 0.0 for t in self.terms)


@dataclass(frozen=True)
class Reaction:
    change: tuple[int, ...]
    propensity: PropensityPolynomial


class ReactionNetwork:
    """Finite list of reactions over a fixed species vector."""

    def __init__(self, species, reactions, parameters=None):
        self.species = tuple(str(s) for s in species)
        if not self.species:
            raise ValidationError("network needs at least one species")
        if len(set(self.species)) != len(self.species):
            raise ValidationError("species names must be unique")
        self.reactions = tuple(reactions)
        self.parameters = dict(parameters or {})
        for ridx, r in enumerate(self.reactions):
            if len(r.change) != self.d:
                raise ValidationError(
                    f"change vector {r.change} does not match {self.d} species"
                )
            for f in (f for t in r.propensity.terms for f in t.factors):
                if not 0 <= f.species < self.d:
                    raise ValidationError(
                        f"reaction {ridx} has a factor on species {f.species}, "
                        f"outside 0..{self.d - 1}")

    @property
    def d(self) -> int:
        return len(self.species)

    def change_matrix(self) -> np.ndarray:
        return np.array([r.change for r in self.reactions], dtype=np.int64)

    def rates(self, states) -> np.ndarray:
        """(n, reactions) propensity matrix on an (n, d) array of states."""
        X = np.asarray(states)
        out = np.zeros((X.shape[0], len(self.reactions)))
        return self._rate_block(X.T, out.T).T

    def _rate_block(self, states, out=None) -> np.ndarray:
        """(reactions, n) propensities on a (d, n) block of states.

        The block behind ``rates``, the class passes and the SSA kernel:
        the states become per-species float columns once, and row i is
        reaction i's ``evaluate_many``, bit for bit.  ``out``, zeros of that
        shape, may be a view of another layout.
        """
        cols = np.ascontiguousarray(states, dtype=float)
        if out is None:
            out = np.zeros((len(self.reactions), cols.shape[1]))
        for row, r in zip(out, self.reactions):
            r.propensity._add_to(row, cols)
        return out


def _integer(value, reaction: int, name: str) -> int:
    """An integer field of reaction ``reaction``; a bool or a non-integral
    number is rejected, not truncated."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValidationError(
            f"reaction {reaction} has {name} {value!r}, not an integer")
    return int(value)


def network_from_dict(doc: dict) -> ReactionNetwork:
    """Build a network from the JSON document layout.

    Keys: ``species`` (names), ``parameters`` (name -> number), ``reactions``
    (list of {change, propensity}); propensity terms carry ``coeff`` (number
    or parameter name) and ``factors`` ({species, exponent, kind}).
    """
    try:
        species = [str(s) for s in doc["species"]]
        params = {str(k): float(v) for k, v in dict(doc.get("parameters", {})).items()}
        for name, value in params.items():
            if not math.isfinite(value):
                raise ValidationError(f"parameter {name!r} is {value}")
        reactions = []
        for rx in doc["reactions"]:
            ridx = len(reactions)
            change = tuple(_integer(c, ridx, "change") for c in rx["change"])
            terms = []
            for t in rx["propensity"]:
                coeff = t["coeff"]
                if isinstance(coeff, str):
                    if coeff not in params:
                        raise ValidationError(f"unbound parameter {coeff!r}")
                    coeff = params[coeff]
                factors = []
                for f in t.get("factors", ()):
                    sp = f["species"]
                    if isinstance(sp, str):
                        if sp not in species:
                            raise ValidationError(f"unknown species {sp!r}")
                        sp = species.index(sp)
                    factors.append(
                        Factor(_integer(sp, ridx, "species"),
                               _integer(f.get("exponent", 1), ridx, "exponent"),
                               str(f.get("kind", "plain-power")))
                    )
                if not math.isfinite(float(coeff)):
                    raise ValidationError(
                        f"reaction {ridx} has coefficient {coeff}")
                terms.append(Term(float(coeff), tuple(factors)))
            reactions.append(Reaction(change, PropensityPolynomial(terms)))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
    return ReactionNetwork(species, reactions, params)


def load_network(path) -> ReactionNetwork:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read network file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"network file {path} is not valid JSON: {exc}") from exc
    return network_from_dict(doc)


@dataclass(frozen=True)
class ClassPartition:
    """Positive integer weights; class of x is the dot product w.x."""

    weights: tuple[int, ...]

    def __post_init__(self):
        w = tuple(int(v) for v in self.weights)
        if not w or any(v < 1 for v in w):
            raise ValidationError("class weights must be positive integers")
        object.__setattr__(self, "weights", w)

    @property
    def d(self) -> int:
        return len(self.weights)

    def class_of(self, state) -> int:
        x = np.asarray(state)
        if x.shape != (self.d,):
            raise ValidationError(
                f"state of length {x.shape} does not match {self.d} weights"
            )
        if (x < 0).any():
            raise ValidationError("state components must be nonnegative")
        return int(np.dot(self.weights, x))


def class_of(state, partition: ClassPartition) -> int:
    return partition.class_of(state)


def _class_sizes(weights: tuple[int, ...]):
    """Yield the sizes of classes 0, 1, 2, ... under ``weights``, as Python
    ints, which do not overflow.

    With s_k(ell) the number of states of the first k species in class ell,
    s_k(ell) = s_{k-1}(ell) + s_k(ell - w_k): the k-th count is 0, or it is
    at least 1 and one w_k comes off.  Each class costs one step per weight;
    table k keeps the last w_k values of s_k, its oldest being s_k(ell - w_k).
    """
    tables = [deque(maxlen=w) for w in weights]
    for ell in itertools.count():
        n = int(ell == 0)
        for table in tables:
            if len(table) == table.maxlen:
                n += table[0]
            table.append(n)
        yield n


def class_size(ell: int, partition: ClassPartition) -> int:
    """Number of states in class ``ell``, without materializing them."""
    if ell < 0:
        raise ValidationError("class index must be nonnegative")
    return next(itertools.islice(_class_sizes(partition.weights), ell, None))


def _enumerate(lo: int, hi: int, weights: tuple[int, ...]) -> np.ndarray:
    """The states of classes lo..hi as an (n, d) int64 array, class-major
    and lexicographic within a class.

    The expansion starts from the vector of class labels and goes species
    by species: a partial row with remaining budget r takes every count v
    in 0..r // w_k, in order, and the last count is fixed by r.  Each level
    keeps only its counts and each row's parent index; the columns are
    gathered once, from the last level back, and where the last weight
    divides every remaining budget a slice stands in for the index.
    """
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    levels = []
    for wk in weights[:-1]:
        counts = rem // wk + 1
        parent = np.repeat(np.arange(rem.size), counts)
        v = np.arange(parent.size, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        rem = np.repeat(rem, counts) - wk * v
        levels.append((parent, v))
    ok = rem % weights[-1] == 0
    idx = slice(None) if ok.all() else np.flatnonzero(ok)
    last = rem[idx] // weights[-1]
    X = np.empty((last.size, len(weights)), dtype=np.int64)
    X[:, -1] = last
    for k in range(len(levels) - 1, -1, -1):
        parent, v = levels[k]
        X[:, k] = v[idx]
        idx = parent[idx]
    return X


def enumerate_class(ell: int, partition: ClassPartition,
                    cap: int = DEFAULT_CLASS_CAP) -> np.ndarray:
    """All states of class ``ell`` as an (n, d) array in lexicographic order."""
    if ell < 0:
        raise ValidationError("class index must be nonnegative")
    n = class_size(ell, partition)
    if n > cap:
        raise ResourceLimitError(
            f"class {ell} holds {n} states, above the cap of {cap}"
        )
    return _enumerate(ell, ell, partition.weights)


def class_rates(network: ReactionNetwork, partition: ClassPartition, hi: int,
                cap: int = DEFAULT_CLASS_CAP):
    """Yield runs of consecutive classes in 0..hi as (lo, sizes, X, R).

    A run covers classes lo..lo + len(sizes) - 1, whose sizes are the int64
    array ``sizes``; ``X`` is their (n, d) states, each class as
    ``enumerate_class`` lists it, one after another, and ``R`` the
    (reactions, n) block ``network._rate_block`` of them.  A run holds at
    most RUN_STATES states, except a larger class, which is a run alone.
    Once classes 0..ell hold more than ``cap`` states, the runs below ell
    are yielded and ResourceLimitError is raised.
    """
    _check_dims(network, partition)
    sizes, seen = [], 0
    for n in itertools.islice(_class_sizes(partition.weights), hi + 1):
        seen += n
        if seen > cap:
            break
        sizes.append(n)
    sizes = np.array(sizes, dtype=np.int64)
    ends = np.cumsum(sizes)
    lo = 0
    while lo < sizes.size:
        limit = ends[lo] - sizes[lo] + RUN_STATES
        end = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        X = _enumerate(lo, end - 1, partition.weights)
        yield lo, sizes[lo:end], X, network._rate_block(X.T)
        lo = end
    if seen > cap:
        raise ResourceLimitError(
            f"classes 0..{sizes.size} hold {seen} states, above the cap of {cap}"
        )


def check_propensities(rates: np.ndarray, states) -> None:
    """Raise at the first negative or NaN entry of ``rates``, row by row.

    ``rates`` is a (k, reactions) block of ``ReactionNetwork.rates`` on the
    (k, d) ``states``; the message names the reaction and the state.
    """
    neg = ~(rates >= 0)
    if neg.any():
        i, k = np.argwhere(neg)[0]
        kind = "negative" if rates[i, k] < 0 else "undefined"
        raise ValidationError(
            f"{kind} propensity {rates[i, k]} for reaction {k} at "
            f"{tuple(int(v) for v in states[i])}")


def _check_dims(network: ReactionNetwork, partition: ClassPartition) -> None:
    if partition.d != network.d:
        raise ValidationError(
            f"{partition.d} class weights for a network of {network.d} species"
        )


def class_shift(reaction: Reaction, partition: ClassPartition) -> int:
    """Signed class displacement w.nu of one reaction."""
    return int(np.dot(partition.weights, reaction.change))


def j_max(network: ReactionNetwork, partition: ClassPartition) -> int:
    """Band half-width: the largest absolute class shift over all reactions."""
    _check_dims(network, partition)
    shifts = [abs(class_shift(r, partition)) for r in network.reactions]
    j = max(shifts, default=0)
    if j == 0:
        raise ValidationError("no reaction changes the class; band width is zero")
    return j


def aggregate_rate(state, interval, network: ReactionNetwork,
                   partition: ClassPartition) -> float:
    """Total rate from ``state`` into classes inside ``interval = (lo, hi)``.

    ``hi`` may be ``float('inf')``.  Sums the propensities of every reaction
    whose class shift lands cl(state)+shift inside the interval.
    """
    lo, hi = interval
    ell = partition.class_of(state)
    return float(sum(r.propensity.evaluate(state) for r in network.reactions
                     if lo <= ell + class_shift(r, partition) <= hi))


@dataclass
class ValidationReport:
    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return "network valid"
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  - {v['kind']}: {v['detail']}" for v in self.violations]
        return "\n".join(lines)


def validate_network(network: ReactionNetwork, partition: ClassPartition,
                     window: int, cap: int = DEFAULT_CLASS_CAP) -> ValidationReport:
    """Check propensity sign and boundary-leak freedom on classes <= window.

    ``check_propensities``' rule: a rate is bad unless it is >= 0 (NaN
    included), and a reaction fires where its rate is > 0.
    """
    violations = []
    nu = network.change_matrix()
    null_change_active = [False] * len(network.reactions)
    for _, sizes, states, block in class_rates(network, partition, window,
                                               cap=cap):
        ends = np.cumsum(sizes)
        for a, b in zip(ends - sizes, ends):
            if a == b:
                continue
            X = states[a:b]
            for ridx, vals in enumerate(block[:, a:b]):
                neg = np.flatnonzero(~(vals >= 0))
                if neg.size:
                    x = tuple(int(v) for v in X[neg[0]])
                    violations.append({
                        "kind": "negative-propensity",
                        "reaction": ridx,
                        "state": x,
                        "detail": f"reaction {ridx} has rate {vals[neg[0]]} at {x}",
                    })
                leaves = (X + nu[ridx] < 0).any(axis=1)
                leak = np.flatnonzero(leaves & (vals > 0))
                if leak.size:
                    x = tuple(int(v) for v in X[leak[0]])
                    violations.append({
                        "kind": "boundary-leak",
                        "reaction": ridx,
                        "state": x,
                        "detail": (
                            f"reaction {ridx} fires at rate {vals[leak[0]]} from {x} "
                            "although the destination has a negative count"
                        ),
                    })
                if not nu[ridx].any() and (vals > 0).any():
                    null_change_active[ridx] = True
    for ridx, active in enumerate(null_change_active):
        if active:
            violations.append({
                "kind": "null-change",
                "reaction": ridx,
                "state": None,
                "detail": f"reaction {ridx} has zero change vector but nonzero rate",
            })
    return ValidationReport(ok=not violations, violations=violations)
