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
one cumulative state cap.  A run's states are a (d, n) float64 block of
per-species columns, the layout the rate block reads; the last two counts
of each partial row come as arithmetic progressions.  ``enumerate_class``
is the one-class case of the same enumerator, as an (n, d) int64 array.

The f-table pass reads the same runs through ``extreme_rates``, which may
evaluate only the two end states of each row: the head counts fixed, the
last two counts along t = 0..T.  It does so when ``_rows_affine`` holds:
d >= 2; every term with a nonzero coefficient has total exponent <= 1 on
species d-2 and d-1; no orthant face is on those two species; and
2^k * sum_terms |c| * prod_factors max(hi, e)^e < 2^53, with 2^-k the
finest power of two in any coefficient.  Then every rate is affine in t
along a row, and every product and partial sum the rate block and the
row masses form is a multiple of 2^-k below 2^53 * 2^-k, hence exact: the
floats are the exact affine values, whose extremes over a row lie at its
ends, so the end states give the same bytes as every state.  A negative
rate, or a positive one on a face of a head species (such a face covers
whole rows), also shows at a row end; a run whose ends fail the check is
enumerated whole and checked as ``class_rates``' runs are.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError

DEFAULT_CLASS_CAP = 10_000_000

# largest factor exponent: 2^1024 overflows a double, so past it a plain
# power is inf at every count >= 2, and a falling factorial at every count
# where it is nonzero
MAX_EXPONENT = 1024

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
        if self.exponent > MAX_EXPONENT:
            raise ValidationError(f"factor exponent {self.exponent} exceeds "
                                  f"the cap of {MAX_EXPONENT}")
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
        if not self.reactions:
            raise ValidationError("network needs at least one reaction")
        self.parameters = dict(parameters or {})
        for ridx, r in enumerate(self.reactions):
            if len(r.change) != self.d:
                raise ValidationError(
                    f"change vector {r.change} does not match {self.d} species"
                )
            check_int64(r.change, f"reaction {ridx} change")
            for f in (f for t in r.propensity.terms for f in t.factors):
                if not 0 <= f.species < self.d:
                    raise ValidationError(
                        f"reaction {ridx} has a factor on species {f.species}, "
                        f"outside 0..{self.d - 1}")
        self._faces = _orthant_faces(self.reactions)

    @property
    def d(self) -> int:
        return len(self.species)

    def change_matrix(self) -> np.ndarray:
        return np.array([r.change for r in self.reactions], dtype=np.int64)

    def rates(self, states) -> np.ndarray:
        """(n, reactions) propensity matrix on an (n, d) array of states."""
        return self._rate_block(np.asarray(states).T).T

    def _rate_block(self, states) -> np.ndarray:
        """(reactions, n) propensities on a (d, n) block of states.

        The block behind ``rates``, the class passes and the SSA kernel:
        the states become per-species float columns once, and row i is
        reaction i's ``_add_to`` on them, the floats ``evaluate`` gives at
        each state, bit for bit.
        """
        cols = np.ascontiguousarray(states, dtype=float)
        out = np.zeros((len(self.reactions), cols.shape[1]))
        # an overflow is inf or NaN in the block, which the propensity
        # checks report; numpy's warnings would only precede that error
        with np.errstate(over="ignore", invalid="ignore"):
            for row, r in zip(out, self.reactions):
                r.propensity._add_to(row, cols)
        return out


def check_int64(values, name: str) -> None:
    """Raise a ValidationError naming the first of the integers ``values``
    outside [-2^63, 2^63): counts, change entries and class labels become
    int64 arrays, which would wrap or refuse them."""
    for v in values:
        if not -2**63 <= v < 2**63:
            raise ValidationError(f"{name} {v} does not fit a 64-bit integer")


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
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
    return ReactionNetwork(species, reactions, params)


def load_network(path) -> ReactionNetwork:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read network file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"network file {path} is not UTF-8 text: {exc}") from exc
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
        check_int64(w, "class weight")
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
        # on Python ints, which do not wrap; with w >= 1 and x >= 0 the
        # label bounds every count
        label = sum(w * int(v) for w, v in zip(self.weights, x.tolist()))
        check_int64((label,), "class label")
        return label


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


def _rows(lo: int, hi: int, weights: tuple[int, ...]):
    """The rows of classes lo..hi, for d >= 2: (B, counts, step_b, step_a)
    with B the (d, rows) float64 block of each row's first state and
    ``counts`` its int64 number of states; along a row, state t adds
    t step_b to count d - 2 and takes t step_a from count d - 1.

    The expansion starts from the vector of class labels and goes species
    by species: a partial row with remaining budget r takes every count v
    in 0..r // w_k, in order, and each level repeats the columns built so
    far.  The last two counts come as arithmetic progressions.  With a, b
    the last two weights and g = gcd(a, b), a count v of species d - 2
    leaves a budget that b divides exactly when g divides r and
    v = (r/g) (a/g)^-1 mod b/g; from the least such v0, each step adds b/g
    to it and takes a/g from the last count.  Rows come class-major and
    lexicographic, and a row with no state counts 0.  Counts are exact as
    floats, far below 2^53.
    """
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    *head, a, b = weights
    cols = np.empty((0, rem.size))
    for wk in head:
        counts = rem // wk + 1
        v = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                                counts)
        cols = np.vstack([np.repeat(cols, counts, axis=1), v])
        rem = np.repeat(rem, counts) - wk * v
    g = math.gcd(a, b)
    step_a, step_b = a // g, b // g
    v0 = rem // g * pow(step_a, -1, step_b) % step_b
    # v0 < b/g, so a row with no valid v counts (r // a - v0) // (b/g) + 1 = 0
    counts = np.where(rem % g == 0, (rem // a - v0) // step_b + 1, 0)
    return np.vstack([cols, v0, (rem - a * v0) // b]), counts, step_b, step_a


def _enumerate(lo: int, hi: int, weights: tuple[int, ...]) -> np.ndarray:
    """The states of classes lo..hi as a (d, n) float64 block of
    per-species columns, class-major and lexicographic within a class:
    every state of each of ``_rows``' rows."""
    if len(weights) == 1:
        rem = np.arange(lo, hi + 1, dtype=np.int64)
        return (rem[rem % weights[0] == 0] // weights[0]).astype(float)[None]
    B, counts, step_b, step_a = _rows(lo, hi, weights)
    # state i of the block is step i - start of its row's progression
    start = np.cumsum(counts) - counts
    B[-2] -= step_b * start
    B[-1] += step_a * start
    X = np.repeat(B, counts, axis=1)
    steps = np.arange(X.shape[1], dtype=float)
    X[-2] += step_b * steps
    X[-1] -= step_a * steps
    return X


def _row_ends(lo: int, hi: int, weights: tuple[int, ...]) -> np.ndarray:
    """The first and last state of each of ``_rows``' rows of classes
    lo..hi, one state for a one-state row, as a (d, n) float64 block in
    ``_enumerate``'s order: a subsequence of it, so nothing is sorted."""
    B, counts, step_b, step_a = _rows(lo, hi, weights)
    ends = np.minimum(counts, 2)
    X = np.repeat(B, ends, axis=1)
    # the second of a pair is t = T, where T + 1 is the row's length
    last = (np.cumsum(ends) - 1)[ends == 2]
    T = counts[ends == 2] - 1
    X[-2, last] += step_b * T
    X[-1, last] -= step_a * T
    return X


def enumerate_class(ell: int, partition: ClassPartition) -> np.ndarray:
    """All states of class ``ell`` as an (n, d) array in lexicographic order."""
    if ell < 0:
        raise ValidationError("class index must be nonnegative")
    n = class_size(ell, partition)
    if n > DEFAULT_CLASS_CAP:
        raise ResourceLimitError(
            f"class {ell} holds {n} states, above the cap of "
            f"{DEFAULT_CLASS_CAP}")
    # a cast of the transposed block, column-major: a transposing copy of a
    # block of a few rows is several times slower
    return _enumerate(ell, ell, partition.weights).T.astype(np.int64)


def class_rates(network: ReactionNetwork, partition: ClassPartition, hi: int,
                cap: int | None = None):
    """Yield runs of consecutive classes in 0..hi as (lo, sizes, X, R).

    A run covers classes lo..lo + len(sizes) - 1, whose sizes are the int64
    array ``sizes``; ``X`` is their states as a (d, n) float64 block of
    per-species columns, each class in ``enumerate_class``'s order, one
    after another, and ``R`` the (reactions, n) block
    ``network._rate_block`` of them.  A run holds at
    most RUN_STATES states, except a larger class, which is a run alone.
    Once classes 0..ell hold more than ``cap`` (default DEFAULT_CLASS_CAP)
    states, the runs below ell are yielded and ResourceLimitError is raised.
    """
    _check_dims(network, partition)
    cap = DEFAULT_CLASS_CAP if cap is None else cap
    for lo, sizes, _ in _runs(partition.weights, hi, cap):
        X = _enumerate(lo, lo + sizes.size - 1, partition.weights)
        yield lo, sizes, X, network._rate_block(X)


def _runs(weights: tuple[int, ...], hi: int, cap: int,
          lag: int | None = None):
    """Yield runs of consecutive classes in 0..hi as (lo, sizes, evaluated):
    the classes' sizes and the states a pass evaluates of each, as int64
    arrays.  These are the sizes, or, given ``lag``, the sizes less those
    ``lag`` classes down.  A run holds at most RUN_STATES evaluated states,
    except one larger class, which is a run alone.  Once classes 0..ell
    hold more than ``cap`` states, the runs below ell are yielded and
    ResourceLimitError is raised."""
    sizes, seen = [], 0
    for n in itertools.islice(_class_sizes(weights), hi + 1):
        seen += n
        if seen > cap:
            break
        sizes.append(n)
    sizes = np.array(sizes, dtype=np.int64)
    evaluated = sizes
    if lag is not None:
        evaluated = sizes - np.concatenate([np.zeros(lag, np.int64),
                                            sizes])[:sizes.size]
    ends = np.cumsum(evaluated)
    lo = 0
    while lo < sizes.size:
        limit = ends[lo] - evaluated[lo] + RUN_STATES
        end = max(lo + 1, int(np.searchsorted(ends, limit, side="right")))
        yield lo, sizes[lo:end], evaluated[lo:end]
        lo = end
    if seen > cap:
        raise ResourceLimitError(
            f"classes 0..{sizes.size} hold {seen} states, above the cap of {cap}"
        )


def _rows_affine(network: ReactionNetwork, hi: int) -> bool:
    """Whether every rate on classes 0..hi is exact and affine along
    ``_rows``' rows, so that a row's extremes of any sum of rates lie at
    its two end states (the four conditions of the module docstring).

    No count passes hi, so each factor of a term is an integer of
    magnitude at most max(hi, e)^e at every step of its product; c is a
    multiple of 2^-k, so 2^k |c| >= 1 and each product, as each sum, is a
    multiple of 2^-k of magnitude below 2^53 2^-k.  A term with
    coefficient 0 adds +-0, or NaN where a factor overflows; a factor's
    magnitude only grows with its count, so such a NaN shows at a row end.
    """
    d = network.d
    tail = (d - 2, d - 1)
    if d < 2 or any(i in tail for _, i, _ in network._faces):
        return False
    terms = [t for r in network.reactions for t in r.propensity.terms
             if t.coeff != 0.0]
    for t in terms:
        if not math.isfinite(t.coeff) or sum(
                f.exponent for f in t.factors if f.species in tail) > 1:
            return False
    ratios = [abs(float(t.coeff)).as_integer_ratio() for t in terms]
    # every denominator is a power of two; the largest is 2^k
    scale = max((den for _, den in ratios), default=1)
    bound = sum(num * (scale // den)
                * math.prod(max(hi, f.exponent) ** f.exponent
                            for f in t.factors)
                for (num, den), t in zip(ratios, terms))
    return bound < 2 ** 53


def extreme_rates(network: ReactionNetwork, partition: ClassPartition,
                  hi: int):
    """Yield runs of consecutive classes in 0..hi as (lo, counts, X, R),
    every rate of them checked by ``check_propensities``: ``X`` holds
    states enough for each class's extremes of any sum of rates, ``counts``
    how many of each class, one after another, and ``R`` their rate block.

    Where ``_rows_affine`` holds these are each row's end states, whose
    number in class ell is size(ell) - size(ell - 2 lcm(a, b)) with a, b
    the last two weights: a row of budget r has c(r) states, those of
    budget r - lcm are its states past the first, one step down, so a row
    has min(c(r), 2) = c(r) - c(r - 2 lcm) ends, and summing over the head
    counts gives the class sizes.  A run whose ends fail the check, or
    every run where ``_rows_affine`` fails, holds every state, so a
    message names the first bad state of the pass.  Runs, cap and its
    error are ``class_rates``'.
    """
    weights = partition.weights
    if not _rows_affine(network, hi):
        for lo, sizes, X, R in class_rates(network, partition, hi):
            check_propensities(network, R.T, X.T)
            yield lo, sizes, X, R
        return
    _check_dims(network, partition)
    lag = 2 * math.lcm(*weights[-2:])
    for lo, sizes, evaluated in _runs(weights, hi, DEFAULT_CLASS_CAP, lag):
        X = _row_ends(lo, lo + sizes.size - 1, weights)
        R = network._rate_block(X)
        if _propensity_fault(network, R.T, X.T) is not None:
            X = _enumerate(lo, lo + sizes.size - 1, weights)
            R, evaluated = network._rate_block(X), sizes
            check_propensities(network, R.T, X.T)
        yield lo, evaluated, X, R


def _orthant_faces(reactions) -> tuple:
    """(r, i, n) for each face reaction r may fire across: r takes n > 0 of
    species i, and a term with a nonzero coefficient has species-i factors
    that ``Factor._at`` finds nonzero at an integer count below n.  A factor
    vanishes only below its exponent, so each search ends by the largest."""
    faces = []
    for r, rx in enumerate(reactions):
        for i, c in enumerate(rx.change):
            own = [[f for f in t.factors if f.species == i]
                   for t in rx.propensity.terms if t.coeff != 0.0]
            if c < 0 and any(any(math.prod(f._at(x) for f in fs)
                                 for x in range(-c)) for fs in own):
                faces.append((r, i, -c))
    return tuple(faces)


def _on_faces(network: ReactionNetwork, states) -> dict:
    """Reaction -> mask of the (k, d) ``states`` on one of its faces."""
    on = {}
    for r, i, n in network._faces:
        on[r] = on.get(r, False) | (states[:, i] < n)
    return on


def _bad_rate(value) -> str:
    """Negative, infinite or (NaN) undefined: a rate outside [0, inf)."""
    return "negative" if value < 0 else "infinite" if value > 0 else "undefined"


def check_propensities(network: ReactionNetwork, rates: np.ndarray,
                       states) -> None:
    """Raise at the first entry of ``rates`` that is not in [0, inf), row
    by row, then at the first reaction that fires from a state on one of
    its faces.

    ``rates`` is a (k, reactions) block of ``network.rates`` on the (k, d)
    ``states``; the message names the reaction and the state.
    """
    fault = _propensity_fault(network, rates, states)
    if fault is not None:
        raise ValidationError(fault)


def _propensity_fault(network: ReactionNetwork, rates: np.ndarray,
                      states) -> str | None:
    """``check_propensities``' message, or None where it passes."""
    states = np.asarray(states)
    # NaN fails both comparisons
    if not (rates.min(initial=0.0) >= 0.0 and rates.max(initial=0.0) < np.inf):
        i, k = np.argwhere(~((rates >= 0) & (rates < np.inf)))[0]
        return (f"{_bad_rate(rates[i, k])} propensity {rates[i, k]} for "
                f"reaction {k} at {tuple(int(v) for v in states[i])}")
    for r, on in _on_faces(network, states).items():
        fires = np.flatnonzero(on & (rates[:, r] > 0))
        if fires.size:
            return (f"reaction {r} leaves the orthant from "
                    f"{tuple(int(v) for v in states[fires[0]])}")
    return None


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
