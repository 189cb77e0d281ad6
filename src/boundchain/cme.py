"""Truncated master equations, truncation certificates, and CDF dominance.

The truncation keeps the full diagonal of the generator: mass that jumps
out of the index set is absorbed, so the generator Q is substochastic.
Solves use uniformization (Jensen 1953): with Lambda the largest exit rate,
P = I + Q/Lambda is nonnegative and substochastic, and

    p(t) = sum_k Poisson(k; Lambda t) p0 P^k.

Every partial sum is a pointwise lower bound on the truncated law, and 1
minus its total bounds the absorbed mass from above.  One forward pass of
sparse mat-vecs gives p at the requested times together with the occupation
time z = int_0^T p, so the time-integrated exit flux of every window [0, N]
is one sparse reduction over the upward jumps weighted by z, with no
quadrature.  The pass stops at the smallest K whose Poisson stop-loss
E[(N_{Lambda T} - K)^+] is within a tenth of the error budget (tails as in
Fox & Glynn 1988).  That stop-loss bounds both the mass and the flux the
truncated sums leave out, and the certificates carry it as their solver
term.  A solve answers queries at times in [0, t_final] only.  Its first
query runs the pass, for p(t_final), z and every time of that query at
once; it costs K, about Lambda * t_final, sparse mat-vecs, and a later
query at new times runs one more pass of the same K.  The terms are made
by scipy's compiled kernels called straight into the rows of a term block,
without the per-call dispatch of ``@``.  P^T is stacked in copies down a
block diagonal, as many as K and a cap on the stack's size allow, and one
``csr_matvec`` call over m copies makes m terms: its input and output are
the overlapping runs of block rows a..a+m-1 and a+1..a+m.  This aliasing
is exact because ``csr_matvec`` finishes each output row before it starts
the next, and copy j reads only row a+j, which the call's copy j-1 has
already written.  A banded P^T with more than ``_CHAIN_NNZ`` stored
entries, as a chain box past M of about 680 has, makes one term a call
with ``dia_matvec`` instead.  Both kernels add each output entry's
products in column order, so they give the same bytes.

The module imports numpy, the top-level ``scipy`` package and two compiled
extension modules loaded by path, ``scipy.sparse._sparsetools`` (the
kernels) and ``scipy.special._special_ufuncs`` (``gammaln`` and
``gammainc``); no ``scipy.sparse``/``scipy.special`` import, whose shared
array-API layer costs more than a whole ``truncate`` solve.  Q, P^T and the
crossing rates are CSR arrays that numpy builds with scipy's bytes: a
stable sort, duplicates summed left to right, division by Lambda as a
product with its reciprocal, and exact zeros of I + Q/Lambda dropped.

The Poisson weights come from log space, with each time's log taken once,
and every weight below DBL_MIN, the smallest normal double, is 0, as Fox &
Glynn drop underflow.  A subnormal weight costs more than it adds: each
multiply it enters takes the CPU's slow path.  Every weight and term is
nonnegative and rounding is monotone, so a dropped weight only lowers p,
still a lower bound, by at most DBL_MIN a term, which the mass deficit
counts.  z's weights, P(N > k) / Lambda, stay as they are.
"""

from __future__ import annotations

import importlib
import math
import sys
from dataclasses import dataclass
from functools import cached_property, partial
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy

from .chain import BoundingChain
from .errors import InfeasibleError, ResourceLimitError, ValidationError
from .network import (ClassPartition, ReactionNetwork, check_propensities,
                      class_rates)
from .simulate import check_t_final


def _extension(name: str):
    """The compiled scipy module ``name``, loaded from its file by path.

    ``scipy.sparse`` and ``scipy.special`` both import
    ``scipy._lib._array_api``, which costs more than a whole ``truncate``
    solve; the kernels and ufuncs used here need numpy alone.  The module
    is registered in ``sys.modules`` under its real name, so a later import
    of its package reuses it.  If the file cannot be loaded, as on a scipy
    without it, the package is imported as usual and the module taken from
    it, or the package itself where it has no such module.
    """
    if name in sys.modules:
        return sys.modules[name]
    package, _, leaf = name.rpartition(".")
    folder = Path(scipy.__file__).parent.joinpath(*package.split(".")[1:])
    for suffix in EXTENSION_SUFFIXES:
        path = folder / (leaf + suffix)
        if path.is_file():
            try:
                loader = ExtensionFileLoader(name, str(path))
                module = module_from_spec(
                    spec_from_file_location(name, path, loader=loader))
                loader.exec_module(module)
            except (ImportError, OSError):
                break
            sys.modules[name] = module
            return module
    fallback = importlib.import_module(package)
    return sys.modules.get(name, fallback)


_special = _extension("scipy.special._special_ufuncs")
_sparsetools = _extension("scipy.sparse._sparsetools")
_csr_matvec = _sparsetools.csr_matvec
_csr_matvecs = _sparsetools.csr_matvecs
_dia_matvec = _sparsetools.dia_matvec

DEFAULT_BUDGET = 1e-8
MULTI_STATE_CAP = 1_000_000
POISSON_TERM_CAP = 2_000_000
# the pass stops once the Poisson stop-loss is this share of the budget, so
# p itself (not only the certificate) stays within a tenth of the budget
TAIL_SHARE = 0.1
_BLOCK = 256  # Poisson terms buffered before they are weighted and summed
# a banded P^T with more than this many stored entries is stepped one term
# a call by dia_matvec, whose product then outweighs a call's overhead;
# any other is stepped by chained csr_matvec calls over stacked copies
_CHAIN_NNZ = 2048
# the stacked copies hold at most this many stored entries and rows (about
# 0.8 MB), and one block's terms after its first need at most _BLOCK - 1
_STACK_ENTRIES = 1 << 16
_COPIES = _BLOCK - 1
# P^T is stored by diagonals when diagonals * n <= _DIA_FILL * nnz, so at
# least half of what the DIA kernel reads is stored entries
_DIA_FILL = 2
# DBL_MIN, the smallest normal double, and its log: the Poisson weights below
# it are set to 0
_TINY = np.finfo(float).tiny
_LOG_TINY = math.log(_TINY)


class _CSR(NamedTuple):
    """A sparse matrix as scipy's canonical CSR arrays: in each row the
    column indices ascend and none repeats.  ``A @ x`` calls the compiled
    kernel that scipy's ``@`` calls, into zeroed output, so it gives the
    bytes of ``@``: ``csr_matvec`` for a vector, ``csr_matvecs`` for the
    columns of a matrix."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    def rows(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0], dtype=self.indices.dtype),
                         np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        """The main diagonal, 0 where no entry is stored."""
        rows = self.rows()
        on = rows == self.indices
        out = np.zeros(min(self.shape))
        out[rows[on]] = self.data[on]
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        m, n = self.shape
        if x.ndim == 1:
            y = np.zeros(m)
            _csr_matvec(m, n, self.indptr, self.indices, self.data, x, y)
            return y
        y = np.zeros((m, x.shape[1]))
        _csr_matvecs(m, n, x.shape[1], self.indptr, self.indices, self.data,
                     x.ravel(), y.ravel())
        return y


def _csr(data, rows, cols, shape) -> _CSR:
    """The canonical CSR arrays of (data, (rows, cols)) as scipy builds
    them: entries sorted stably by (row, col), so equal positions keep
    their input order, and each run of equal positions summed left to
    right.  Explicit zeros stay.  Indices are int32 where they fit."""
    n_rows, n_cols = shape
    rows, cols = np.asarray(rows), np.asarray(cols)
    key = rows.astype(np.int64) * n_cols + cols
    if np.any(key[1:] <= key[:-1]):
        order = np.argsort(key, kind="stable")
        key, data, cols = key[order], data[order], cols[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        if len(starts) < len(key):
            ends = np.append(starts[1:], len(key))
            sums = data[starts]
            for k in range(1, int((ends - starts).max())):
                more = starts + k < ends
                sums[more] += data[starts[more] + k]
            key, data, cols = key[starts], sums, cols[starts]
        rows = key // n_cols
    index = (np.int32 if max(n_rows, n_cols, len(key)) <= np.iinfo(np.int32).max
             else np.int64)
    indptr = np.zeros(n_rows + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return _CSR(indptr, cols.astype(index), np.asarray(data, dtype=float),
                (n_rows, n_cols))


def _to_scipy(A: _CSR):
    """A scipy CSR matrix on the arrays of A."""
    import scipy.sparse as sp
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


def _chain_q(chain: BoundingChain, M: int) -> _CSR:
    if M < 0:
        raise ValidationError("M must be >= 0")
    if M > chain.l_total:
        raise ValidationError(f"M={M} exceeds the chain horizon {chain.l_total}")
    J = chain.j_max
    rates = chain.band(M)
    # the diagonal keeps every jump out of the row, those past M included;
    # summed offset by offset in row order
    rates[:, J] = -np.cumsum(rates, axis=1)[:, -1]
    keep = (rates != 0.0) & (np.arange(M + 1)[:, None] + np.arange(-J, J + 1) <= M)
    keep[:, J] = True
    ell, col = np.nonzero(keep)
    return _csr(rates[ell, col], ell, ell + col - J, (M + 1, M + 1))


def chain_generator(chain: BoundingChain, M: int):
    """Generator of a 1-D chain restricted to [0, M], diagonal kept full,
    as a scipy CSR matrix (the solves use its arrays without scipy.sparse)."""
    return _to_scipy(_chain_q(chain, M))


def _network_q(network: ReactionNetwork, partition: ClassPartition,
               n_max: int):
    d = partition.d
    base = n_max + 1
    if base ** (d + 1) > np.iinfo(np.int64).max:
        raise ResourceLimitError(
            f"state codes for n_max={n_max} in {d} species overflow int64"
        )
    runs = list(class_rates(network, partition, n_max, cap=MULTI_STATE_CAP))
    states = np.ascontiguousarray(
        np.concatenate([X for _, _, X, _ in runs], axis=1).T, dtype=np.int64)
    rates = np.concatenate([R for _, _, _, R in runs], axis=1)
    classes = np.repeat(np.arange(n_max + 1),
                        np.concatenate([sizes for _, sizes, _, _ in runs]))
    check_propensities(network, rates.T, states)
    # every count is at most n_max < base, so class-major lexicographic
    # order is ascending order of class * base^d + (x in base `base`)
    radix = base ** np.arange(d - 1, -1, -1, dtype=np.int64)
    codes = classes * base ** d + states @ radix
    w = np.asarray(partition.weights, dtype=np.int64)
    rows, cols, vals = [], [], []
    exit_rate = np.zeros(len(states))
    for k, nu in enumerate(network.change_matrix()):
        fires = np.flatnonzero(rates[k] > 0)
        exit_rate[fires] += rates[k, fires]
        dests = states[fires] + nu
        dclass = classes[fires] + int(w @ nu)
        inside = dclass <= n_max
        rows.append(fires[inside])
        cols.append(np.searchsorted(
            codes, dclass[inside] * base ** d + dests[inside] @ radix))
        vals.append(rates[k, fires[inside]])
    diag = np.arange(len(states))
    Q = _csr(np.concatenate(vals + [-exit_rate]),
             np.concatenate(rows + [diag]), np.concatenate(cols + [diag]),
             (len(states), len(states)))
    return Q, states, classes


def network_generator(network: ReactionNetwork, partition: ClassPartition,
                      n_max: int):
    """Generator on all states of class <= n_max, class-major lexicographic.

    Returns (Q, states, classes) with Q a scipy CSR matrix, ``states`` the
    (n, d) state array and ``classes`` the class label per index.  Mass
    leaves the box only through classes above n_max; a reaction that fires
    out of the orthant is a ValidationError.
    """
    Q, states, classes = _network_q(network, partition, n_max)
    return _to_scipy(Q), states, classes


def _poisson_stop(m: float, budget: float):
    """Where a Poisson(m) sum may stop: (K, stop_loss, sf).

    K is the smallest count with E[(N - K)^+] <= budget for N ~ Poisson(m),
    stop_loss is that expectation, and sf[k] = P(N > k) for k = 0..K.
    """
    if m == 0.0:
        return 0, 0.0, np.zeros(1)
    if m > POISSON_TERM_CAP:
        raise ResourceLimitError(
            f"uniformization needs about {m:.3g} Poisson terms, above the "
            f"cap of {POISSON_TERM_CAP}; shorten t_final or the box"
        )
    width = 8.0
    while True:
        k = np.arange(int(m + width * np.sqrt(m)) + 20)
        sf = _special.gammainc(k + 1.0, m)  # P(N > k), pdtrc's bytes
        # past the mode the pmf ratio, hence the sf ratio, is at most
        # r = m / (k_max + 2), so sum_{k > k_max} sf(k) <= sf(k_max) r/(1-r)
        r = m / (k[-1] + 2.0)
        rest = sf[-1] * r / (1.0 - r)
        # E[(N - K)^+] = sum_{k >= K} P(N > k)
        stop_loss = np.cumsum(sf[::-1])[::-1] + rest
        hits = np.flatnonzero(stop_loss <= budget)
        if hits.size:
            K = int(hits[0])
            return K, float(stop_loss[K]), sf[:K + 1]
        width *= 2.0


def _poisson_pmf(k: np.ndarray, log_fact: np.ndarray, m: np.ndarray,
                 log_m: np.ndarray) -> np.ndarray:
    """Poisson(m) pmf at counts k, from log space; one row per mean.

    ``log_fact`` is gammaln(k + 1) and ``log_m`` holds math.log of each
    mean, the libm log behind scipy's xlogy, so the exponent
    (k log m - m) - gammaln(k + 1) has xlogy's bytes, with k = 0 giving 0.
    exp runs only where that exponent is at least ln(DBL_MIN), and every
    weight below DBL_MIN is 0: a subnormal weight would send each multiply
    it enters down the CPU's slow path.  Dropping a weight only lowers the
    sums it enters, all of whose terms are nonnegative.
    """
    with np.errstate(invalid="ignore"):  # 0 * log(0) for k = 0 at t = 0
        x = k * log_m[:, None]
    x[:, k == 0] = 0.0
    x -= m[:, None]
    x -= log_fact
    w = np.zeros_like(x)
    np.exp(x, out=w, where=x >= _LOG_TINY)
    w[w < _TINY] = 0.0
    return w


def _logs(m: np.ndarray) -> np.ndarray:
    """math.log of each mean, -inf at 0."""
    return np.array([math.log(v) if v > 0.0 else -math.inf for v in m])


def _matvec_kernel(PT: _CSR):
    """The compiled kernel for P^T: (name, f), f(v, y) adding P^T v into y.

    With more than ``_CHAIN_NNZ`` stored entries DIA is taken when P^T's
    occupied diagonals times n is at most ``_DIA_FILL`` times its stored
    entries, which every larger chain generator meets; the diagonals are
    counted from the CSR arrays in O(nnz).  The offsets ascend, so each
    output entry adds its products in column order, as ``csr_matvec`` does
    over sorted indices, and a padded zero adds +0.0 to a sum of
    nonnegative products: both give the same bytes.  Otherwise the name is
    "csr-chained": f is ``csr_matvec``, which makes each block's first
    term, and the pass makes the rest in runs over ``_stack(PT, K)``.
    """
    n = PT.shape[0]
    indptr, indices, data = PT.indptr, PT.indices, PT.data
    chained = "csr-chained", partial(_csr_matvec, n, n, indptr, indices, data)
    if len(data) <= _CHAIN_NNZ:
        return chained
    diag = indices - np.repeat(np.arange(n), np.diff(indptr)) + (n - 1)
    occupied = np.flatnonzero(np.bincount(diag, minlength=2 * n - 1))
    if len(occupied) * n > _DIA_FILL * len(data):
        return chained
    slot = np.zeros(2 * n - 1, dtype=np.intp)
    slot[occupied] = np.arange(len(occupied))
    diags = np.zeros((len(occupied), n))
    diags[slot[diag], indices] = data
    offsets = (occupied - (n - 1)).astype(indices.dtype)
    return "dia", partial(_dia_matvec, n, n, len(offsets), n, offsets, diags)


def _stack(PT: _CSR, K: int):
    """(copies, indptr, indices, data): the CSR arrays of ``copies`` copies
    of P^T down the diagonal, copy j reading entries j n .. j n + n - 1 of
    its input and writing the same entries of its output.  At most
    ``_COPIES`` and K copies, as a pass uses no more, and past one copy
    their stored entries and rows each stay within ``_STACK_ENTRIES``, so
    P^T's index type holds them."""
    n, nnz = PT.shape[0], len(PT.data)
    copies = max(1, min(_COPIES, K, _STACK_ENTRIES // max(nnz, n)))
    j = np.arange(copies, dtype=PT.indices.dtype)[:, None]
    indptr = np.append((PT.indptr[:-1] + j * nnz).ravel(), copies * nnz)
    return (copies, indptr.astype(PT.indices.dtype),
            (PT.indices + j * n).ravel(), np.tile(PT.data, copies))


def _transition_transpose(Q: _CSR, rate: float) -> _CSR:
    """P^T for P = I + Q/rate, with the bytes of scipy's
    ``(identity + Q / rate).T.tocsr()``: scipy divides by a scalar as a
    product with its reciprocal, the identity adds 1.0 to each diagonal
    entry, and an entry that comes out exactly 0, as a chain's diagonal in
    the row that sets Lambda does, is not stored."""
    n = Q.shape[0]
    rows = Q.rows()
    data = Q.data * (1 / rate)
    on = rows == Q.indices
    diag = np.ones(n)
    diag[rows[on]] += data[on]
    vals = np.concatenate([data[~on], diag])
    keep = vals != 0.0
    every = np.arange(n, dtype=rows.dtype)
    return _csr(vals[keep], np.concatenate([Q.indices[~on], every])[keep],
                np.concatenate([rows[~on], every])[keep], (n, n))


class TruncatedCME:
    """One uniformization solve of p' = p Q on [0, t_final].

    p(t) = sum_{k <= K} Poisson(k; Lambda t) p0 P^k with P = I + Q/Lambda.
    Construction fixes Lambda (``uniform_rate``), P, K (``poisson_terms``)
    and the solver term, so ResourceLimitError raises at solve time, but
    runs no mat-vec.  Every query (``p``, ``mass``, ``cdf_by_class`` or
    ``occupation``) accepts only times in [0, t_final], and runs a pass
    only if it has uncached times or z is still missing.  A pass is one
    sweep of K mat-vecs that yields p at those times together with
    p(t_final) and the occupation time z.  Every result is a pointwise
    lower bound that drops at most ``TAIL_SHARE * budget`` of mass.
    ``kernel`` names the mat-vec kernel picked for P^T at construction
    ("csr-chained" or "dia"); ``passes``, ``matvecs`` (terms made)
    and ``kernel_calls`` (compiled calls that made them) count the work
    done so far.
    """

    def __init__(self, Q: _CSR, classes: np.ndarray, p0: np.ndarray,
                 t_final: float, budget: float, states=None):
        self._Q = Q
        self.classes = classes
        self.p0 = p0
        self.t_final = t_final
        self.budget = budget
        self.states = states
        # with no transitions any positive rate works: P is the identity
        rate = float((-Q.diagonal()).max(initial=0.0))
        self.uniform_rate = rate if rate > 0.0 else 1.0
        self._PT = _transition_transpose(Q, self.uniform_rate)
        self.kernel, self._matvec = _matvec_kernel(self._PT)
        # solver_term, the Poisson stop-loss, bounds the mass and flux the
        # solve leaves out
        self.poisson_terms, self.solver_term, sf = _poisson_stop(
            self.uniform_rate * t_final, TAIL_SHARE * budget)
        self._stack = (_stack(self._PT, self.poisson_terms)
                       if self.kernel == "csr-chained" else (1,))
        # z = int_0^T p = sum_k P(N_T > k) / Lambda * p0 P^k
        self._z_weights = sf / self.uniform_rate
        self._z = None
        self._cache = {}
        self.passes = 0
        self.matvecs = 0
        self.kernel_calls = 0

    @property
    def sol(self) -> TruncatedCME:  # the benchmark's tracer reads cme.sol
        return self

    @cached_property
    def Q(self):
        """The generator as a scipy CSR matrix, made on first access."""
        return _to_scipy(self._Q)

    @property
    def occupation(self) -> np.ndarray:
        """Time each state is occupied on [0, t_final], in expectation."""
        if self._z is None:
            self._pass([])
        return self._z

    def p(self, t):
        """The state vector at time t, or one column per time for an
        array of times."""
        times = np.atleast_1d(np.asarray(t, dtype=float))
        if times.ndim != 1 or not np.all((times >= 0)
                                         & (times <= self.t_final)):
            raise ValidationError(f"times must lie in [0, {self.t_final}]")
        new = sorted({float(s) for s in times} - self._cache.keys())
        if new or self._z is None:
            self._pass([s for s in new if s != self.t_final])
        P = np.column_stack([self._cache[float(s)] for s in times])
        return P[:, 0] if np.ndim(t) == 0 else P

    def mass(self, t) -> float:
        return float(np.sum(self.p(t)))

    def cdf_by_class(self, t, levels) -> np.ndarray:
        """P(class <= level) for each requested level, at one time, or one
        column per time for an array of times."""
        below = self.classes <= np.asarray(levels)[:, None]
        return below.astype(float) @ self.p(t)

    def _pass(self, times: list) -> None:
        """Sum p0 P^k over k = 0..K with Poisson(k; Lambda t) weights, one
        row per time and one for t_final, into the cache, and z with it.

        The terms are made into a zeroed 256-term block, which is weighted
        by one product for the times together and one for t_final alone.
        Each block's first term is p0 or one call of the ``kernel`` on a
        copy of the previous block's last term, and ``_runs`` makes the
        rest, with DIA one term a call.  Chained, one ``csr_matvec`` call
        over m stacked copies of P^T makes rows
        a+1..a+m from rows a..a+m-1 of the same block: input and output
        overlap, and copy j reads row a+j, which the call wrote as copy
        j-1.  This rests on ``csr_matvec`` finishing each output row, in
        ascending order, before it starts the next, so each call gives the
        bytes of m separate ones.  Every kernel adds into its output, so on
        a zeroed row each gives the bytes of ``P^T @ v``.  gammaln(k + 1)
        and t_final's weights are made once per pass, the times' weights
        block by block, and a pass with no times besides t_final
        (``truncate``, ``plan-truncation``) makes and multiplies none.
        Every weight below DBL_MIN is 0 (``_poisson_pmf``).
        """
        n, K = len(self.p0), self.poisson_terms
        log_fact = _special.gammaln(np.arange(K + 1) + 1.0)
        means = self.uniform_rate * np.array(times)
        log_means = _logs(means)
        final_mean = self.uniform_rate * np.array([self.t_final])
        final_weights = _poisson_pmf(np.arange(K + 1), log_fact, final_mean,
                                     _logs(final_mean))
        out = np.zeros((len(times), n))
        final, z = np.zeros((1, n)), np.zeros(n)
        block = np.empty((min(_BLOCK, K + 1), n))
        full = self._runs(block)
        v = self.p0
        for start in range(0, K + 1, _BLOCK):
            stop = min(start + _BLOCK, K + 1)
            terms = block[:stop - start]
            runs = full if len(terms) == len(block) else self._runs(terms)
            block.fill(0.0)
            if start:
                self._matvec(v, terms[0])
            else:
                terms[0] = v
            for f, x, y in runs:
                f(x, y)
            self.kernel_calls += len(runs) + (start > 0)
            ks = np.arange(start, stop)
            if times:
                out += _poisson_pmf(ks, log_fact[start:stop], means,
                                    log_means) @ terms
            final += final_weights[:, start:stop] @ terms
            z += self._z_weights[ks] @ terms
            # the last term, a row of the block the next one zeroes
            v = terms[-1].copy()
        self.passes += 1
        self.matvecs += K
        self._cache.update(zip(times, out))
        self._cache[self.t_final] = final[0]
        self._z = z

    def _runs(self, terms: np.ndarray) -> list:
        """(f, x, y) for each kernel call that makes terms[1:], in order,
        f(x, y) adding P^T x into y: x and y are the flattened runs
        terms[a:a+m] and terms[a+1:a+m+1], m at most the stack's copies
        (one for DIA), and f is the kernel's own call for m = 1, else
        ``csr_matvec`` over the stack's first m copies (see ``_pass``)."""
        copies, *stack = self._stack
        count, n = terms.shape
        flat = terms.ravel()
        runs = []
        for a in range(0, count - 1, copies):
            m = min(copies, count - 1 - a)
            f = (partial(_csr_matvec, m * n, m * n, *stack) if m > 1
                 else self._matvec)
            runs.append((f, flat[a * n:(a + m) * n],
                         flat[(a + 1) * n:(a + m + 1) * n]))
        return runs

    @cached_property
    def crossing_rates(self) -> _CSR:
        """C[N, i] = sum of q_ij over jumps i -> j with class(i) <= N < class(j).

        C @ w is then, for every window [0, N] at once, the rate of jumps out
        of the window weighted by w: with w = p(t) the exit flux at t, with
        w = z its integral over [0, t_final].  All entries are positive, so
        the reduction has no cancellation.
        """
        Q = self._Q
        row = Q.rows()
        ci, cj = self.classes[row], self.classes[Q.indices]
        up = cj > ci
        span = (cj - ci)[up]
        first = np.repeat(ci[up], span)
        offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
        return _csr(np.repeat(Q.data[up], span), first + offset,
                    np.repeat(row[up], span),
                    (int(self.classes.max()) + 1, len(self.classes)))


def solve_cme(Q, p0, t_final: float, budget: float = DEFAULT_BUDGET,
              classes=None, states=None) -> TruncatedCME:
    """Solve p' = p Q on [0, t_final] by uniformization.

    With Lambda the largest exit rate, P = I + Q/Lambda is nonnegative and
    substochastic.  One forward pass of sparse mat-vecs accumulates
    p(t_final) = sum_k Poisson(k; Lambda T) p0 P^k and the occupation time
    z = int_0^T p = Lambda^-1 sum_k P(N_{Lambda T} > k) p0 P^k, and stops at
    the smallest K whose Poisson stop-loss E[(N_{Lambda T} - K)^+] is at most
    a tenth of ``budget``.  The partial sums are pointwise lower bounds; the
    mass they drop is at most P(N > K), and the flux they miss at most
    E[(N - K - 1)^+] because every rate is at most Lambda.  That stop-loss is
    the certificates' solver term, a proven bound up to floating-point
    rounding (of order K machine epsilons).  Poisson weights below DBL_MIN
    are 0, which lowers p by at most (K + 1) DBL_MIN an entry, spares each
    product the slow path of subnormal operands, and leaves z untouched;
    the mass deficit counts what they drop.  K and the solver term are fixed
    here, so a solve needing too many terms raises ResourceLimitError here;
    the pass runs at the first query of the returned ``TruncatedCME``.

    Q is a scipy sparse matrix (or a dense array), read as its canonical
    CSR arrays.  The solve runs on compiled kernels loaded by path; no
    ``scipy.sparse``/``scipy.special`` import.  ``solve_chain_cme`` and
    ``solve_network_cme`` build the arrays directly and never import
    ``scipy.sparse`` at all.
    """
    import scipy.sparse as sp
    coo = sp.coo_matrix(Q, dtype=float)
    return _solve(_csr(coo.data, coo.row, coo.col, coo.shape), p0, t_final,
                  budget, classes, states)


def _solve(Q: _CSR, p0, t_final, budget, classes, states) -> TruncatedCME:
    """``solve_cme`` on Q's canonical CSR arrays."""
    p0 = np.asarray(p0, dtype=float)
    n = Q.shape[0]
    if p0.shape != (n,):
        raise ValidationError("p0 length does not match the index set")
    # every comparison with NaN is False, so the sum and sign tests pass it
    if (not np.isfinite(p0).all() or abs(p0.sum() - 1.0) > 1e-9
            or (p0 < 0).any()):
        raise ValidationError("p0 must be a probability vector")
    check_t_final(t_final)
    if not (np.isfinite(budget) and budget > 0):
        raise ValidationError(f"budget must be finite and > 0, got {budget}")
    if not np.isfinite(Q.data).all():
        raise ValidationError("Q has a non-finite rate")
    diagonal = Q.diagonal()
    # each row's entries summed as scipy's Q.sum(axis=1) sums them
    stored = np.flatnonzero(np.diff(Q.indptr))
    row_sums = np.zeros(n)
    row_sums[stored] = np.add.reduceat(Q.data, Q.indptr[stored])
    scale = max(1.0, float(np.abs(diagonal).max(initial=0.0)))
    if ((Q.data[Q.rows() != Q.indices] < 0).any()
            or (row_sums > 1e-12 * scale).any()):
        raise ValidationError("Q is not a generator of an absorbing "
                              "truncation: need rates >= 0, row sums <= 0")
    classes = np.arange(n) if classes is None else np.asarray(classes)
    return TruncatedCME(Q, classes, p0, float(t_final), budget, states=states)


def solve_chain_cme(chain: BoundingChain, M: int, p0, t_final: float,
                    budget: float = DEFAULT_BUDGET) -> TruncatedCME:
    return _solve(_chain_q(chain, M), p0, t_final, budget, np.arange(M + 1),
                  None)


def solve_network_cme(network: ReactionNetwork, partition: ClassPartition,
                      n_max: int, x0, t_final: float,
                      budget: float = DEFAULT_BUDGET) -> TruncatedCME:
    key = tuple(int(v) for v in x0)
    # class_of raises on a wrong length or a negative count
    if partition.class_of(key) > n_max:
        raise ValidationError(f"initial state {key} is outside the index set")
    Q, states, classes = _network_q(network, partition, n_max)
    p0 = (states == np.asarray(key)).all(axis=1).astype(float)
    return _solve(Q, p0, t_final, budget, classes, states)


def delta_p0(M: int, at: int) -> np.ndarray:
    if M < 0:
        raise ValidationError("M must be >= 0")
    if not 0 <= at <= M:
        raise ValidationError(f"delta at {at} is outside [0, {M}]")
    p0 = np.zeros(M + 1)
    p0[at] = 1.0
    return p0


def _initial_tail(cme: TruncatedCME) -> np.ndarray:
    """p0 mass strictly above class N, for every N."""
    mass = np.bincount(cme.classes, weights=cme.p0)
    return np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])


@dataclass
class TruncationCertificate:
    N: int
    M: int
    t_final: float
    mass_deficit: float
    initial_tail: float
    flux: float
    solver_term: float
    bound: float
    bound_clipped: float


def _window_solve(chain, p0, M, t_final, cme):
    """The [0, M] solve from p0 to t_final: ``cme`` if given (it must be
    that solve, and its budget is used), else a new one at DEFAULT_BUDGET."""
    if cme is None:
        return solve_chain_cme(chain, M, p0, t_final)
    if M != cme.classes.max() or t_final != cme.t_final:
        raise ValidationError(
            f"the given solve is the box [0, {int(cme.classes.max())}] to "
            f"t={cme.t_final}, not [0, {M}] to t={t_final}")
    if not np.array_equal(np.asarray(p0, dtype=float), cme.p0):
        raise ValidationError("the given solve starts from another p0")
    return cme


def truncation_certificate(chain: BoundingChain, p0, N: int, M: int,
                           t_final: float,
                           cme: TruncatedCME | None = None) -> TruncationCertificate:
    """Exit-probability bound for the window [0, N] inside the [0, M] solve."""
    if not 0 <= N <= M:
        raise ValidationError(f"need 0 <= N <= M, got N={N}, M={M}")
    cme = _window_solve(chain, p0, M, t_final, cme)
    bounds, parts = certificate_table(cme)
    bound = float(bounds[N])
    return TruncationCertificate(
        N=N, M=int(cme.classes.max()), t_final=cme.t_final,
        mass_deficit=parts["mass_deficit"],
        initial_tail=float(parts["initial_tail"][N]),
        flux=float(parts["flux"][N]), solver_term=parts["solver_term"],
        bound=bound, bound_clipped=min(1.0, max(0.0, bound)),
    )


def certificate_table(cme: TruncatedCME):
    """E_T(N) for every class N from one solve; returns (bounds, parts dict).

    E_T(N) = mass deficit + initial mass above N + time-integrated exit flux
    + solver term.  The flux of every window is one sparse reduction of the
    occupation time z over the upward jumps, sum_{class(i) <= N < class(j)}
    q_ij z_i, and the solver term (the Poisson stop-loss) covers what the
    truncated sums leave out of z.
    """
    mass_deficit = max(0.0, 1.0 - cme.mass(cme.t_final))
    initial_tail = _initial_tail(cme)
    F = cme.crossing_rates @ cme.occupation
    bounds = mass_deficit + initial_tail + F + cme.solver_term
    return bounds, {
        "mass_deficit": mass_deficit,
        "initial_tail": initial_tail,
        "flux": F,
        "solver_term": cme.solver_term,
    }


def check_epsilon(epsilon: float) -> None:
    """A ValidationError unless epsilon is finite and > 0."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be finite and > 0, got {epsilon}")


def min_truncation(chain: BoundingChain, p0, M: int, t_final: float,
                   epsilon: float, cme: TruncatedCME | None = None) -> int:
    """Smallest N in [0, M] with E_T(N) < epsilon.

    Precondition: the whole-box mass deficit (plus the solver term) must
    already be below epsilon, otherwise no window can certify and the box
    M itself has to grow.
    """
    check_epsilon(epsilon)
    cme = _window_solve(chain, p0, M, t_final, cme)
    deficit = max(0.0, 1.0 - cme.mass(t_final)) + cme.solver_term
    if deficit >= epsilon:
        raise InfeasibleError(
            f"whole-box mass deficit {deficit:.3g} is not below "
            f"epsilon={epsilon}; increase M"
        )
    bounds, _ = certificate_table(cme)
    clipped = np.minimum(bounds, 1.0)
    feasible = np.flatnonzero(clipped < epsilon)
    if feasible.size == 0:
        raise InfeasibleError(f"no window [0, N] reaches E_T < {epsilon} "
                              f"inside M={M}")
    return int(feasible[0])


@dataclass
class DominanceReport:
    ok: bool
    max_violation: float
    worst: tuple | None
    checked: int
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def cdf_dominance(chain_cme: TruncatedCME, family, times) -> DominanceReport:
    """Check first CDF <= member CDF + slack over times, classes, family.

    ``chain_cme`` is any pointwise lower bound on a law whose CDF lies
    below each family member's: an upper chain's solve against the
    network's, or the network's against a lower chain's.  Its computed CDF
    lies below its true one, so it needs no slack.  A member's computed
    CDF lies below its true one by at most its mass deficit at time t
    (absorbed mass plus the solver's dropped mass), which is the member's
    slack; both solver budgets are added as a margin for rounding.  Each
    solve is evaluated at all times (and at t = 0) in one pass.  Every
    class of the first solve's window is checked.
    """
    family = list(family)
    times = np.asarray(times, dtype=float)
    if not family or not times.size:
        raise ValidationError("cdf_dominance needs a family member and a time")
    levels = np.arange(int(chain_cme.classes.max()) + 1)
    grid = np.concatenate([[0.0], times])
    lhs = chain_cme.cdf_by_class(grid, levels)
    rhs, slack = [], []
    for theta_idx, member in enumerate(family):
        rhs.append(member.cdf_by_class(grid, levels))
        slack.append(1.0 - member.p(grid).sum(axis=0) + member.budget
                     + chain_cme.budget)
        if np.any(lhs[:, 0] > rhs[-1][:, 0] + 1e-9):
            raise ValidationError(
                f"initial CDFs are not ordered against family member "
                f"{theta_idx}; the dominance theorem does not apply"
            )
    worst = None
    max_violation = -np.inf
    checked = 0
    for i, t in enumerate(times, start=1):
        for theta_idx in range(len(rhs)):
            gap = lhs[:, i] - rhs[theta_idx][:, i] - slack[theta_idx][i]
            checked += len(levels)
            idx = int(np.argmax(gap))
            if gap[idx] > max_violation:
                max_violation = float(gap[idx])
                worst = (float(t), int(levels[idx]), theta_idx)
    ok = max_violation <= 0.0
    return DominanceReport(
        ok=ok, max_violation=max_violation, worst=worst, checked=checked,
        detail="dominance holds within slack" if ok else
        f"violated by {max_violation:.3g} at (t, level, member) = {worst}",
    )
