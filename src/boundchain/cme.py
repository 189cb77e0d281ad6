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
term.  The pass runs at a solve's first query, for p(t_final), z and every
time of that query up to t_final at once; it costs K, about Lambda *
t_final, sparse mat-vecs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy import special

from .chain import BoundingChain
from .errors import InfeasibleError, ResourceLimitError, ValidationError
from .network import (ClassPartition, ReactionNetwork, check_propensities,
                      class_rates)

DEFAULT_BUDGET = 1e-8
MULTI_STATE_CAP = 1_000_000
POISSON_TERM_CAP = 2_000_000
# the pass stops once the Poisson stop-loss is this share of the budget, so
# p itself (not only the certificate) stays within a tenth of the budget
TAIL_SHARE = 0.1
_BLOCK = 256  # Poisson terms buffered before they are weighted and summed


def chain_generator(chain: BoundingChain, M: int) -> sp.csr_matrix:
    """Generator of a 1-D chain restricted to [0, M], diagonal kept full."""
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
    return sp.csr_matrix((rates[ell, col], (ell, ell + col - J)),
                         shape=(M + 1, M + 1))


def network_generator(network: ReactionNetwork, partition: ClassPartition,
                      n_max: int, cap: int = MULTI_STATE_CAP):
    """Generator on all states of class <= n_max, class-major lexicographic.

    Returns (Q, states, classes) with ``states`` the (n, d) state array and
    ``classes`` the class label per index.  Mass leaves the box only
    through classes above n_max; a reaction that fires out of the orthant
    is a ValidationError.
    """
    d = partition.d
    base = n_max + 1
    if base ** (d + 1) > np.iinfo(np.int64).max:
        raise ResourceLimitError(
            f"state codes for n_max={n_max} in {d} species overflow int64"
        )
    runs = list(class_rates(network, partition, n_max, cap=cap))
    states = np.concatenate([X for _, _, X, _ in runs])
    rates = np.concatenate([R for _, _, _, R in runs], axis=1)
    classes = np.repeat(np.arange(n_max + 1),
                        np.concatenate([sizes for _, sizes, _, _ in runs]))
    check_propensities(rates.T, states)
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
        leaves = (dests < 0).any(axis=1)
        if leaves.any():
            state = tuple(int(v) for v in states[fires[np.argmax(leaves)]])
            raise ValidationError(
                f"reaction {k} leaves the orthant from {state}")
        dclass = classes[fires] + int(w @ nu)
        inside = dclass <= n_max
        rows.append(fires[inside])
        cols.append(np.searchsorted(
            codes, dclass[inside] * base ** d + dests[inside] @ radix))
        vals.append(rates[k, fires[inside]])
    diag = np.arange(len(states))
    Q = sp.csr_matrix(
        (np.concatenate(vals + [-exit_rate]),
         (np.concatenate(rows + [diag]), np.concatenate(cols + [diag]))),
        shape=(len(states), len(states)))
    return Q, states, classes


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
        sf = special.pdtrc(k, m)
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


def _poisson_pmf(k: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Poisson(m) pmf at counts k, from log space; one row per mean."""
    m = np.asarray(m, dtype=float)[:, None]
    return np.exp(special.xlogy(k, m) - m - special.gammaln(k + 1.0))


class UniformizedSolution:
    """p(t) = sum_{k <= K} Poisson(k; Lambda t) p0 P^k with P = I + Q/Lambda.

    Called with a time it returns the state vector, with an array of times
    one column per time, as a dense ODE solution does.  Construction fixes
    Lambda, P and K (so ResourceLimitError raises at solve time) but runs no
    mat-vec.  The first query (a call or ``occupation``) runs the pass: one
    sweep of K mat-vecs that yields p(t_final), the occupation time z and p
    at every time of that query up to t_final.  A first query past t_final
    runs that pass for t_final and z alone, then one pass with the larger K
    for its other times; every later query at new times runs one pass.  K is
    fixed by t_final (or by a later time asked for), so every result is a
    pointwise lower bound that drops at most ``TAIL_SHARE * budget`` of mass.
    ``passes`` and ``matvecs`` count the work done so far.
    """

    def __init__(self, Q: sp.csr_matrix, p0: np.ndarray, t_final: float,
                 budget: float):
        exit_rate = -Q.diagonal()
        # with no transitions any positive rate works: P is the identity
        self.rate = float(exit_rate.max()) if exit_rate.size else 0.0
        if self.rate <= 0.0:
            self.rate = 1.0
        n = Q.shape[0]
        self._PT = (sp.identity(n, format="csr") + Q / self.rate).T.tocsr()
        self.p0 = p0
        self.t_final = t_final
        self.budget = budget
        self.terms, self.solver_term, sf = _poisson_stop(
            self.rate * t_final, TAIL_SHARE * budget)
        # z = int_0^T p = sum_k P(N_T > k) / Lambda * p0 P^k
        self._z_weights = sf / self.rate
        self._z = None
        self._cache = {}
        self.passes = 0
        self.matvecs = 0

    @property
    def occupation(self) -> np.ndarray:
        if self._z is None:
            self._pass([], self.terms, final=True)
        return self._z

    def __call__(self, t):
        times = np.atleast_1d(np.asarray(t, dtype=float))
        if times.ndim != 1 or not np.all(np.isfinite(times)) \
                or np.any(times < 0):
            raise ValidationError("times must be finite and nonnegative")
        new = sorted({float(s) for s in times} - self._cache.keys())
        if self._z is None:
            # the t_final pass takes the query's other times along unless
            # one of them needs a larger K
            along = [s for s in new if s != self.t_final]
            if along and along[-1] > self.t_final:
                along = []
            self._pass(along, self.terms, final=True)
            new = [s for s in new if s not in self._cache]
        if new:
            K = self.terms
            if new[-1] > self.t_final:
                K = _poisson_stop(self.rate * new[-1],
                                  TAIL_SHARE * self.budget)[0]
            self._pass(new, K)
        P = np.column_stack([self._cache[float(s)] for s in times])
        return P[:, 0] if np.ndim(t) == 0 else P

    def _pass(self, times: list, K: int, final: bool = False) -> None:
        """Sum p0 P^k over k = 0..K with Poisson(k; Lambda t) weights, one
        row per time, into the cache; with ``final`` also p(t_final) and z.

        Each 256-term block is weighted by one product per group of times:
        t_final alone, and the other times together.
        """
        n = len(self.p0)
        groups = [times] + ([[self.t_final]] if final else [])
        groups = [(ts, self.rate * np.array(ts), np.zeros((len(ts), n)))
                  for ts in groups if ts]
        z = np.zeros(n) if final else None
        block = np.empty((min(_BLOCK, K + 1), n))
        v = self.p0
        for start in range(0, K + 1, _BLOCK):
            stop = min(start + _BLOCK, K + 1)
            for r, k in enumerate(range(start, stop)):
                if k:
                    v = self._PT @ v
                block[r] = v
            ks = np.arange(start, stop)
            terms = block[:len(ks)]
            for _, means, out in groups:
                out += _poisson_pmf(ks, means) @ terms
            if z is not None:
                z += self._z_weights[ks] @ terms
        self.passes += 1
        self.matvecs += K
        for ts, _, out in groups:
            self._cache.update(zip(ts, out))
        if z is not None:
            self._z = z


@dataclass
class TruncatedCME:
    Q: sp.csr_matrix
    classes: np.ndarray
    p0: np.ndarray
    t_final: float
    budget: float
    sol: UniformizedSolution
    states: np.ndarray | None = None

    @property
    def occupation(self) -> np.ndarray:
        """Time each state is occupied on [0, t_final], in expectation."""
        return self.sol.occupation

    @property
    def uniform_rate(self) -> float:
        return self.sol.rate

    @property
    def poisson_terms(self) -> int:
        return self.sol.terms

    @property
    def solver_term(self) -> float:
        """Poisson stop-loss: bounds the mass and flux the solve leaves out."""
        return self.sol.solver_term

    def p(self, t):
        return self.sol(t)

    def mass(self, t) -> float:
        return float(np.sum(self.sol(t)))

    def cdf_by_class(self, t, levels) -> np.ndarray:
        """P(class <= level) for each requested level, at one time, or one
        column per time for an array of times."""
        below = self.classes <= np.asarray(levels)[:, None]
        return below.astype(float) @ self.p(t)

    @cached_property
    def crossing_rates(self) -> sp.csr_matrix:
        """C[N, i] = sum of q_ij over jumps i -> j with class(i) <= N < class(j).

        C @ w is then, for every window [0, N] at once, the rate of jumps out
        of the window weighted by w: with w = p(t) the exit flux at t, with
        w = z its integral over [0, t_final].  All entries are positive, so
        the reduction has no cancellation.
        """
        coo = self.Q.tocoo()
        ci, cj = self.classes[coo.row], self.classes[coo.col]
        up = cj > ci
        span = (cj - ci)[up]
        first = np.repeat(ci[up], span)
        offset = np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
        return sp.csr_matrix(
            (np.repeat(coo.data[up], span),
             (first + offset, np.repeat(coo.row[up], span))),
            shape=(int(self.classes.max()) + 1, len(self.classes)))


def solve_cme(Q: sp.spmatrix, p0, t_final: float,
              budget: float = DEFAULT_BUDGET, classes=None,
              states=None) -> TruncatedCME:
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
    rounding (of order K machine epsilons).  K and the solver term are fixed
    here, and a solve needing too many terms raises ResourceLimitError here;
    the pass itself runs at the first query (``p``, ``mass``,
    ``cdf_by_class`` or ``occupation``), for p(t_final), z and every time of
    that query up to t_final at once.  It costs K mat-vecs, about
    Lambda * t_final; each later query at new times runs one more pass.
    """
    p0 = np.asarray(p0, dtype=float)
    n = Q.shape[0]
    if p0.shape != (n,):
        raise ValidationError("p0 length does not match the index set")
    if abs(p0.sum() - 1.0) > 1e-9 or (p0 < 0).any():
        raise ValidationError("p0 must be a probability vector")
    if not (np.isfinite(t_final) and t_final >= 0):
        raise ValidationError(f"t_final must be finite and >= 0, got {t_final}")
    if not (np.isfinite(budget) and budget > 0):
        raise ValidationError(f"budget must be finite and > 0, got {budget}")
    Q = sp.csr_matrix(Q, dtype=float)
    off = Q - sp.diags(Q.diagonal())
    row_sums = np.asarray(Q.sum(axis=1)).ravel()
    scale = max(1.0, float(np.abs(Q.diagonal()).max(initial=0.0)))
    if (off.data < 0).any() or (row_sums > 1e-12 * scale).any():
        raise ValidationError("Q is not a generator of an absorbing "
                              "truncation: need rates >= 0, row sums <= 0")
    if classes is None:
        classes = np.arange(n)
    return TruncatedCME(Q=Q, classes=np.asarray(classes), p0=p0,
                        t_final=float(t_final), budget=budget,
                        sol=UniformizedSolution(Q, p0, float(t_final), budget),
                        states=states)


def solve_chain_cme(chain: BoundingChain, M: int, p0, t_final: float,
                    budget: float = DEFAULT_BUDGET) -> TruncatedCME:
    Q = chain_generator(chain, M)
    return solve_cme(Q, p0, t_final, budget=budget, classes=np.arange(M + 1))


def solve_network_cme(network: ReactionNetwork, partition: ClassPartition,
                      n_max: int, x0, t_final: float,
                      budget: float = DEFAULT_BUDGET) -> TruncatedCME:
    Q, states, classes = network_generator(network, partition, n_max)
    p0 = np.zeros(len(classes))
    key = tuple(int(v) for v in x0)
    hits = np.flatnonzero((states == np.asarray(key)).all(axis=1))
    if hits.size != 1:
        raise ValidationError(f"initial state {key} is outside the index set")
    p0[hits[0]] = 1.0
    return solve_cme(Q, p0, t_final, budget=budget, classes=classes,
                     states=states)


def delta_p0(M: int, at: int) -> np.ndarray:
    if not 0 <= at <= M:
        raise ValidationError(f"delta at {at} is outside [0, {M}]")
    p0 = np.zeros(M + 1)
    p0[at] = 1.0
    return p0


def _initial_tail(cme: TruncatedCME) -> np.ndarray:
    """p0 mass strictly above class N, for every N."""
    mass = np.bincount(cme.classes, weights=cme.p0)
    return np.concatenate([np.cumsum(mass[::-1])[::-1][1:], [0.0]])


def exit_flux(cme: TruncatedCME, N: int):
    """Outflow rate from classes <= N, and its time integral over [0, T_f].

    The flux at time t is the sum over states of class <= N of p(t) times
    the rate into states of class > N; its integral is the same sum over
    the occupation time z, short of the true one by at most the solver term.
    """
    C = cme.crossing_rates
    u = C[N] if 0 <= N < C.shape[0] else sp.csr_matrix((1, C.shape[1]))

    def flux(t):
        vals = (u @ cme.p(t))[0]
        return float(vals) if np.ndim(t) == 0 else vals

    return flux, float((u @ cme.occupation)[0])


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

    def summary(self) -> str:
        return (f"E_T({self.N}) <= {self.bound_clipped:.6g} "
                f"(mass deficit {self.mass_deficit:.3g}, initial tail "
                f"{self.initial_tail:.3g}, flux {self.flux:.3g}, solver "
                f"{self.solver_term:.3g})")


def _certificate(cme: TruncatedCME, N: int) -> TruncationCertificate:
    bounds, parts = certificate_table(cme)
    bound = float(bounds[N])
    return TruncationCertificate(
        N=N, M=int(cme.classes.max()), t_final=cme.t_final,
        mass_deficit=parts["mass_deficit"],
        initial_tail=float(parts["initial_tail"][N]),
        flux=float(parts["flux"][N]), solver_term=parts["solver_term"],
        bound=bound, bound_clipped=min(1.0, max(0.0, bound)),
    )


def _window_solve(chain, p0, M, t_final, budget, cme):
    """The [0, M] solve to t_final: ``cme`` if given (it must be that
    solve), else a new one."""
    if cme is None:
        return solve_chain_cme(chain, M, p0, t_final, budget=budget)
    if M != cme.classes.max() or t_final != cme.t_final:
        raise ValidationError(
            f"the given solve is the box [0, {int(cme.classes.max())}] to "
            f"t={cme.t_final}, not [0, {M}] to t={t_final}")
    return cme


def truncation_certificate(chain: BoundingChain, p0, N: int, M: int,
                           t_final: float, budget: float = DEFAULT_BUDGET,
                           cme: TruncatedCME | None = None) -> TruncationCertificate:
    """Exit-probability bound for the window [0, N] inside the [0, M] solve."""
    if not 0 <= N <= M:
        raise ValidationError(f"need 0 <= N <= M, got N={N}, M={M}")
    return _certificate(_window_solve(chain, p0, M, t_final, budget, cme), N)


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


def min_truncation(chain: BoundingChain, p0, M: int, t_final: float,
                   epsilon: float, budget: float = DEFAULT_BUDGET,
                   cme: TruncatedCME | None = None) -> int:
    """Smallest N in [0, M] with E_T(N) < epsilon.

    Precondition: the whole-box mass deficit (plus the solver term) must
    already be below epsilon, otherwise no window can certify and the box
    M itself has to grow.
    """
    if not 0 < epsilon:
        raise ValidationError("epsilon must be positive")
    cme = _window_solve(chain, p0, M, t_final, budget, cme)
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
    """Check chain CDF <= network CDF + slack over times, classes, family.

    Both solves are pointwise lower bounds on the true laws, so the chain
    side needs no slack; each family member contributes its own mass
    deficit at time t (absorbed mass plus the solver's dropped mass), and
    both solver budgets are added as a margin for rounding.  Each solve is
    evaluated at all times (and at t = 0) in one pass.  Every class of the
    chain's window is checked.
    """
    levels = np.arange(int(chain_cme.classes.max()) + 1)
    times = np.asarray(times, dtype=float)
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
