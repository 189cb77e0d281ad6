"""Stochastic simulation for reaction networks and 1-D chains.

Plain SSA (Gillespie's direct method) has one kernel, ``_lockstep``: a
batch of paths advanced in sweeps of one jump per live path.  ``ssa`` is a
one-path run on a network's propensities or on the rows of a chain's band,
``estimate_exit`` a many-path run on a network.  All randomness flows
through a counter-based Philox generator seeded explicitly, so trajectories
are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import BoundingChain
from .errors import ValidationError
from .network import (ClassPartition, ReactionNetwork, check_propensities,
                      class_of)

DEFAULT_JUMP_CAP = 100_000_000
Z_95 = 1.959963984540054


def make_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return np.random.Generator(np.random.Philox(seed))


def check_t_final(t_final: float) -> None:
    if not (np.isfinite(t_final) and t_final >= 0.0):
        raise ValidationError(
            f"t_final must be finite and nonnegative, got {t_final}")


@dataclass
class Trajectory:
    seed: int
    times: np.ndarray
    states: np.ndarray
    reason: str  # horizon | exit | cap | absorbed | band

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


def _lockstep(rates, changes, X, t_final, rng, jump_cap, after):
    """Gillespie's direct method on every row of ``X`` at once, in place.

    Each sweep gives every live path one jump: ``rates(X[live])`` is a
    (k, r) matrix whose column i (reaction i of a network) moves a path by
    ``changes[i]``; a negative entry raises, naming the reaction and the
    state.  A path whose row total is 0 is absorbed.  The others draw a clock
    ``exponential(1 / total)``; a jump that would land past ``t_final`` is
    discarded and the path ends at the horizon.  The rest pick a column by
    ``uniform(0, total)`` against the row's cumulative sum (clamped to the
    last column), move, and go to ``after(moved, t)`` with their new times,
    which returns a mask of the moved paths that stop.  Returns each path's
    end: "absorbed", "horizon", "stop", or "cap" for a path still live
    after ``jump_cap`` jumps.
    """
    end = np.full(len(X), "cap", dtype=object)
    t = np.zeros(len(X))
    live = np.arange(len(X))
    for _ in range(jump_cap):
        if not live.size:
            break
        states = X[live]
        R = rates(states)
        check_propensities(R, states)
        total = R.sum(axis=1)
        dead = total <= 0.0
        if dead.any():
            end[live[dead]] = "absorbed"
            live, R, total = live[~dead], R[~dead], total[~dead]
        t_new = t[live] + rng.exponential(1.0 / total)
        over = t_new > t_final
        if over.any():
            end[live[over]] = "horizon"
            keep = ~over
            live, R, total, t_new = live[keep], R[keep], total[keep], t_new[keep]
        if not live.size:
            continue
        u = rng.uniform(0.0, total)
        pick = (np.cumsum(R, axis=1) <= u[:, None]).sum(axis=1)
        np.minimum(pick, R.shape[1] - 1, out=pick)
        X[live] += changes[pick]
        t[live] = t_new
        stop = after(live, t_new)
        end[live[stop]] = "stop"
        live = live[~stop]
    return end


def ssa(model, x0, t_final: float, stop=None, seed: int = 0,
        jump_cap: int = DEFAULT_JUMP_CAP) -> Trajectory:
    """Exact jump-by-jump simulation up to t_final.

    ``model`` is a ReactionNetwork (vector states) or a BoundingChain
    (integer states, with rates from its band on [0, l_total]).  The
    waiting time is drawn before the horizon check: a jump that would land
    past t_final is discarded and the path is reported at the horizon.
    ``stop`` is evaluated on each newly entered state and ends the path
    with reason "exit".  A chain path above ``l_total - j_max``, where the
    next jump could leave the band, ends with reason "band".
    """
    check_t_final(t_final)
    rng = make_rng(seed)
    if isinstance(model, BoundingChain):
        J = model.j_max
        band = model.band(model.l_total)
        X = np.array([[int(x0)]], dtype=np.int64)
        rates, changes = lambda Y: band[Y[:, 0]], np.arange(-J, J + 1)[:, None]
        top, state = model.l_total - J, X[0].item  # reads the moving level
    else:
        X = np.array([x0], dtype=np.int64)
        if X.shape != (1, model.d):
            raise ValidationError(f"x0 must have {model.d} components")
        rates, changes = model.rates, model.change_matrix().reshape(-1, model.d)
        top, state = None, X[0].copy
    if (X < 0).any():
        raise ValidationError("states must be nonnegative")
    times, path = [0.0], [state()]
    reason = "band" if top is not None and path[0] > top else None

    def after(moved, t):
        nonlocal reason
        times.append(float(t[0]))
        path.append(state())
        if stop is not None and stop(path[-1]):
            reason = "exit"
        elif top is not None and path[-1] > top:
            reason = "band"
        return np.array([reason is not None])

    if reason is None:
        end = _lockstep(rates, changes, X, t_final, rng, jump_cap, after)[0]
        reason = reason or end
    return Trajectory(seed=seed, times=np.asarray(times),
                      states=np.asarray(path), reason=reason)


@dataclass
class ExitEstimate:
    exits: int
    samples: int
    estimate: float
    lo: float
    hi: float
    seed: int
    t_final: float
    N: int

    def summary(self) -> str:
        return (f"exit estimate {self.estimate:.4f} "
                f"[{self.lo:.4f}, {self.hi:.4f}] "
                f"({self.exits}/{self.samples} paths left [0, {self.N}] "
                f"by t={self.t_final})")


def wilson_interval(k: int, n: int, z: float = Z_95) -> tuple[float, float]:
    if n <= 0:
        raise ValidationError("need at least one sample")
    phat = k / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    # at the boundaries center and half agree analytically; rounding must
    # not leave the point estimate outside the interval
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


def estimate_exit(network: ReactionNetwork, partition: ClassPartition,
                  N: int, t_final: float, x0, samples: int,
                  seed: int = 0,
                  jump_cap: int = DEFAULT_JUMP_CAP) -> ExitEstimate:
    """Monte Carlo estimate of P(class exceeds N by t_final) from x0.

    Runs all paths in lockstep; a path exits when its class label moves
    above N and is frozen at the horizon or on absorption.
    """
    check_t_final(t_final)
    if samples < 1:
        raise ValidationError("need at least one sample")
    x0 = np.asarray(x0, dtype=np.int64)
    if class_of(x0, partition) > N:
        return ExitEstimate(exits=samples, samples=samples, estimate=1.0,
                            lo=1.0, hi=1.0, seed=seed, t_final=t_final, N=N)
    X = np.tile(x0, (samples, 1))
    w = np.asarray(partition.weights, dtype=np.int64)
    end = _lockstep(network.rates, network.change_matrix(), X,
                    t_final, make_rng(seed), jump_cap,
                    lambda moved, t: X[moved] @ w > N)
    if (end == "cap").any():
        raise ValidationError(
            f"exceeded {jump_cap} jumps per path before t={t_final}")
    k = int((end == "stop").sum())
    lo, hi = wilson_interval(k, samples)
    return ExitEstimate(exits=k, samples=samples, estimate=k / samples,
                        lo=lo, hi=hi, seed=seed, t_final=t_final, N=N)
