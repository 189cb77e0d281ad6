"""Stochastic simulation for reaction networks and 1-D chains.

All randomness flows through a counter-based Philox generator seeded
explicitly, so trajectories are reproducible across runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import BoundingChain
from .errors import ValidationError
from .network import ClassPartition, ReactionNetwork, class_of

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
    reason: str  # horizon | exit | cap | absorbed

    @property
    def final_state(self):
        return self.states[-1]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


def ssa(model, x0, t_final: float, stop=None, seed: int = 0,
        jump_cap: int = DEFAULT_JUMP_CAP) -> Trajectory:
    """Exact jump-by-jump simulation up to t_final.

    ``model`` is a ReactionNetwork (vector states) or a BoundingChain
    (integer states).  The waiting time is drawn before the horizon check:
    a jump that would land past t_final is discarded and the path is
    reported at the horizon.  ``stop`` is evaluated on each newly entered
    state and ends the path with reason "exit".
    """
    check_t_final(t_final)
    rng = make_rng(seed)
    is_chain = isinstance(model, BoundingChain)
    if is_chain:
        x = int(x0)
        if x < 0:
            raise ValidationError("chain state must be nonnegative")
    else:
        x = np.asarray(x0, dtype=np.int64).copy()
        if x.shape != (model.d,):
            raise ValidationError(f"x0 must have {model.d} components")
        if (x < 0).any():
            raise ValidationError("states must be nonnegative")
    t = 0.0
    times = [0.0]
    path = [x if is_chain else x.copy()]
    reason = "cap"
    for _ in range(jump_cap):
        if is_chain:
            row = model.row(x)
            offsets = list(row)
            rates = np.array([row[k] for k in offsets])
        else:
            rates = model.rates(x[None])[0]
            if (rates < 0).any():
                bad = int(np.argmin(rates))
                raise ValidationError(
                    f"negative propensity {rates[bad]} for reaction {bad} at "
                    f"{tuple(x)}")
        total = float(rates.sum())
        if total <= 0.0:
            reason = "absorbed"
            break
        dt = rng.exponential(1.0 / total)
        if t + dt > t_final:
            reason = "horizon"
            break
        t += dt
        pick = int(np.searchsorted(np.cumsum(rates), rng.uniform(0, total),
                                   side="right"))
        pick = min(pick, len(rates) - 1)
        if is_chain:
            x = x + offsets[pick]
        else:
            x = x + model.reactions[pick].change
        times.append(t)
        path.append(x if is_chain else x.copy())
        if stop is not None and stop(x):
            reason = "exit"
            break
    states = np.asarray(path)
    return Trajectory(seed=seed, times=np.asarray(times), states=states,
                      reason=reason)


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

    Runs all paths in lockstep: one exponential clock per active path per
    sweep, vectorized over the batch.  A path exits when its class label
    moves above N; paths are frozen at the horizon or on absorption.
    """
    check_t_final(t_final)
    if samples < 1:
        raise ValidationError("need at least one sample")
    x0 = np.asarray(x0, dtype=np.int64)
    if class_of(x0, partition) > N:
        return ExitEstimate(exits=samples, samples=samples, estimate=1.0,
                            lo=1.0, hi=1.0, seed=seed, t_final=t_final, N=N)
    rng = make_rng(seed)
    X = np.tile(x0, (samples, 1))
    t = np.zeros(samples)
    active = np.ones(samples, dtype=bool)
    exited = np.zeros(samples, dtype=bool)
    w = np.asarray(partition.weights, dtype=np.int64)
    changes = np.array([r.change for r in network.reactions], dtype=np.int64)
    class_jump = changes @ w
    sweeps = 0
    while active.any():
        sweeps += 1
        if sweeps > jump_cap:
            raise ValidationError(
                f"exceeded {jump_cap} jumps per path before t={t_final}"
            )
        idx = np.flatnonzero(active)
        Xa = X[idx]
        R = network.rates(Xa)
        if (R < 0).any():
            raise ValidationError("negative propensity during simulation")
        total = R.sum(axis=1)
        dead = total <= 0.0
        if dead.any():
            active[idx[dead]] = False
            idx = idx[~dead]
            if idx.size == 0:
                continue
            Xa, R, total = Xa[~dead], R[~dead], total[~dead]
        dt = rng.exponential(1.0, size=idx.size) / total
        t_new = t[idx] + dt
        over = t_new > t_final
        if over.any():
            active[idx[over]] = False
            keep = ~over
            idx, Xa, R, total, t_new = (idx[keep], Xa[keep], R[keep],
                                        total[keep], t_new[keep])
            if idx.size == 0:
                continue
        t[idx] = t_new
        cum = np.cumsum(R, axis=1)
        u = rng.uniform(0.0, total)
        pick = (u[:, None] >= cum).sum(axis=1)
        np.minimum(pick, R.shape[1] - 1, out=pick)
        X[idx] += changes[pick]
        crossed = (X[idx] @ w) > N
        if crossed.any():
            hit = idx[crossed]
            exited[hit] = True
            active[hit] = False
    k = int(exited.sum())
    lo, hi = wilson_interval(k, samples)
    return ExitEstimate(exits=k, samples=samples, estimate=k / samples,
                        lo=lo, hi=hi, seed=seed, t_final=t_final, N=N)
