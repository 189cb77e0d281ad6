"""Stochastic simulation for reaction networks.

Plain SSA (Gillespie's direct method) has one kernel, ``_lockstep``: a
batch of paths advanced in sweeps of one jump per live path, the live ones
kept packed with their propensities as one (reactions, paths) block.
``ssa`` is a one-path run, ``estimate_exit`` a many-path run that carries
each path's class label.  All randomness flows through a counter-based
Philox generator seeded explicitly, so trajectories are reproducible across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ValidationError
from .network import (ClassPartition, ReactionNetwork, _check_dims,
                      check_int64, check_propensities)

DEFAULT_JUMP_CAP = 100_000_000  # jumps (sweeps) of one lockstep path
# paths of one estimate_exit run.  The lockstep kernel keeps a few float64
# and int64 words a path beside its (d, paths) states and (reactions, paths)
# rates, and copies both while it packs: on the example network (3 species,
# 6 reactions) a run peaks at 208 bytes a path, 208 MB at the cap
DEFAULT_SAMPLE_CAP = 1_000_000
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
    reason: str  # horizon | absorbed | cap

    def __len__(self) -> int:
        return len(self.times)


def _lockstep(network, S, t_final, rng, after, w=None):
    """Gillespie's direct method on every column of ``S`` at once.

    ``S`` is a (d, paths) int64 block of start states, one column per
    path, which the kernel takes over.  The live paths are kept packed, in
    ascending path order so the draws come in the same order however many
    have ended: their states as the columns of ``S``, their times, their
    path indices and, given class weights ``w``, their integer class
    labels.
    Each sweep gives every live path one jump.  ``network._rate_block(S)``
    is a new (r, k) block, which the kernel overwrites, whose row i moves
    a path by reaction i's change; it must pass ``check_propensities``, so
    no path takes a negative count.  A running sum down the reaction axis
    gives each path's total and its pick.  A path whose total is 0 is
    absorbed.  The others draw a clock
    ``standard_exponential() * (1 / total)``; a jump that would land past
    ``t_final`` is discarded and the path ends at the horizon.  The rest
    pick a reaction by ``random() * total`` against the running sum
    (clamped to the last reaction), move, add ``(changes @ w)[pick]`` to
    their labels, and go to ``after(S, t, labels)`` with their new states,
    times and labels (``None`` without ``w``), which returns a mask of the
    paths that stop.
    A path that ends leaves the packed set.

    Returns each path's end: "absorbed", "horizon", "stop", or "cap" for a
    path live after DEFAULT_JUMP_CAP jumps; then the jumps made over all
    paths and the sweeps taken.
    """
    changes = network.change_matrix()
    end = np.full(S.shape[1], "cap", dtype=object)
    t = np.zeros(S.shape[1])
    rows = np.arange(S.shape[1])
    moves = np.ascontiguousarray(changes.T)
    labels = shift = None
    if w is not None:
        labels, shift = w @ S, changes @ w
    last = len(changes) - 1
    jumps = sweeps = 0

    def retire(gone, reason):
        """End the masked paths; returns the mask of those that go on."""
        nonlocal S, t, rows, labels
        end[rows[gone]] = reason
        keep = ~gone
        S, t, rows = S.compress(keep, axis=1), t[keep], rows[keep]
        if labels is not None:
            labels = labels[keep]
        return keep

    while rows.size and sweeps < DEFAULT_JUMP_CAP:
        sweeps += 1
        C = network._rate_block(S)  # made the running sum in place
        check_propensities(network, C.T, S.T)
        # numpy sums a row of eight or more entries pairwise, not in order;
        # otherwise the total is the view C[-1], the end of the running sum
        total = np.ascontiguousarray(C.T).sum(axis=1) if last >= 7 else C[-1]
        for i in range(last):
            np.add(C[i], C[i + 1], out=C[i + 1])
        gone = total <= 0.0
        if gone.any():
            keep = retire(gone, "absorbed")
            if not rows.size:
                break
            C, total = C.compress(keep, axis=1), total[keep]
        # the same draws and products as exponential(1 / total) and
        # uniform(0, total), without their per-element argument handling
        t_new = t + rng.standard_exponential(total.size) * (1.0 / total)
        gone = t_new > t_final
        if gone.any():
            keep = retire(gone, "horizon")
            if not rows.size:
                break
            C, total = C.compress(keep, axis=1), total[keep]
            t_new = t_new[keep]
        # C is nondecreasing down each column, so counting the first r - 1
        # entries at or below u is the count over all r clamped to r - 1
        pick = (C[:last] <= rng.random(total.size) * total).sum(axis=0)
        del C, total  # not held while the next sweep's block is built
        S += moves.take(pick, axis=1)
        t = t_new
        jumps += rows.size
        if labels is not None:
            labels += shift[pick]
        gone = after(S, t, labels)
        if gone.any():
            retire(gone, "stop")
    return end, jumps, sweeps


def ssa(network: ReactionNetwork, x0, t_final: float,
        seed: int = 0) -> Trajectory:
    """Exact jump-by-jump simulation of a network up to t_final.

    The waiting time is drawn before the horizon check: a jump that would
    land past t_final is discarded and the path is reported at the
    horizon.  A path still running after DEFAULT_JUMP_CAP jumps ends with
    reason "cap".
    """
    check_t_final(t_final)
    rng = make_rng(seed)
    check_int64(x0, "count")
    X = np.array([x0], dtype=np.int64)
    if X.shape != (1, network.d):
        raise ValidationError(f"x0 must have {network.d} components")
    if (X < 0).any():
        raise ValidationError("states must be nonnegative")
    times, path = [0.0], [X[0].copy()]

    def after(S, t, labels):
        times.append(float(t[0]))
        path.append(S[:, 0].copy())
        return np.zeros(1, dtype=bool)

    end = _lockstep(network, X.T.copy(), t_final, rng, after)[0]
    return Trajectory(seed=seed, times=np.asarray(times),
                      states=np.asarray(path), reason=end[0])


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
    jumps: int = 0  # over all paths
    sweeps: int = 0  # of the lockstep kernel


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for k successes in n trials."""
    if n <= 0:
        raise ValidationError("need at least one sample")
    phat = k / n
    z = Z_95
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
                  seed: int = 0) -> ExitEstimate:
    """Monte Carlo estimate of P(class exceeds N by t_final) from x0.

    Runs all paths in lockstep; a path exits when its class label moves
    above N and is frozen at the horizon or on absorption.  A path still
    running after DEFAULT_JUMP_CAP jumps is a ValidationError, and more
    than DEFAULT_SAMPLE_CAP samples a ResourceLimitError, raised before
    any path is made.
    """
    check_t_final(t_final)
    _check_dims(network, partition)
    if samples < 1:
        raise ValidationError("need at least one sample")
    if samples > DEFAULT_SAMPLE_CAP:
        raise ResourceLimitError(f"{samples} samples exceed the cap of "
                                 f"{DEFAULT_SAMPLE_CAP} paths")
    check_int64(x0, "count")
    x0 = np.asarray(x0, dtype=np.int64)
    if partition.class_of(x0) > N:
        return ExitEstimate(exits=samples, samples=samples, estimate=1.0,
                            lo=1.0, hi=1.0, seed=seed, t_final=t_final, N=N)
    end, jumps, sweeps = _lockstep(
        network, np.repeat(x0[:, None], samples, axis=1), t_final,
        make_rng(seed), lambda S, t, labels: labels > N,
        np.asarray(partition.weights, dtype=np.int64))
    if (end == "cap").any():
        raise ValidationError(
            f"exceeded {DEFAULT_JUMP_CAP} jumps per path before t={t_final}")
    k = int((end == "stop").sum())
    lo, hi = wilson_interval(k, samples)
    return ExitEstimate(exits=k, samples=samples, estimate=k / samples,
                        lo=lo, hi=hi, seed=seed, t_final=t_final, N=N,
                        jumps=jumps, sweeps=sweeps)
