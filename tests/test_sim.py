"""Stochastic simulation: exactness, reproducibility, exit estimates."""

import hashlib

import numpy as np
import pytest

from boundchain import (BoundingChain, ClassPartition, ValidationError,
                        coupled_ssa, delta_p0, estimate_exit, make_rng,
                        network_from_dict, solve_chain_cme, ssa,
                        wilson_interval)
from boundchain import simulate
from conftest import NETWORK_DOC

PURE_BIRTH = {
    "species": ["X"],
    "reactions": [{"change": [1], "propensity": [{"coeff": 4.0}]}],
}

PURE_DEATH = {
    "species": ["X"],
    "reactions": [{"change": [-1],
                   "propensity": [{"coeff": 1.0,
                                   "factors": [{"species": "X"}]}]}],
}


def test_rng_is_reproducible():
    a = make_rng(42).uniform(size=5)
    b = make_rng(42).uniform(size=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, make_rng(43).uniform(size=5))
    with pytest.raises(ValidationError):
        make_rng(-1)


@pytest.mark.parametrize("t_final", [-1.0, np.inf, np.nan])
def test_simulators_reject_bad_horizons(network, part211, upper211, t_final):
    with pytest.raises(ValidationError):
        ssa(network, (3, 2, 1), t_final)
    with pytest.raises(ValidationError):
        estimate_exit(network, part211, 40, t_final, (3, 2, 1), samples=10)
    with pytest.raises(ValidationError):
        coupled_ssa(network, part211, upper211, (3, 2, 1), 12, t_final)


def test_ssa_reproducible(network):
    t1 = ssa(network, (3, 2, 1), t_final=2.0, seed=7)
    t2 = ssa(network, (3, 2, 1), t_final=2.0, seed=7)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.states, t2.states)
    t3 = ssa(network, (3, 2, 1), t_final=2.0, seed=8)
    assert not np.array_equal(t1.times, t3.times)


def test_ssa_jump_count_is_poisson():
    # constant rate 4 for 100 time units: the jump count has mean 400 and
    # standard deviation 20; four sigmas is a 1-in-16000 flake
    net = network_from_dict(PURE_BIRTH)
    traj = ssa(net, (0,), t_final=100.0, seed=11)
    jumps = len(traj) - 1
    assert traj.reason == "horizon"
    assert abs(jumps - 400) < 80
    assert traj.states[-1][0] == jumps
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] <= 100.0


def test_ssa_absorption():
    net = network_from_dict(PURE_DEATH)
    traj = ssa(net, (6,), t_final=1e9, seed=3)
    assert traj.reason == "absorbed"
    assert traj.states[-1][0] == 0
    assert len(traj) == 7  # six deaths, no other moves


NEGATIVE_DEATH = {
    "species": ["X"],
    "reactions": [
        {"change": [1], "propensity": [{"coeff": 1.0}]},
        {"change": [-1], "propensity": [{"coeff": -0.5,
                                         "factors": [{"species": "X"}]}]},
    ],
}


def test_simulators_name_a_negative_propensity():
    net = network_from_dict(NEGATIVE_DEATH)
    message = r"negative propensity -1\.5 for reaction 1 at \(3,\)"
    with pytest.raises(ValidationError, match=message):
        ssa(net, (3,), t_final=1.0)
    with pytest.raises(ValidationError, match=message):
        estimate_exit(net, ClassPartition((1,)), N=10, t_final=1.0, x0=(3,),
                      samples=5)


def test_ssa_validation(network):
    with pytest.raises(ValidationError):
        ssa(network, (1, 1), t_final=1.0)
    with pytest.raises(ValidationError):
        ssa(network, (-1, 0, 0), t_final=1.0)


def test_ssa_jump_cap(monkeypatch, network):
    monkeypatch.setattr(simulate, "DEFAULT_JUMP_CAP", 25)
    traj = ssa(network, (3, 2, 1), t_final=1e9, seed=0)
    assert traj.reason == "cap"
    assert len(traj) == 26


def test_estimate_exit_jump_cap(monkeypatch, network, part211):
    # no path leaves [0, 10**6] or ends by t = 1e9 within 25 jumps
    monkeypatch.setattr(simulate, "DEFAULT_JUMP_CAP", 25)
    with pytest.raises(ValidationError,
                       match=r"^exceeded 25 jumps per path before "
                             r"t=1000000000\.0$"):
        estimate_exit(network, part211, N=10**6, t_final=1e9, x0=(3, 2, 1),
                      samples=20)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and 0.95 < lo < 1.0
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi
    assert (hi - lo) < 0.2
    with pytest.raises(ValidationError):
        wilson_interval(0, 0)


def test_estimate_exit_trivial(network, part211):
    est = estimate_exit(network, part211, N=5, t_final=1.0, x0=(10, 0, 0),
                        samples=50, seed=0)
    assert est.estimate == 1.0 and est.lo == 1.0 and est.hi == 1.0
    assert est.exits == est.samples == 50


def test_estimate_exit_bounds_and_summary(network, part211):
    est = estimate_exit(network, part211, N=60, t_final=0.5, x0=(3, 2, 1),
                        samples=400, seed=5)
    assert 0.0 <= est.lo <= est.estimate <= est.hi <= 1.0
    assert est.estimate == est.exits / est.samples


def test_estimate_exit_matches_serial_probability():
    # birth-death where exit by t is likely; compare against the truncated
    # CME exit probability (1 - surviving mass below N)
    doc = {
        "species": ["X"],
        "reactions": [
            {"change": [1], "propensity": [{"coeff": 6.0}]},
            {"change": [-1],
             "propensity": [{"coeff": 0.5,
                             "factors": [{"species": "X"}]}]},
        ],
    }
    net = network_from_dict(doc)
    part = ClassPartition((1,))
    N = 12
    up = np.full(N + 1, 6.0)
    down = 0.5 * np.arange(N + 1, dtype=float)
    chain = BoundingChain("upper", 1, N, N, {1: up, -1: down}, {}, (1,))
    cme = solve_chain_cme(chain, N, delta_p0(N, 4), t_final=2.0)
    p_exit = 1.0 - cme.mass(2.0)  # absorbed mass = paths that left [0, N]
    est = estimate_exit(net, part, N=N, t_final=2.0, x0=(4,), samples=4000,
                        seed=17)
    assert est.lo - 0.01 <= p_exit <= est.hi + 0.01
    assert abs(est.estimate - p_exit) < 0.04


def test_estimate_exit_absorbing_paths_do_not_exit():
    net = network_from_dict(PURE_DEATH)
    part = ClassPartition((1,))
    est = estimate_exit(net, part, N=20, t_final=100.0, x0=(10,),
                        samples=64, seed=1)
    assert est.exits == 0
    assert est.hi < 0.1


# exit counts of the lockstep kernel from class 80: the +2 birth exits a
# window of 81 directly, a window of 82 needs an odd class first
@pytest.mark.parametrize("N, exits", [(81, [23, 28, 29]), (82, [1, 0, 0]),
                                      (110, [0, 0, 0])])
def test_estimate_exit_counts_are_pinned(network, part211, N, exits):
    got = [estimate_exit(network, part211, N, 4.0, (30, 10, 10),
                         samples=4000, seed=seed).exits for seed in range(3)]
    assert got == exits


# (exits, jumps, sweeps) of 2,000 paths from the benchmark's start, class
# 80, to t = 4, recorded while the kernel drew exponential(1 / total) and
# uniform(0, total); its fill forms must take the same draws
@pytest.mark.parametrize("N, want", [
    (81, [(18, 272559, 214), (14, 273564, 229), (16, 272949, 227)]),
    (110, [(0, 274502, 220), (0, 275330, 208), (0, 274890, 210)])])
def test_estimate_exit_work_is_pinned(network, part211, N, want):
    got = [estimate_exit(network, part211, N, 4.0, (30, 10, 10),
                         samples=2000, seed=seed) for seed in range(3)]
    assert [(e.exits, e.jumps, e.sweeps) for e in got] == want


def _ssa_digest(network, x0, t_final, seeds) -> str:
    h = hashlib.sha256()
    for seed in seeds:
        traj = ssa(network, x0, t_final, seed=seed)
        h.update(traj.reason.encode())
        h.update(np.ascontiguousarray(traj.times).tobytes())
        h.update(np.ascontiguousarray(traj.states, dtype=np.int64).tobytes())
    return h.hexdigest()


def test_ssa_paths_are_pinned(network):
    # sha256 over reason, times and states of 20 one-path runs each
    assert _ssa_digest(network, (3, 2, 1), 4.0, range(20)) == (
        "4a47b4c124e5d2388a0e313d32bdd10eb8ce967817f14bebbecd846b487eabea")
    assert _ssa_digest(network_from_dict(PURE_DEATH), (6,), 1e9,
                       range(20)) == (
        "2c066e7b5161d39c708d940f41cf3fd3b196dcacf5c65ed466439cf2b9360e43")


def test_wide_rate_rows_are_pinned():
    # eight reactions: numpy sums a row of eight or more entries pairwise,
    # not left to right, so the clocks of these paths pin the row total's
    # order of addition
    wide = network_from_dict(dict(NETWORK_DOC, reactions=[
        *NETWORK_DOC["reactions"],
        {"change": [0, 1, 0], "propensity": [{"coeff": 0.7}]},
        {"change": [0, 0, 1],
         "propensity": [{"coeff": 0.3, "factors": [{"species": 0}]}]},
    ]))
    assert [estimate_exit(wide, ClassPartition((2, 1, 1)), 81, 4.0,
                          (30, 10, 10), samples=2000, seed=seed).exits
            for seed in range(3)] == [18, 14, 17]
    assert _ssa_digest(wide, (3, 2, 1), 4.0, range(10)) == (
        "8fdaaf9271fac4f1f657365a4b6ae45279e5a52c9fb44b87ef744c9f35b029c9")
