"""The traced run: each operation again, stage by stage, with spans.

A traced operation first runs through the CLI exactly as in the untraced
run, then replays the same work through the public functions with a span
around every call into a layer (for example compute_f -> optimal_U ->
phi_inverse -> detect_tails in place of build_bounding_chain).  The replay's
outputs must equal the CLI's, which shows the traced run did the same work.
Probes are isolated calls made alongside the operation (enumerating the
classes it visits, building its coupling rows afresh, ...); they hang under
their own root span, so they never count toward a layer's self time.

Spans live in memory and are written out when the run ends.  Span names are
``<layer>.<stage>`` with the layer named after its module; a span's metric is
``<name>_s``, its total seconds per operation, or, for the spans in
PER_CALL, the mean per call.  Counts recorded on a span are metrics under
their own names.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from boundchain import (BoundingChain, ClassPartition, CoupledSimulator,
                        certificate_table, chain_generator, check_irreducible,
                        classify, combine, compute_f, coupled_ssa,
                        cdf_dominance, delta_p0, detect_tails, drift_stats,
                        enumerate_class, estimate_exit, j_max, load_network,
                        min_truncation, network_generator, optimal_U,
                        phi_inverse, pi_bar, solve_cme, truncation_certificate,
                        verify_assumptions)
from boundchain.cli import parse_grid

import ops

# span -> unit of its per-call metric (mean over the span's "calls" count)
PER_CALL = {"chain.row": "us", "transport.pi_bar": "us",
            "coupling.row_build": "us", "cme.min_truncation": "s"}
ROW_PROBE_LEVELS = 2001     # chain.row probe: row(ell) for ell 0..2000
PI_BAR_CASES = 1000         # transport probe: criterion-4-style pairs


class Tracer:
    """Spans kept in memory: name, start, end, parent, operation id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Yield the span's counts dict; counts become metrics."""
        rec = {"name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None, "counts": {}}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec["counts"]
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def dump(self, path: Path, origin: float) -> None:
        rows = [dict(s, start=s["start"] - origin, end=s["end"] - origin)
                for s in self.spans]
        Path(path).write_text(json.dumps(rows) + "\n")


# -- replays ----------------------------------------------------------------


def _load(T: Tracer):
    with T.span("network.load"):
        return load_network(ops.NETWORK)


def _build(T: Tracer, network, part, direction, l_exact, l_total, degree):
    """build_bounding_chain, one stage per span."""
    J = j_max(network, part)
    with T.span("builder.compute_f"):
        f = compute_f(network, part, direction, l_exact + J)
    with T.span("builder.optimal_U"):
        U = optimal_U(f)
    with T.span("builder.phi_inverse"):
        skeleton = phi_inverse(U, weights=part.weights)
    with T.span("builder.detect_tails") as counts:
        tails = detect_tails(skeleton, part, degree_max=degree)
        counts["builder.tail_models"] = len(tails)
    with T.span("chain.construct"):
        return BoundingChain(direction, J, skeleton.l_exact,
                             l_total or l_exact, skeleton.exact, tails,
                             weights=part.weights)


def _steps(cme) -> int:
    """Solver steps, len(sol.ts) - 1; -1 when the solution keeps no grid."""
    return len(getattr(cme.sol, "ts", ())) - 1


def _solve(T: Tracer, path, M, p0, t_final):
    with T.span("chain.from_csv"):
        chain = BoundingChain.from_csv(path)
    with T.span("cme.chain_generator"):
        Q = chain_generator(chain, M)
    with T.span("cme.chain_solve") as counts:
        cme = solve_cme(Q, p0, t_final, classes=np.arange(M + 1))
        counts["cme.chain_solve_steps"] = _steps(cme)
    return chain, cme


def _replay_analyze(T, fx, p, wd, seed):
    out, labels, irreducible = {}, {}, {}
    with T.span("cli.analyze"):
        network = _load(T)
        for direction, weights in (("lower", (2, 2, 5)), ("upper", (2, 1, 1))):
            chain = _build(T, network, ClassPartition(weights), direction,
                           p["l_exact"], None, 3)
            with T.span("chain.to_csv"):
                chain.to_csv(wd / f"{direction}.csv")
            with T.span("classifier.classify"):
                labels[direction] = classify(drift_stats(chain))
            with T.span("classifier.irreducible"):
                irreducible[direction] = check_irreducible(chain).attested
        with T.span("classifier.combine"):
            out["verdict"] = combine(
                labels["lower"], labels["upper"],
                z_irreducible=irreducible["lower"],
                y_irreducible=irreducible["upper"]).label
    with T.span("cli.build"):
        network = _load(T)
        naive = _build(T, network, ClassPartition((1, 1, 1)), "upper",
                       p["naive_l_exact"], p["naive_l_total"], 2)
        with T.span("chain.to_csv"):
            naive.to_csv(wd / "naive.csv")
    with T.span("cli.verify"):
        network = _load(T)
        with T.span("chain.from_csv"):
            upper = BoundingChain.from_csv(wd / "upper.csv")
        with T.span("builder.verify"):
            verify_assumptions(network, ClassPartition(tuple(upper.weights)),
                               upper, p["l_check"])
    for name in ("lower", "upper", "naive"):
        out[f"{name}_sha256"] = ops.sha256(wd / f"{name}.csv")
    return out, {}


def heatmap_cells(cme, n_grid, t_grid, p0, solver_term) -> dict:
    """E_T(N) at each (t, N): mass deficit + initial tail + flux integral
    (trapezoid on 16 points per requested time) + solver term."""
    fine = np.linspace(0.0, float(t_grid.max()), max(2, 16 * len(t_grid)))
    P = np.clip(cme.p(fine), 0.0, None)
    Q = cme.Q.tocoo()
    up = Q.col > Q.row
    rows, cols, rates = Q.row[up], Q.col[up], Q.data[up]
    # flux_N(t) sums q_ij p_i(t) over the upward jumps i <= N < j
    D = np.zeros_like(P)
    np.add.at(D, rows, rates[:, None] * P[rows])
    np.add.at(D, cols, -rates[:, None] * P[rows])
    flux = np.cumsum(D, axis=0)
    area = np.concatenate(
        [np.zeros((len(flux), 1)),
         np.cumsum(0.5 * (flux[:, 1:] + flux[:, :-1]) * np.diff(fine),
                   axis=1)], axis=1)
    tail = np.concatenate([np.cumsum(p0[::-1])[::-1][1:], [0.0]])
    cells = {}
    for t in t_grid:
        deficit = max(0.0, 1.0 - cme.mass(t))
        for N in n_grid:
            bound = (deficit + tail[N] + np.interp(t, fine, area[N])
                     + solver_term)
            cells[f"{float(t)!r},{int(N)}"] = min(1.0, max(0.0, float(bound)))
    return cells


def _replay_truncate(T, fx, p, wd, seed):
    M = p["M"]
    p0 = delta_p0(M, ops.P0_LEVEL)
    with T.span("cli.plan-truncation"):
        chain, plan_cme = _solve(T, fx.u70, M, p0, ops.TF)
        plan = {}
        for eps in ops.EPSILONS:
            with T.span("cme.min_truncation") as counts:
                counts["calls"] = 1
                plan[str(eps)] = min_truncation(chain, p0, M, ops.TF, eps,
                                                cme=plan_cme)
    n_grid = parse_grid(p["n_grid"], integer=True)
    t_grid = parse_grid(ops.T_GRID)
    M_heat = int(n_grid.max())
    p0_heat = delta_p0(M_heat, ops.P0_LEVEL)
    for _ in range(p["repeat"]):
        with T.span("cli.truncate"):
            chain, cme = _solve(T, fx.u70, M, p0, ops.TF)
            with T.span("cme.truncation_certificate"):
                cert = truncation_certificate(chain, p0, ops.N_WINDOW, M,
                                              ops.TF, cme=cme)
        with T.span("cli.heatmap"):
            chain, cme = _solve(T, fx.u70, M_heat, p0_heat,
                                float(t_grid.max()))
            with T.span("cli.heatmap_table"):
                heat = heatmap_cells(cme, n_grid, t_grid, p0_heat,
                                     cert.solver_term)
    out = {"plan": plan, "bound": cert.bound_clipped, "heatmap": heat}
    return out, {"chain": chain, "cme": plan_cme}


def _replay_network_cme(T, fx, p, wd, seed):
    n = p["n_max"]
    with T.span("cme.network_generator") as counts:
        Q, states, classes = network_generator(fx.network, ops.PART, n)
        counts["cme.network_states"] = len(states)
    p0 = (states == np.asarray(ops.CME_X0)).all(axis=1).astype(float)
    with T.span("cme.network_solve") as counts:
        net_cme = solve_cme(Q, p0, ops.CME_TF, classes=classes, states=states)
        counts["cme.network_solve_steps"] = _steps(net_cme)
    with T.span("cme.chain_generator"):
        Qc = chain_generator(fx.chain, n)
    with T.span("cme.chain_solve") as counts:
        chain_cme = solve_cme(Qc, delta_p0(n, ops.CME_LEVEL), ops.CME_TF,
                              classes=np.arange(n + 1))
        counts["cme.chain_solve_steps"] = _steps(chain_cme)
    with T.span("cme.cdf_dominance"):
        rep = cdf_dominance(chain_cme, [net_cme], ops.CME_TIMES)
    return {"dominance_ok": bool(rep.ok), "checked": int(rep.checked),
            "max_violation": float(rep.max_violation)}, {}


def _replay_couple(T, fx, p, wd, seed):
    n = p["seeds"]
    weights = np.asarray(ops.WEIGHTS)
    rows = []
    with T.span("cli.couple"):
        network = _load(T)
        with T.span("chain.from_csv"):
            chain = BoundingChain.from_csv(fx.u70)
        with T.span("coupling.simulator"):
            sim = CoupledSimulator(network, ops.PART, chain)
        for s in range(seed, seed + n):
            with T.span("coupling.ssa") as counts:
                traj = coupled_ssa(network, ops.PART, chain, ops.COUPLE_X0,
                                   ops.COUPLE_Y0, p["tf"], seed=s,
                                   simulator=sim)
                counts["coupling.jumps"] = len(traj) - 1
                counts["coupling.band_exits"] = int(traj.reason == "band")
            rows.append(np.column_stack(
                [np.full(len(traj), s), traj.times, traj.states,
                 traj.states @ weights, traj.levels]).astype(float))
    with T.span("cli.simulate"):
        network = _load(T)
        with T.span("simulate.estimate_exit") as counts:
            est = estimate_exit(network, ops.PART, ops.N_WINDOW, ops.TF,
                                ops.EXIT_X0, samples=p["samples"],
                                seed=seed + n)
            counts["simulate.paths"] = est.samples
            counts["simulate.exits"] = est.exits
    paths = np.vstack(rows)
    out = {"paths": paths, "jumps": len(paths) - n, "exits": est.exits,
           "samples": est.samples, "estimate": est.estimate}
    return out, {"network": network, "chain": chain}


REPLAYS = {"analyze": _replay_analyze, "truncate": _replay_truncate,
           "network-cme": _replay_network_cme, "couple": _replay_couple}


# -- probes -----------------------------------------------------------------

_COLD_COUNT = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
from boundchain import ClassPartition, class_size
visits = json.loads(sys.argv[2])
t0 = time.perf_counter()
for weights, top in visits:
    part = ClassPartition(tuple(weights))
    for ell in range(top + 1):
        class_size(ell, part)
print(time.perf_counter() - t0)
"""


def _analyze_visits(network, p) -> list:
    """(weights, top class) of every compute_f pass the analyze op makes."""
    def top(weights, l_exact):
        return l_exact + j_max(network, ClassPartition(weights))
    J = j_max(network, ops.PART)
    return [((2, 2, 5), top((2, 2, 5), p["l_exact"])),
            ((2, 1, 1), top((2, 1, 1), p["l_exact"])),
            ((1, 1, 1), top((1, 1, 1), p["naive_l_exact"])),
            ((2, 1, 1), max(p["l_check"], 2 * J + 2))]


def _probe_analyze(T, fx, p, out, extra):
    visits = _analyze_visits(fx.network, p)
    with T.span("network.enumerate") as counts:
        states = 0
        for weights, top in visits:
            part = ClassPartition(weights)
            for ell in range(top + 1):
                states += len(enumerate_class(ell, part))
        counts["network.states"] = states
    # a fresh interpreter, so no class count is cached yet
    with T.span("network.class_count_process") as counts:
        done = subprocess.run(
            [sys.executable, "-c", _COLD_COUNT, str(ops.ROOT / "src"),
             json.dumps(visits)],
            capture_output=True, text=True, check=True, timeout=120)
        counts["network.class_count_cold_s"] = float(done.stdout.split()[-1])


def _probe_rows(T, chain):
    with T.span("chain.row") as counts:
        for ell in range(ROW_PROBE_LEVELS):
            chain.row(ell)
        counts["calls"] = ROW_PROBE_LEVELS


def _probe_truncate(T, fx, p, out, extra):
    with T.span("cme.certificate_table"):
        certificate_table(extra["cme"])
    _probe_rows(T, extra["chain"])


def _pi_bar_cases(rng) -> list:
    """Prefix-dominated (a, b) pairs of length <= 12, as in criterion 4."""
    cases = []
    for case in range(PI_BAR_CASES):
        n = int(rng.integers(1, 13))
        b = rng.uniform(0.0, 3.0, size=n)
        b[rng.uniform(size=n) < 0.2] = 0.0
        if b.sum() == 0.0:
            b[0] = 1.0
        B = np.cumsum(b)
        if case % 10 == 0:
            a = b.copy()
        else:
            A = np.maximum.accumulate(
                np.minimum(B + (B[-1] - B) * rng.uniform(size=n), B[-1]))
            A[-1] = B[-1]
            a = np.diff(A, prepend=0.0)
        cases.append((a, b))
    return cases


def _probe_couple(T, fx, p, out, extra):
    _probe_rows(T, extra["chain"])
    cases = _pi_bar_cases(np.random.default_rng(42))
    with T.span("transport.pi_bar") as counts:
        for a, b in cases:
            pi_bar(a, b)
        counts["calls"] = len(cases)
    pairs = np.unique(out["paths"][:, [2, 3, 4, 6]].astype(np.int64), axis=0)
    sim = CoupledSimulator(extra["network"], ops.PART, extra["chain"])
    with T.span("coupling.row_build") as counts:
        for x1, x2, x3, level in pairs:
            sim.row((x1, x2, x3), int(level))
        counts["calls"] = len(pairs)
        counts["coupling.rows_distinct"] = len(pairs)


PROBES = {"analyze": _probe_analyze, "truncate": _probe_truncate,
          "network-cme": lambda *args: None, "couple": _probe_couple}


# -- one traced operation ---------------------------------------------------


def trace(T: Tracer, op: ops.Op, op_id: int, fx: ops.Fixture, wd: Path,
          seed: int) -> None:
    """Replay ``op`` under spans, probe it, and derive its layer metrics.

    A replay whose outputs differ from the CLI's is a failed operation.
    """
    if op.errors:
        return
    p = ops.SIZES[op.size][op.kind]
    T.op = op_id
    try:
        replay_dir = wd / "replay"
        replay_dir.mkdir()
        with T.span(f"op.{op.kind}"):
            out, extra = REPLAYS[op.kind](T, fx, p, replay_dir, seed)
        with T.span(f"probe.{op.kind}"):
            PROBES[op.kind](T, fx, p, out, extra)
    except Exception as exc:  # noqa: BLE001 - the run goes on and counts it
        op.errors.append(f"traced replay: {type(exc).__name__}: {exc}")
        return
    finally:
        T.op = None
    untraced = {k: op.out[k] for k in out}
    op.errors += [f"traced replay differs from the untraced run: {d}"
                  for d in ops.differences(untraced, out, op.kind)]
    op.layers = layer_metrics(T.spans, op_id)
    op.layers["trace.untraced_op_s"] = op.total_s
    op.layers["trace.overhead_s"] = (op.layers[f"op.{op.kind}_s"]
                                     - op.total_s)
    if op.kind == "couple":
        op.layers["coupling.row_reuse"] = 1.0 - (
            op.layers["coupling.rows_distinct"] / op.layers["coupling.jumps"])


def layer_metrics(spans: list, op_id: int) -> dict:
    """Per-operation metrics from the spans of one operation."""
    mine = [i for i, s in enumerate(spans) if s["op"] == op_id]
    duration = {i: spans[i]["end"] - spans[i]["start"] for i in mine}
    children = defaultdict(float)
    in_probe = {}
    for i in mine:
        parent = spans[i]["parent"]
        if parent is not None:
            children[parent] += duration[i]
        in_probe[i] = (spans[i]["name"].startswith("probe.")
                       or (parent in in_probe and in_probe[parent]))
    totals, counts, metrics = defaultdict(float), defaultdict(float), {}
    for i in mine:
        name = spans[i]["name"]
        totals[name] += duration[i]
        for key, value in spans[i]["counts"].items():
            counts[(name, key)] += value
            if key != "calls":
                metrics[key] = metrics.get(key, 0) + value
        layer = name.split(".")[0]
        if not in_probe[i] and layer != "op":
            key = f"{layer}.self_s"
            metrics[key] = (metrics.get(key, 0.0)
                            + duration[i] - children[i])
    for name, seconds in totals.items():
        if name in PER_CALL:
            scale = 1e6 if PER_CALL[name] == "us" else 1.0
            metrics[f"{name}_{PER_CALL[name]}"] = (
                seconds / counts[(name, "calls")] * scale)
        else:
            metrics[f"{name}_s"] = seconds
    return metrics
