"""Command line front end.

Every run that produces an artifact also writes a manifest next to it with
the resolved configuration, a hash of that configuration, a sha256 of every
input file, package versions, and the seeds used, so a result can be traced
back to its inputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .builder import build_bounding_chain, build_counters, verify_assumptions
from .chain import BoundingChain
from .classifier import (ChainClass, check_irreducible, classify, combine,
                         drift_stats)
from .coupling import PATH_CAP, CoupledSimulator, coupled_ssa
from .errors import ResourceLimitError, ToolError, ValidationError
from .network import ClassPartition, load_network
from .simulate import estimate_exit, ssa


def parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated integers, got {text!r}") from exc


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"expected comma-separated numbers, got {text!r}") from exc


# points in one parse_grid grid, checked before the grid is allocated
GRID_CAP = 1 << 16


def parse_grid(text: str, integer: bool = False) -> np.ndarray:
    """start:stop[:step] inclusive grid."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValidationError(f"grid must be start:stop[:step], got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}") from exc
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValidationError(f"bad grid {text!r}")
    span = (hi - lo) / step  # inf when the division overflows
    if not span <= GRID_CAP - 1:
        raise ResourceLimitError(f"grid {text!r} exceeds the cap of "
                                 f"{GRID_CAP} points")
    n = int(round(span))
    grid = lo + step * np.arange(n + 1)
    grid = grid[grid <= hi + 1e-12]
    if integer and (grid != np.round(grid)).any():
        raise ValidationError(f"grid {text!r} has non-integer points")
    return grid.astype(int) if integer else grid


def parse_p0(text: str, M: int) -> np.ndarray:
    from .cme import delta_p0

    if text.startswith("delta:"):
        try:
            at = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValidationError(f"bad initial law {text!r}; use "
                                  "delta:<level>") from exc
        return delta_p0(M, at)
    raise ValidationError(f"unsupported initial law {text!r}; use delta:<level>")


def _versions() -> dict:
    import scipy
    return {
        "package": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


# arguments that name an input file; the manifest records each one's sha256
INPUT_FILES = ("network", "chain", "lower", "upper")


def write_manifest(out_path: Path, command: str, config: dict,
                   seeds=(), counters: dict | None = None) -> Path:
    # callables (the subcommand handler) carry a memory address, not data
    config = {k: v for k, v in sorted(config.items()) if not callable(v)}
    blob = json.dumps(config, sort_keys=True, default=str)
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "inputs": {k: hashlib.sha256(Path(config[k]).read_bytes()).hexdigest()
                   for k in INPUT_FILES if config.get(k)},
        "versions": _versions(),
        "seeds": [int(s) for s in seeds],
    }
    if counters is not None:
        manifest["counters"] = counters
    path = out_path.with_suffix(out_path.suffix + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, default=str) + "\n")
    return path


def _solve(args, M: int, t_final: float):
    """The chain, its initial law and one master-equation solve on [0, M].

    Only the commands that solve one import ``cme`` and its compiled
    kernels loaded by path; no ``scipy.sparse``/``scipy.special`` import.
    """
    from .cme import solve_chain_cme

    chain = BoundingChain.from_csv(args.chain)
    p0 = parse_p0(args.p0, M)
    return chain, p0, solve_chain_cme(chain, M, p0, t_final,
                                      budget=args.budget)


def _solver_counters(cme) -> dict:
    """Uniformization work and its error bound, for the manifest."""
    return {"uniform_rate": cme.uniform_rate,
            "poisson_terms": cme.poisson_terms,
            "solver_term": cme.solver_term,
            "passes": cme.passes,
            "matvecs": cme.matvecs,
            "kernel_calls": cme.kernel_calls,
            "kernel": cme.kernel}


def _emit(args, command: str, doc: dict, **manifest) -> int:
    """Print a JSON result; with --out also write it and its manifest."""
    text = json.dumps(doc, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
        write_manifest(Path(args.out), command, vars(args), **manifest)
    print(text)
    return 0


def cmd_build(args) -> int:
    network = load_network(args.network)
    partition = ClassPartition(parse_ints(args.weights))
    chain = build_bounding_chain(
        network, partition, args.direction, l_exact=args.l_exact,
        l_total=args.l_total, tail_degree=args.tail_degree,
    )
    out = Path(args.out)
    chain.to_csv(out)
    write_manifest(out, "build", vars(args), counters=build_counters(chain))
    print(f"wrote {args.direction} chain for weights {partition.weights} "
          f"to {out} (exact to {chain.l_exact}, trusted to {chain.l_total})")
    return 0


def cmd_verify(args) -> int:
    network = load_network(args.network)
    chain = BoundingChain.from_csv(args.chain)
    report = verify_assumptions(network, ClassPartition(chain.weights), chain,
                                args.l_check)
    if report.ok:
        print(f"verified {chain.direction} bound on [0, {args.l_check}]: "
              f"domination and monotonicity hold")
        return 0
    ce = report.counterexample or {}
    print(f"verification FAILED: {report.detail} "
          f"(kind={ce.get('kind')}, ell={ce.get('ell')}, m={ce.get('m')}, "
          f"witness={ce.get('state')})", file=sys.stderr)
    return 2


def _classify_doc(chain: BoundingChain) -> dict:
    """Drift statistics, class and irreducibility of one chain."""
    stats = drift_stats(chain)
    label = classify(stats)
    attestation = check_irreducible(chain)
    return {
        "direction": chain.direction,
        "B1": stats.b1,
        "B2": stats.b2,
        "B3": stats.b3,
        "valid": stats.valid,
        "degrees": {str(k): int(v) for k, v in stats.degrees.items()},
        "class": label.label,
        "provenance": label.provenance,
        "notes": list(stats.notes),
        "irreducible": attestation.attested,
        "irreducibility_detail": attestation.detail,
    }


def cmd_classify(args) -> int:
    return _emit(args, "classify",
                 _classify_doc(BoundingChain.from_csv(args.chain)))


def _read_report(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValidationError(f"report {path} is not JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"report {path} is not a JSON object")
    return doc


def _verdict_doc(lower: dict, upper: dict,
                 assume_irreducible: bool = False) -> dict:
    """The network's verdict from the lower and upper classify documents."""
    z = ChainClass(lower.get("class"), lower.get("provenance") or "external report")
    y = ChainClass(upper.get("class"), upper.get("provenance") or "external report")
    z_irr = bool(lower.get("irreducible", False)) or assume_irreducible
    y_irr = bool(upper.get("irreducible", False)) or assume_irreducible
    verdict = combine(z, y, z_irreducible=z_irr, y_irreducible=y_irr)
    return {"x_behavior": verdict.label, "detail": verdict.detail,
            "lower_class": z.label, "upper_class": y.label}


def cmd_combine(args) -> int:
    lower = _read_report(args.lower)
    upper = _read_report(args.upper)
    for doc, want, src in ((lower, "lower", args.lower), (upper, "upper", args.upper)):
        if doc.get("direction") not in (want, None):
            raise ValidationError(f"{src} is a {doc.get('direction')} chain, "
                                  f"expected {want}")
    return _emit(args, "combine",
                 _verdict_doc(lower, upper, args.assume_irreducible))


def cmd_couple(args) -> int:
    network = load_network(args.network)
    chain = BoundingChain.from_csv(args.chain)
    partition = ClassPartition(chain.weights)
    x0 = parse_ints(args.x0)
    if args.seeds < 1:
        raise ValidationError(f"--seeds must be at least 1, got {args.seeds}")
    if args.seeds > PATH_CAP:
        raise ResourceLimitError(f"{args.seeds} seeds exceed the cap of "
                                 f"{PATH_CAP} paths")
    seeds = [args.seed + i for i in range(args.seeds)]
    sim = CoupledSimulator(network, partition, chain)
    # every path runs before --out is opened, so a path that fails leaves
    # no partial CSV and no manifest
    trajs = [coupled_ssa(network, partition, chain, x0, args.y0, args.tf,
                         seed=seed, simulator=sim) for seed in seeds]
    jumps = sum(len(traj) - 1 for traj in trajs)
    band_exits = sum(traj.reason == "band" for traj in trajs)
    out = Path(args.out)
    d = network.d
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "t"] + [f"x{i+1}" for i in range(d)]
                        + ["class_x", "y"])
        for seed, traj in zip(seeds, trajs):
            cls = traj.states @ np.asarray(partition.weights, dtype=np.int64)
            for t, x, c, y in zip(traj.times.tolist(), traj.states.tolist(),
                                  cls.tolist(), traj.levels.tolist()):
                writer.writerow([seed, repr(t)] + x + [c, y])
    write_manifest(out, "couple", vars(args), seeds=seeds,
                   counters={"paths": len(seeds), "jumps": jumps,
                             "band_exits": band_exits, **sim.counters})
    print(f"wrote {args.seeds} coupled paths to {out}")
    return 0


def cmd_simulate(args) -> int:
    network = load_network(args.network)
    x0 = parse_ints(args.x0)
    if args.stop:
        m = re.fullmatch(r"class\s*>\s*(\d+)", args.stop.strip())
        if not m:
            raise ValidationError(f"unsupported stop rule {args.stop!r}; "
                                  f"use 'class>N'")
        N = int(m.group(1))
        if not args.weights:
            raise ValidationError("stop rule class>N needs --weights")
        partition = ClassPartition(parse_ints(args.weights))
        est = estimate_exit(network, partition, N, args.tf, x0,
                            samples=args.samples, seed=args.seed)
        doc = {"estimate": est.estimate, "lo": est.lo, "hi": est.hi,
               "exits": est.exits, "samples": est.samples, "N": est.N,
               "t_final": est.t_final, "seed": est.seed}
        return _emit(args, "simulate", doc, seeds=[args.seed],
                     counters={"paths": est.samples, "exits": est.exits,
                               "jumps": est.jumps, "sweeps": est.sweeps})
    traj = ssa(network, x0, args.tf, seed=args.seed)
    out = Path(args.out or "trajectory.csv")
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x{i+1}" for i in range(network.d)])
        for t, x in zip(traj.times.tolist(), traj.states.tolist()):
            writer.writerow([repr(t)] + x)
    write_manifest(out, "simulate", vars(args), seeds=[args.seed],
                   counters={"jumps": len(traj) - 1})
    print(f"wrote one path ({len(traj) - 1} jumps, ended: {traj.reason}) to {out}")
    return 0


def cmd_truncate(args) -> int:
    from .cme import min_truncation, truncation_certificate

    if (args.N is None) == (args.epsilon is None):
        raise ValidationError("give either --N or --epsilon" + (
            "" if args.N is None else ", not both"))
    chain, p0, cme = _solve(args, args.M, args.tf)
    if args.N is not None:
        N = args.N
    else:
        N = min_truncation(chain, p0, args.M, args.tf, args.epsilon, cme=cme)
    cert = truncation_certificate(chain, p0, N, args.M, args.tf, cme=cme)
    return _emit(args, "truncate", dataclasses.asdict(cert),
                 counters=_solver_counters(cme))


def cmd_plan_truncation(args) -> int:
    from .cme import check_epsilon, min_truncation

    epsilons = parse_floats(args.epsilons)
    for eps in epsilons:  # a bad epsilon exits before the solve's pass
        check_epsilon(eps)
    chain, p0, cme = _solve(args, args.M, args.tf)
    plan = {}
    for eps in epsilons:
        plan[str(eps)] = min_truncation(chain, p0, args.M, args.tf, eps,
                                        cme=cme)
    return _emit(args, "plan-truncation",
                 {"M": args.M, "t_final": args.tf, "plan": plan},
                 counters=_solver_counters(cme))


def cmd_heatmap(args) -> int:
    from .cme import _initial_tail

    n_grid = parse_grid(args.n_grid, integer=True)
    if n_grid.min() < 0:
        raise ValidationError(f"window sizes N must be nonnegative, got "
                              f"{args.n_grid!r}")
    t_grid = parse_grid(args.t_grid)
    t_max = float(t_grid.max()) if len(t_grid) else 0.0
    _, _, cme = _solve(args, int(n_grid.max()), t_max or 1.0)
    fine = np.linspace(0.0, t_max, max(2, 16 * len(t_grid)))
    # the fine grid and the requested times in one uniformization pass
    P = cme.p(np.concatenate([fine, t_grid]))
    table = cme.crossing_rates @ P[:, :len(fine)]  # flux_N on the fine grid
    # running integral of the flux (trapezoid), read off at the requested
    # times; it undershoots the exact integral by up to ~5e-5 on the README
    # grid, so cells can sit below certificate_table's E_T
    cumF = np.concatenate(
        [np.zeros((table.shape[0], 1)),
         np.cumsum(0.5 * (table[:, 1:] + table[:, :-1])
                   * np.diff(fine), axis=1)], axis=1)
    p0_tail = _initial_tail(cme)
    out = Path(args.out)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "N", "E_T_clipped"])
        for t, mass in zip(t_grid, P[:, len(fine):].sum(axis=0)):
            deficit = max(0.0, 1.0 - mass)
            row_F = np.array([np.interp(t, fine, cumF[N]) for N in n_grid])
            bounds = deficit + p0_tail[n_grid] + row_F + cme.solver_term
            for N, b in zip(n_grid, bounds):
                writer.writerow([repr(float(t)), int(N),
                                 repr(float(min(1.0, max(0.0, b))))])
    write_manifest(out, "heatmap", vars(args),
                   counters=_solver_counters(cme))
    print(f"wrote {len(t_grid) * len(n_grid)} certificate values to {out}")
    return 0


def cmd_analyze(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    network = load_network(args.network)
    report: dict = {"network": args.network, "stages": {}}
    status = 0

    def stage(name, fn):
        nonlocal status
        try:
            value = fn()
            report["stages"][name] = {"ok": True}
            return value
        except ToolError as exc:
            report["stages"][name] = {"ok": False, "error": str(exc),
                                      "exit_code": exc.exit_code}
            if status == 0:
                status = exc.exit_code
            return None

    labels = {}
    counters = {}
    for direction, weights in (("lower", args.lower_weights),
                               ("upper", args.upper_weights)):
        partition = ClassPartition(parse_ints(weights))
        chain = stage(f"build-{direction}", lambda p=partition, d=direction:
                      build_bounding_chain(network, p, d,
                                           l_exact=args.l_exact,
                                           tail_degree=3))
        if chain is None:
            continue
        path = out_dir / f"{direction}.csv"
        chain.to_csv(path)
        counters[direction] = build_counters(chain)
        report[f"{direction}_chain"] = str(path)

        def classify_stage(c=chain):
            doc = _classify_doc(c)  # analysis.json keeps seven of its keys
            return {k: doc[k] for k in ("class", "provenance", "B1", "B2",
                                        "B3", "valid", "irreducible")}
        info = stage(f"classify-{direction}", classify_stage)
        if info is not None:
            labels[direction] = info
            report[f"{direction}_class"] = info

    if "lower" in labels and "upper" in labels:
        def combine_stage():
            doc = _verdict_doc(labels["lower"], labels["upper"])
            return {k: doc[k] for k in ("x_behavior", "detail")}
        verdict = stage("combine", combine_stage)
        if verdict is not None:
            report["verdict"] = verdict

    path = out_dir / "analysis.json"
    path.write_text(json.dumps(report, indent=2, default=str) + "\n")
    write_manifest(path, "analyze", vars(args), counters=counters)
    print(json.dumps(report, indent=2, default=str))
    return status


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bounds",
        description="1-D bounding chains for stochastic reaction networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct an optimal bounding chain")
    p.add_argument("--network", required=True)
    p.add_argument("--weights", required=True)
    p.add_argument("--direction", choices=("upper", "lower"), required=True)
    p.add_argument("--l-exact", type=int, default=300)
    p.add_argument("--l-total", type=int, default=None)
    p.add_argument("--tail-degree", type=int, default=1, choices=(1, 2, 3))
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("verify", help="check domination and monotonicity")
    p.add_argument("--network", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--l-check", type=int, default=60)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("classify", help="drift statistics and chain class")
    p.add_argument("--chain", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("combine", help="merge lower and upper verdicts")
    p.add_argument("--lower", required=True)
    p.add_argument("--upper", required=True)
    p.add_argument("--assume-irreducible", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_combine)

    p = sub.add_parser("couple", help="simulate network and bound jointly")
    p.add_argument("--network", required=True)
    p.add_argument("--chain", required=True)
    p.add_argument("--x0", required=True)
    p.add_argument("--y0", type=int, required=True)
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("simulate", help="plain stochastic simulation")
    p.add_argument("--network", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--x0", required=True)
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--stop", default=None, help="exit rule, e.g. 'class>40'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("truncate", help="certify an exit-probability bound")
    p.add_argument("--chain", required=True)
    p.add_argument("--p0", required=True, help="delta:<level>")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--budget", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_truncate)

    p = sub.add_parser("plan-truncation",
                       help="smallest window per target, one solve")
    p.add_argument("--chain", required=True)
    p.add_argument("--p0", required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--tf", type=float, required=True)
    p.add_argument("--epsilons", required=True, help="e.g. 0.1,0.01")
    p.add_argument("--budget", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_plan_truncation)

    p = sub.add_parser("heatmap", help="certificate over a (t, N) grid")
    p.add_argument("--chain", required=True)
    p.add_argument("--p0", required=True)
    p.add_argument("--n-grid", required=True, help="start:stop[:step]")
    p.add_argument("--t-grid", required=True, help="start:stop[:step]")
    p.add_argument("--budget", type=float, default=1e-8)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_heatmap)

    p = sub.add_parser("analyze", help="build, classify, and combine")
    p.add_argument("--network", required=True)
    p.add_argument("--lower-weights", required=True)
    p.add_argument("--upper-weights", required=True)
    p.add_argument("--l-exact", type=int, default=300)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ToolError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # stdout's reader has gone (bounds ... | head): what is left goes
        # to devnull, so the flush at interpreter exit cannot fail again
        sys.stdout = open(os.devnull, "w")
        return 1
    except OSError as exc:
        # inputs are checked where they are read; this is an output path
        # that cannot be written, or a report file that cannot be read
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return ValidationError.exit_code


if __name__ == "__main__":
    sys.exit(main())
