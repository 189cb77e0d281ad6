"""The operations the four workloads repeat, their output checks, and set-up.

Every command runs in-process through ``boundchain.cli.main`` with its
output files in a per-operation directory and its stdout captured.  The
network-CME operation is the one library-only operation: no ``bounds``
command solves a network master equation, so it calls the public functions.

``SIZES["full"]`` is the load a workload repeats in its timed loop.
``SIZES["small"]`` is the same operation shrunk; a run interleaves the
operations its workload does not repeat at that size, so that every run
reports every end-to-end metric (see README.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from boundchain import (BoundingChain, ClassPartition, cdf_dominance,
                        classify, delta_p0, drift_stats, load_network,
                        solve_chain_cme, solve_network_cme)
from boundchain.cli import main as bounds

ROOT = Path(__file__).resolve().parents[1]
NETWORK = ROOT / "docs" / "examples" / "network.json"

SIZES = {
    "full": {
        "analyze": {"l_exact": 200, "naive_l_exact": 200,
                    "naive_l_total": 2000, "l_check": 190},
        "truncate": {"M": 500, "n_grid": "80:160:10", "repeat": 3},
        "network-cme": {"n_max": 24},
        "couple": {"seeds": 12, "tf": 20.0, "samples": 20_000},
    },
    "small": {
        "analyze": {"l_exact": 60, "naive_l_exact": 40,
                    "naive_l_total": 400, "l_check": 50},
        "truncate": {"M": 160, "n_grid": "80:120:10", "repeat": 1},
        "network-cme": {"n_max": 16},
        "couple": {"seeds": 4, "tf": 5.0, "samples": 4_000},
    },
}

# fixed inputs shared by the commands, from the README examples
WEIGHTS = (2, 1, 1)
PART = ClassPartition(WEIGHTS)
P0_LEVEL = 80              # truncate family: delta:80, t_f = 4
TF = 4.0
EPSILONS = (0.1, 0.01)
N_WINDOW = 110
T_GRID = "0.5:4:0.5"
CME_X0 = (5, 2, 2)         # network-cme: class 14 for weights (2,1,1)
CME_LEVEL = 14
CME_TF = 1.0
CME_TIMES = np.linspace(0.05, 1.0, 20)
COUPLE_X0, COUPLE_Y0 = (15, 5, 5), 40
EXIT_X0 = (30, 10, 10)     # class 80, the start of the truncate family

# heatmap cells, E_T(110) and the dominance slack are compared with this
# absolute tolerance: loose enough for a certified solver that moves E_T by
# a few 1e-8, tight enough to catch a wrong window
FLOAT_TOL = 1e-6

# the output values pinned in reference.json, per operation
REFERENCE_KEYS = {
    "analyze": ("lower_sha256", "upper_sha256", "naive_sha256", "verdict",
                "naive_class"),
    "truncate": ("plan", "bound", "heatmap"),
    "network-cme": ("dominance_ok", "checked"),
    "couple": (),
}


@dataclass
class Fixture:
    u70: Path
    network: object
    chain: BoundingChain


@dataclass
class Op:
    """One operation: wall seconds of each command run, keyed by command,
    its outputs, and failures."""

    kind: str
    size: str
    seconds: dict = field(default_factory=dict)
    out: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(sum(runs) for runs in self.seconds.values())

    def command(self, name: str, argv: list) -> str:
        rc, stdout, stderr, seconds = cli(argv)
        self.seconds.setdefault(name, []).append(seconds)
        if rc != 0:
            raise RuntimeError(f"bounds {argv[0]} exited {rc}: "
                               f"{stderr.strip()[-500:]}")
        return stdout


def cli(argv: list):
    """Run one ``bounds`` command in-process: (code, stdout, stderr, s)."""
    argv = [str(a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bounds(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def setup(work: Path) -> Fixture:
    """Parse the example network and build the fixture chain U70."""
    network = load_network(NETWORK)
    u70 = work / "U70.csv"
    rc, _, err, _ = cli(["build", "--network", NETWORK, "--weights", "2,1,1",
                         "--direction", "upper", "--l-exact", 70,
                         "--l-total", 3000, "--out", u70])
    if rc != 0:
        raise RuntimeError(f"fixture build exited {rc}: {err.strip()}")
    return Fixture(u70, network, BoundingChain.from_csv(u70))


# -- the operations ---------------------------------------------------------


def _analyze(op: Op, fx: Fixture, p: dict, wd: Path, seed: int) -> None:
    report = op.command("analyze", [
        "analyze", "--network", NETWORK, "--lower-weights", "2,2,5",
        "--upper-weights", "2,1,1", "--l-exact", p["l_exact"],
        "--out-dir", wd])
    op.command("build", [
        "build", "--network", NETWORK, "--weights", "1,1,1", "--direction",
        "upper", "--l-exact", p["naive_l_exact"], "--l-total",
        p["naive_l_total"], "--tail-degree", 2, "--out", wd / "naive.csv"])
    op.command("verify", [
        "verify", "--network", NETWORK, "--chain", wd / "upper.csv",
        "--l-check", p["l_check"]])
    naive = BoundingChain.from_csv(wd / "naive.csv")
    op.out = {
        "lower_sha256": sha256(wd / "lower.csv"),
        "upper_sha256": sha256(wd / "upper.csv"),
        "naive_sha256": sha256(wd / "naive.csv"),
        "verdict": json.loads(report).get("verdict", {}).get("x_behavior"),
        "naive_class": classify(drift_stats(naive)).label,
    }


def _truncate(op: Op, fx: Fixture, p: dict, wd: Path, seed: int) -> None:
    """One plan, then truncate and heatmap ``repeat`` times each: they are
    short, and the repeats give their time per call enough samples."""
    family = ["--chain", fx.u70, "--p0", f"delta:{P0_LEVEL}"]
    box = family + ["--M", p["M"], "--tf", TF]
    plan = op.command("plan", ["plan-truncation", *box, "--epsilons",
                               ",".join(str(e) for e in EPSILONS)])
    for _ in range(p["repeat"]):
        cert = op.command("truncate", ["truncate", *box, "--N", N_WINDOW])
        op.command("heatmap", ["heatmap", *family, "--n-grid", p["n_grid"],
                               "--t-grid", T_GRID, "--out", wd / "heat.csv"])
    op.out = {
        "plan": json.loads(plan)["plan"],
        "bound": json.loads(cert)["bound_clipped"],
        "heatmap": read_heatmap(wd / "heat.csv"),
    }


def _network_cme(op: Op, fx: Fixture, p: dict, wd: Path, seed: int) -> None:
    n = p["n_max"]
    t0 = time.perf_counter()
    net_cme = solve_network_cme(fx.network, PART, n, CME_X0, CME_TF)
    chain_cme = solve_chain_cme(fx.chain, n, delta_p0(n, CME_LEVEL), CME_TF)
    rep = cdf_dominance(chain_cme, [net_cme], CME_TIMES)
    op.seconds["network_cme"] = [time.perf_counter() - t0]
    op.out = {"dominance_ok": bool(rep.ok), "checked": int(rep.checked),
              "max_violation": float(rep.max_violation)}


def _couple(op: Op, fx: Fixture, p: dict, wd: Path, seed: int) -> None:
    """Seeds seed .. seed+seeds-1 drive the coupled paths, seed+seeds the
    exit estimate."""
    n = p["seeds"]
    op.command("couple", [
        "couple", "--network", NETWORK, "--chain", fx.u70,
        "--x0", ",".join(map(str, COUPLE_X0)), "--y0", COUPLE_Y0,
        "--tf", p["tf"], "--seeds", n, "--seed", seed,
        "--out", wd / "paths.csv"])
    est = json.loads(op.command("simulate", [
        "simulate", "--network", NETWORK, "--x0", ",".join(map(str, EXIT_X0)),
        "--tf", TF, "--stop", f"class>{N_WINDOW}", "--weights", "2,1,1",
        "--samples", p["samples"], "--seed", seed + n]))
    paths = np.loadtxt(wd / "paths.csv", delimiter=",", skiprows=1, ndmin=2)
    op.out = {"paths": paths, "jumps": len(paths) - n,
              "exits": est["exits"], "samples": est["samples"],
              "estimate": est["estimate"]}


OPERATIONS = {"analyze": _analyze, "truncate": _truncate,
              "network-cme": _network_cme, "couple": _couple}


def read_heatmap(path: Path) -> dict:
    """Heatmap cells keyed "t,N" as the CLI writes them."""
    rows = Path(path).read_text().splitlines()[1:]
    cells = {}
    for line in rows:
        t, n, value = line.split(",")
        cells[f"{float(t)!r},{int(n)}"] = float(value)
    return cells


def execute(kind: str, size: str, fx: Fixture, wd: Path, seed: int) -> Op:
    """Run one operation; any failure is recorded on the result, not raised."""
    op = Op(kind, size)
    try:
        OPERATIONS[kind](op, fx, SIZES[size][kind], wd, seed)
    except Exception as exc:  # noqa: BLE001 - the run goes on and counts it
        op.errors.append(f"{type(exc).__name__}: {exc}")
    return op


# -- output checks ----------------------------------------------------------


def differences(want, got, where: str = "") -> list:
    """Mismatches between two output values; floats within FLOAT_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(set(want) ^ set(got))[:5]} "
                    f"differ"]
        return [d for k in want for d in differences(want[k], got[k],
                                                     f"{where}.{k}")]
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        same = np.shape(want) == np.shape(got) and np.array_equal(want, got)
        return [] if same else [f"{where}: arrays differ"]
    if isinstance(want, float) or isinstance(got, float):
        numbers = (int, float)
        if (isinstance(want, numbers) and isinstance(got, numbers)
                and abs(want - got) <= FLOAT_TOL):
            return []
    elif want == got:
        return []
    return [f"{where}: want {want!r}, got {got!r}"]


def check(op: Op, reference: dict) -> None:
    """Compare an operation's outputs with the reference outputs."""
    if op.errors:
        return
    ref = reference[op.size][op.kind]
    got = {k: op.out.get(k) for k in REFERENCE_KEYS[op.kind]}
    op.errors += differences(ref, got, op.kind)
    if op.kind == "couple":
        paths = op.out["paths"]
        states, cls, level = paths[:, 2:-2], paths[:, -2], paths[:, -1]
        if not np.array_equal(states @ np.asarray(WEIGHTS), cls):
            op.errors.append("couple: class_x column is not w.x")
        if (cls > level).any():
            op.errors.append("couple: a path has class_x > y")
        if len(np.unique(paths[:, 0])) != SIZES[op.size]["couple"]["seeds"]:
            op.errors.append("couple: wrong number of paths")
        certified = reference["full"]["truncate"]["bound"]
        if op.out["estimate"] > certified:
            op.errors.append(f"simulate: exit estimate {op.out['estimate']} "
                             f"is above the certified E_T({N_WINDOW}) = "
                             f"{certified}")
