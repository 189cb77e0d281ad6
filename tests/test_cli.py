"""End-to-end runs of every subcommand through main()."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from boundchain import (BoundingChain, ClassPartition, certificate_table,
                        class_size, delta_p0, solve_chain_cme)
from boundchain.cli import (GRID_CAP, build_parser, main, parse_grid,
                            parse_ints, parse_p0)
from boundchain import coupling
from boundchain.errors import (ConsistencyError, InfeasibleError,
                               ResourceLimitError, StabilizationError,
                               ToolError, ValidationError)
from conftest import INF_DOC, LEAKY_NETWORK_DOC, NAN_DOC

NET = str(Path(__file__).resolve().parents[1] / "docs" / "examples"
          / "network.json")


@pytest.fixture(scope="module")
def chain_csv(tmp_path_factory, upper211):
    path = tmp_path_factory.mktemp("chains") / "upper.csv"
    upper211.to_csv(path)
    return str(path)


def test_parse_helpers():
    assert parse_ints("2,1,1") == (2, 1, 1)
    with pytest.raises(ValidationError):
        parse_ints("2,x")
    grid = parse_grid("0:2:0.5")
    assert grid == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])
    assert list(parse_grid("80:120:20", integer=True)) == [80, 100, 120]
    with pytest.raises(ValidationError):
        parse_grid("5:1")
    p0 = parse_p0("delta:3", 10)
    assert p0[3] == 1.0 and p0.sum() == 1.0
    with pytest.raises(ValidationError):
        parse_p0("uniform", 10)


def test_build_and_reload(tmp_path, upper211):
    out = tmp_path / "chain.csv"
    code = main(["build", "--network", NET, "--weights", "2,1,1",
                 "--direction", "upper", "--l-exact", "70",
                 "--l-total", "3000", "--out", str(out)])
    assert code == 0
    back = BoundingChain.from_csv(out)
    for ell in (0, 5, 40, 200):
        assert back.row(ell) == upper211.row(ell)
    man = json.loads((tmp_path / "chain.csv.manifest.json").read_text())
    assert man["command"] == "build"
    assert len(man["config_sha256"]) == 64
    assert man["config"]["weights"] == "2,1,1"
    assert "numpy" in man["versions"]


def test_identical_builds_hash_equal(tmp_path):
    argv = ["build", "--network", NET, "--weights", "2,1,1", "--direction",
            "upper", "--l-exact", "30", "--l-total", "200",
            "--out", str(tmp_path / "chain.csv")]
    manifests = []
    for _ in range(2):
        assert main(argv) == 0
        manifests.append(json.loads(
            (tmp_path / "chain.csv.manifest.json").read_text()))
    assert manifests[0]["config_sha256"] == manifests[1]["config_sha256"]
    assert "fn" not in manifests[0]["config"]
    assert manifests[0] == manifests[1]
    # the f-table pass enumerated classes 0..l_exact + j_max
    chain = BoundingChain.from_csv(tmp_path / "chain.csv")
    assert manifests[0]["counters"] == {
        "classes": 33,
        "states": sum(class_size(ell, ClassPartition((2, 1, 1)))
                      for ell in range(33)),
        "tails": {str(k): {"period": m.period, "onset": m.onset}
                  for k, m in sorted(chain.tails.items())}}
    assert set(manifests[0]["counters"]["tails"]) == {"-1", "2"}


# sha256 of the chain CSVs as built before the shared class layer existed
@pytest.mark.parametrize("direction, weights, sha256", [
    ("upper", "2,1,1",
     "d09474b83475dd168167944e1d5abbd45ffc1d269f1533509f40d7ec773742f9"),
    ("lower", "2,2,5",
     "00936dcb93f1e4ab70c112be437a079f3395b2a4222c31d7bfe6941630c12d65"),
])
def test_build_csv_is_byte_identical(tmp_path, direction, weights, sha256):
    out = tmp_path / "chain.csv"
    assert main(["build", "--network", NET, "--weights", weights,
                 "--direction", direction, "--l-exact", "70",
                 "--l-total", "3000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


@pytest.mark.parametrize("species", [7, -1])
def test_build_rejects_out_of_range_species(tmp_path, species, capsys):
    doc = json.loads(Path(NET).read_text())
    doc["reactions"][3]["propensity"][0]["factors"][0]["species"] = species
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps(doc))
    code = main(["build", "--network", str(bad), "--weights", "2,1,1",
                 "--direction", "upper", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert f"species {species}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    (["--weights", "1,1,1", "--l-exact", "40", "--tail-degree", "1"], 3,
     "infeasible: offset 1: tail is polynomial of degree 2, but degree 1 "
     "was requested\n"),
    (["--weights", "2,1,1", "--l-exact", "3"], 2,
     "error: l_exact must be at least 4*j_max+4 = 12 for the tail window\n"),
    (["--weights", "2,1,1", "--l-exact", "8"], 2,
     "error: l_exact must be at least 4*j_max+4 = 12 for the tail window\n"),
], ids=["degree-diagnosis", "l-exact-3", "l-exact-8"])
def test_build_failure_lines_are_pinned(tmp_path, capsys, argv, code, err):
    assert main(["build", "--network", NET, "--direction", "upper",
                 *argv, "--out", str(tmp_path / "c.csv")]) == code
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("cls, prefix", [
    (ToolError, "error"), (ValidationError, "error"),
    (ResourceLimitError, "error"), (InfeasibleError, "infeasible"),
    (StabilizationError, "infeasible"), (ConsistencyError, "inconsistency"),
])
def test_each_error_class_prints_its_prefix(monkeypatch, capsys, cls, prefix):
    def fail(path):
        raise cls("no chain")

    monkeypatch.setattr(BoundingChain, "from_csv", fail)
    assert main(["classify", "--chain", "c.csv"]) == cls.exit_code
    assert capsys.readouterr().err == f"{prefix}: no chain\n"


def test_classify_rejects_tail_rows_that_disagree(tmp_path, chain_csv, capsys):
    lines = Path(chain_csv).read_text().splitlines()
    i = lines.index("2,1.0,2.5,0,1,0,0.0,0.0")
    lines[i:i + 1] = ["2,1.0,2.5,0,2,0,0.0,0.0", "2,7.0,2.5,40,2,1,0.0,0.0"]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["classify", "--chain", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert not out
    assert err == (f"error: chain CSV {bad}: the tail rows of offset 2 "
                   "disagree on slope\n")


def test_build_rejects_bad_input(tmp_path):
    code = main(["build", "--network", NET, "--weights", "2,0,1",
                 "--direction", "upper", "--out", str(tmp_path / "c.csv")])
    assert code == 2  # weights must be positive
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["build", "--network", str(bad), "--weights", "2,1,1",
                 "--direction", "upper", "--out", str(tmp_path / "c.csv")])
    assert code == 2


def _bad(name, *argv):
    return pytest.param(list(argv), id=name)


CHAIN_RUN = ("--network", NET, "--chain", "{chain}", "--x0", "3,2,1",
             "--y0", "12", "--out", "{tmp}/p.csv")


@pytest.mark.parametrize("argv", [
    _bad("build-weight-count", "build", "--weights", "2,1", "--network", NET,
         "--direction", "upper", "--out", "{tmp}/c.csv"),
    _bad("analyze-weight-count", "analyze", "--lower-weights", "2,2",
         "--upper-weights", "2,1,1", "--network", NET, "--l-exact", "30",
         "--out-dir", "{tmp}/r"),
    _bad("p0-not-an-int", "truncate", "--p0", "delta:x", "--chain", "{chain}",
         "--M", "100", "--tf", "1", "--N", "50"),
    _bad("couple-negative-seed", "couple", "--seed", "-2", "--tf", "1",
         *CHAIN_RUN),
    _bad("simulate-negative-seed", "simulate", "--seed", "-1", "--network",
         NET, "--x0", "3,2,1", "--tf", "1", "--out", "{tmp}/t.csv"),
    _bad("build-out-missing-dir", "build", "--out", "{tmp}/missing/c.csv",
         "--network", NET, "--weights", "2,1,1", "--direction", "upper",
         "--l-exact", "30"),
    _bad("classify-out-missing-dir", "classify", "--out",
         "{tmp}/missing/c.json", "--chain", "{chain}"),
    _bad("combine-missing-report", "combine", "--lower", "{tmp}/missing.json",
         "--upper", "{chain}"),
    _bad("combine-not-json", "combine", "--lower", "{chain}", "--upper",
         "{chain}"),
    _bad("verify-negative-l-check", "verify", "--l-check", "-3", "--network",
         NET, "--chain", "{chain}"),
    _bad("couple-no-seeds", "couple", "--seeds", "-2", "--tf", "1",
         *CHAIN_RUN),
    _bad("couple-seeds-past-cap", "couple", "--seeds", "100000000000",
         "--tf", "1", *CHAIN_RUN),
    _bad("couple-negative-tf", "couple", "--tf", "-1", *CHAIN_RUN),
    _bad("truncate-negative-tf", "truncate", "--tf", "-1", "--chain",
         "{chain}", "--p0", "delta:5", "--M", "100", "--N", "50"),
    _bad("simulate-negative-tf", "simulate", "--tf", "-1", "--network", NET,
         "--x0", "3,2,1", "--out", "{tmp}/t.csv"),
    _bad("simulate-exit-negative-tf", "simulate", "--tf", "-1", "--network",
         NET, "--x0", "3,2,1", "--stop", "class>40", "--weights", "2,1,1"),
    _bad("simulate-exit-negative-samples", "simulate", "--samples", "-5",
         "--network", NET, "--x0", "3,2,1", "--tf", "1", "--stop", "class>40",
         "--weights", "2,1,1"),
    _bad("heatmap-fractional-n", "heatmap", "--chain", "{chain}", "--p0",
         "delta:5", "--n-grid", "0:20:2.5", "--t-grid", "0.5:1.0:0.5",
         "--out", "{tmp}/h.csv"),
    _bad("heatmap-negative-n", "heatmap", "--chain", "{chain}", "--p0",
         "delta:5", "--n-grid=-4:20:4", "--t-grid", "0.5:1.0:0.5",
         "--out", "{tmp}/h.csv"),
    _bad("heatmap-grid-past-numpy", "heatmap", "--chain", "{chain}", "--p0",
         "delta:5", "--n-grid", "0:20:4", "--t-grid", "0:1e30:1",
         "--out", "{tmp}/h.csv"),
    _bad("heatmap-nan-stop", "heatmap", "--chain", "{chain}", "--p0",
         "delta:5", "--n-grid", "0:20:4", "--t-grid", "0.5:nan:0.5",
         "--out", "{tmp}/h.csv"),
    _bad("heatmap-infinite-stop", "heatmap", "--chain", "{chain}", "--p0",
         "delta:5", "--n-grid", "0:20:4", "--t-grid", "0.5:inf:0.5",
         "--out", "{tmp}/h.csv"),
    _bad("heatmap-infinite-step", "heatmap", "--chain", "{chain}", "--p0",
         "delta:5", "--n-grid", "0:20:inf", "--t-grid", "0.5:1.0:0.5",
         "--out", "{tmp}/h.csv"),
    _bad("build-nan-parameter", "build", "--network", "{tmp}/nan.json",
         "--weights", "2,1,1", "--direction", "upper", "--l-exact", "30",
         "--out", "{tmp}/c.csv"),
    _bad("couple-infinite-coefficient", "couple", "--network",
         "{tmp}/inf.json", "--chain", "{chain}", "--x0", "3,2,1", "--y0",
         "12", "--tf", "1", "--out", "{tmp}/p.csv"),
    _bad("build-fractional-exponent", "build", "--network",
         "{tmp}/exponent.json", "--weights", "2,1,1", "--direction", "upper",
         "--l-exact", "30", "--out", "{tmp}/c.csv"),
    _bad("verify-fractional-change", "verify", "--network",
         "{tmp}/change.json", "--chain", "{chain}"),
    _bad("couple-fractional-species", "couple", "--network",
         "{tmp}/species.json", "--chain", "{chain}", "--x0", "3,2,1", "--y0",
         "12", "--tf", "1", "--out", "{tmp}/p.csv"),
    _bad("build-network-not-utf8", "build", "--network", "{tmp}/bin.json",
         "--weights", "2,1,1", "--direction", "upper", "--out", "{tmp}/c.csv"),
    _bad("build-weights-common-factor", "build", "--weights", "4,2,2",
         "--network", NET, "--direction", "upper", "--out", "{tmp}/c.csv"),
    _bad("simulate-exit-samples-past-cap", "simulate", "--network", NET,
         "--x0", "3,2,1", "--tf", "1", "--stop", "class>40", "--weights",
         "2,1,1", "--samples", "1000000000000"),
    _bad("simulate-count-past-int64", "simulate", "--network", NET, "--x0",
         "100000000000000000000000,2,1", "--tf", "1", "--out", "{tmp}/t.csv"),
    _bad("simulate-exit-count-past-int64", "simulate", "--network", NET,
         "--x0", "100000000000000000000000,2,1", "--tf", "1", "--stop",
         "class>40", "--weights", "2,1,1"),
    _bad("simulate-change-past-int64", "simulate", "--network",
         "{tmp}/huge.json", "--x0", "3,2,1", "--tf", "1", "--out",
         "{tmp}/t.csv"),
])
def test_bad_input_exits_2(tmp_path, chain_csv, capsys, argv):
    # a NaN rate once passed every sign check and wrote a truncated chain
    doc = json.loads(Path(NET).read_text())
    doc["parameters"]["d3"] = "nan"
    (tmp_path / "nan.json").write_text(json.dumps(doc))
    doc["parameters"]["d3"] = 3.0
    doc["reactions"][0]["propensity"][2]["coeff"] = float("inf")
    (tmp_path / "inf.json").write_text(json.dumps(doc))
    # a fractional exponent, change or species was once truncated: an
    # exponent of 2.5 built a chain for exponent 2
    for name, value in (("exponent", 2.5), ("change", 1.5),
                        ("species", 0.9)):
        doc = json.loads(Path(NET).read_text())
        rx = doc["reactions"][1]
        if name == "change":
            rx["change"][0] = value
        else:
            rx["propensity"][0]["factors"][0][name] = value
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # a UTF-16 file ended in a raw UnicodeDecodeError traceback
    (tmp_path / "bin.json").write_bytes(b"\xff\xfe\x00{}")
    # a change past int64, as a count past it, ended in an OverflowError
    doc = json.loads(Path(NET).read_text())
    doc["reactions"][0]["change"][0] = 10**30
    (tmp_path / "huge.json").write_text(json.dumps(doc))
    argv = [a.format(tmp=tmp_path, chain=chain_csv) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    # analyze reports a failed stage in its JSON report instead of stderr
    assert "error:" in err or '"error":' in out
    if ("--tf", "-1") in zip(argv, argv[1:]):
        # every command checks t_final by one rule, in one wording
        assert err == ("error: t_final must be finite and nonnegative, "
                       "got -1.0\n")


def test_large_grid_exits_2_before_allocating(tmp_path, chain_csv, capsys,
                                              monkeypatch):
    # 0:1e9:1 is a billion points, an 8 GB array: no grid may get that far
    arange = np.arange

    def short_arange(n, *args, **kwargs):
        assert n <= GRID_CAP, f"an arange of {n} points"
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", short_arange)
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        parse_grid("0:1e9:1")
    assert len(parse_grid(f"1:{GRID_CAP}")) == GRID_CAP
    assert main(["heatmap", "--chain", chain_csv, "--p0", "delta:5",
                 "--n-grid", "0:20:4", "--t-grid", "0:1e9:1",
                 "--out", str(tmp_path / "h.csv")]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


# every command in one process, the three that solve a master equation
# included; none may leave scipy.sparse, scipy.special or the array-API layer
# both of them import in sys.modules
NO_SPARSE_RUNS = """
import json, sys
from boundchain.cli import main
net, tmp = sys.argv[1:]
HEAVY = ('scipy.sparse', 'scipy.special', 'scipy._lib._array_api')
def heavy():
    return [m for m in HEAVY if m in sys.modules]
def run(*argv):
    assert main(list(argv)) == 0, argv
    return heavy()
loaded = {'import': heavy()}
loaded['build'] = run('build', '--network', net, '--weights', '2,1,1',
                      '--direction', 'upper', '--l-exact', '30',
                      '--l-total', '300', '--out', tmp + '/upper.csv')
run('build', '--network', net, '--weights', '2,2,5', '--direction', 'lower',
    '--l-exact', '70', '--l-total', '300', '--out', tmp + '/lower.csv')
loaded['verify'] = run('verify', '--network', net, '--chain',
                       tmp + '/upper.csv', '--l-check', '20')
loaded['classify'] = run('classify', '--chain', tmp + '/upper.csv',
                         '--out', tmp + '/upper.json')
run('classify', '--chain', tmp + '/lower.csv', '--out', tmp + '/lower.json')
loaded['combine'] = run('combine', '--lower', tmp + '/lower.json',
                        '--upper', tmp + '/upper.json')
loaded['couple'] = run('couple', '--network', net, '--chain',
                       tmp + '/upper.csv', '--x0', '3,2,1', '--y0', '12',
                       '--tf', '0.5', '--seeds', '2', '--out', tmp + '/p.csv')
loaded['simulate'] = run('simulate', '--network', net, '--x0', '3,2,1',
                         '--tf', '0.5', '--stop', 'class>40', '--weights',
                         '2,1,1', '--samples', '50')
loaded['analyze'] = run('analyze', '--network', net, '--lower-weights',
                        '2,2,5', '--upper-weights', '2,1,1', '--l-exact',
                        '70', '--out-dir', tmp + '/analysis')
loaded['truncate'] = run('truncate', '--chain', tmp + '/upper.csv', '--p0',
                         'delta:5', '--M', '100', '--tf', '1', '--N', '50')
loaded['plan-truncation'] = run('plan-truncation', '--chain',
                                tmp + '/upper.csv', '--p0', 'delta:5', '--M',
                                '100', '--tf', '1', '--epsilons', '0.1,0.01')
loaded['heatmap'] = run('heatmap', '--chain', tmp + '/upper.csv', '--p0',
                        'delta:5', '--n-grid', '20:60:20', '--t-grid',
                        '0.25:1:0.25', '--out', tmp + '/heat.csv')
import boundchain
names = {}
exec('from boundchain import *', names)
loaded['star'] = sorted(set(boundchain.__all__) - set(names))
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy_sparse_or_special(tmp_path):
    # the master-equation commands call compiled kernels loaded by path
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", NO_SPARSE_RUNS, NET,
                           str(tmp_path)], capture_output=True, text=True,
                          timeout=300, env={"PYTHONPATH": str(src), "PATH": ""})
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert loaded.pop("star") == []
    assert loaded == {cmd: [] for cmd in (
        "import", "build", "verify", "classify", "combine", "couple",
        "simulate", "analyze", "truncate", "plan-truncation", "heatmap")}


# console-script runs, one command a line, in order; each exits 0
CONSOLE_RUNS = """
simulate --network {net} --x0 30,10,10 --tf 4 --stop class>81 --weights 2,1,1 --samples 200
build --network {net} --weights 2,1,1 --direction upper --l-exact 40 --l-total 400 --out {tmp}/upper.csv
classify --chain {tmp}/upper.csv
verify --network {net} --chain {tmp}/upper.csv
couple --network {net} --chain {tmp}/upper.csv --x0 3,2,1 --y0 12 --tf 1 --seeds 2 --out {tmp}/paths.csv
truncate --chain {tmp}/upper.csv --p0 delta:20 --M 200 --tf 1 --N 60
plan-truncation --chain {tmp}/upper.csv --p0 delta:20 --M 200 --tf 1 --epsilons 0.1,0.01
heatmap --chain {tmp}/upper.csv --p0 delta:20 --n-grid 40:80:20 --t-grid 0.25:1:0.25 --out {tmp}/heat.csv
analyze --network {net} --lower-weights 2,2,5 --upper-weights 2,1,1 --l-exact 60 --out-dir {tmp}/report
couple --network {net} --chain {tmp}/report/lower.csv --x0 15,5,5 --y0 40 --tf 1 --seeds 2 --out {tmp}/lower_paths.csv
classify --chain {tmp}/report/lower.csv --out {tmp}/lower.json
classify --chain {tmp}/report/upper.csv --out {tmp}/upper.json
combine --lower {tmp}/lower.json --upper {tmp}/upper.json
"""


def test_console_script_runs_exit_0(tmp_path, capsys):
    for run in CONSOLE_RUNS.strip().splitlines():
        assert main(run.format(net=NET, tmp=tmp_path).split()) == 0, run
    capsys.readouterr()


def test_a_closed_stdout_exits_1_quietly(monkeypatch, chain_csv):
    # `bounds classify ... | head -2` once printed "error: Broken pipe:
    # None" and exited 2, as if stdout were an output path it could not write
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(["classify", "--chain", chain_csv]) == 1
    assert err.getvalue() == ""
    assert sys.stdout.name == os.devnull
    sys.stdout.close()


def test_verify_pass_and_fail(tmp_path, chain_csv, upper211, capsys):
    assert main(["verify", "--network", NET, "--chain", chain_csv,
                 "--l-check", "50"]) == 0
    assert "verified" in capsys.readouterr().out
    # tamper with one up-rate: the bound stops dominating right there
    exact = {k: v.copy() for k, v in upper211.exact.items()}
    exact[2][30] -= 1.0
    bad = BoundingChain("upper", upper211.j_max, upper211.l_exact,
                        upper211.l_total, exact, upper211.tails,
                        upper211.weights)
    bad_csv = tmp_path / "bad.csv"
    bad.to_csv(bad_csv)
    assert main(["verify", "--network", NET, "--chain", str(bad_csv),
                 "--l-check", "50"]) == 2
    err = capsys.readouterr().err
    assert "FAILED" in err and "kind=A1" in err and "ell=30" in err


def test_build_and_verify_reject_a_negative_propensity(tmp_path, chain_csv,
                                                        capsys):
    doc = json.loads(Path(NET).read_text())
    doc["reactions"][5]["propensity"][0]["coeff"] = -1.0
    bad = tmp_path / "net.json"
    bad.write_text(json.dumps(doc))
    message = "negative propensity -1.0 for reaction 5 at (0, 0, 1)"
    assert main(["build", "--network", str(bad), "--weights", "2,1,1",
                 "--direction", "upper", "--l-exact", "30",
                 "--out", str(tmp_path / "c.csv")]) == 2
    assert message in capsys.readouterr().err
    assert main(["verify", "--network", str(bad), "--chain", chain_csv,
                 "--l-check", "20"]) == 2
    assert message in capsys.readouterr().err
    # finite coefficients whose product overflows to inf and then meets a
    # zero count: the rate is NaN, which no sign check used to catch
    doc["reactions"][5]["propensity"][0] = {
        "coeff": 1e308, "factors": [{"species": "X3"}, {"species": "X1"}]}
    bad.write_text(json.dumps(doc))
    message = "undefined propensity nan for reaction 5 at (0, 0, 2)"
    assert main(["build", "--network", str(bad), "--weights", "2,1,1",
                 "--direction", "upper", "--l-exact", "30",
                 "--out", str(tmp_path / "c.csv")]) == 2
    assert message in capsys.readouterr().err
    assert main(["verify", "--network", str(bad), "--chain", chain_csv,
                 "--l-check", "20"]) == 2
    assert message in capsys.readouterr().err
    assert main(["couple", "--network", str(bad), "--chain", chain_csv,
                 "--x0", "0,0,2", "--y0", "12", "--tf", "1",
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert message in capsys.readouterr().err


LEAK = re.compile(r"reaction 5 leaves the orthant from \(\d+, \d+, 0\)")


@pytest.mark.parametrize("argv", [
    ["build", "--network", "{net}", "--weights", "2,1,1", "--direction",
     "upper", "--l-exact", "30", "--out", "{tmp}/c.csv"],
    ["build", "--network", "{net}", "--weights", "2,1,1", "--direction",
     "upper", "--l-exact", "40", "--out", "{tmp}/c.csv"],
    ["verify", "--network", "{net}", "--chain", "{chain}", "--l-check", "20"],
    ["simulate", "--network", "{net}", "--x0", "0,0,1", "--tf", "5",
     "--out", "{tmp}/traj.csv"],
    ["simulate", "--network", "{net}", "--x0", "0,0,1", "--tf", "5",
     "--stop", "class>40", "--weights", "2,1,1", "--samples", "50"],
    ["couple", "--network", "{net}", "--chain", "{chain}", "--x0", "3,2,0",
     "--y0", "12", "--tf", "5", "--seeds", "3", "--out", "{tmp}/p.csv"],
], ids=["build", "build-l-exact-40", "verify", "simulate-path",
        "simulate-stop", "couple"])
def test_a_jump_out_of_the_orthant_exits_2(tmp_path, chain_csv, capsys,
                                           argv):
    # every command that fires reactions stops at the first state from
    # which one would take a count below 0; simulate once wrote this path
    # with X3 down to -3 and exited 0
    net = tmp_path / "leaky.json"
    net.write_text(json.dumps(LEAKY_NETWORK_DOC))
    assert main([a.format(net=net, tmp=tmp_path, chain=chain_csv)
                 for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and LEAK.search(err), err
    if argv[0] == "couple":
        # couple once wrote its CSV header before the first path ran
        assert not (tmp_path / "p.csv").exists()
        assert not (tmp_path / "p.csv.manifest.json").exists()
    # no written path holds a negative count
    for name, first in (("traj.csv", 1), ("p.csv", 2)):
        if (tmp_path / name).exists():
            with (tmp_path / name).open() as fh:
                rows = list(csv.reader(fh))[1:]
            assert all(int(v) >= 0 for row in rows for v in row[first:])


@pytest.mark.parametrize("argv, state", [
    (["build", "--network", "{net}", "--weights", "1,1", "--direction",
      "upper", "--l-exact", "30", "--out", "{tmp}/c.csv"], (6, 0)),
    (["simulate", "--network", "{net}", "--x0", "30,0", "--tf", "1",
      "--out", "{tmp}/traj.csv"], (30, 0)),
    (["simulate", "--network", "{net}", "--x0", "30,0", "--tf", "1",
      "--stop", "class>4000", "--weights", "1,1"], (30, 0)),
    (["couple", "--network", "{net}", "--chain", "{chain}", "--x0", "30,0",
      "--y0", "40", "--tf", "1", "--out", "{tmp}/p.csv"], (30, 0)),
], ids=["build", "simulate-path", "simulate-stop", "couple"])
def test_an_infinite_propensity_exits_2(tmp_path, capsys, argv, state):
    # inf passed the sign check: simulate ended in numpy's OverflowError
    # from uniform(0, inf), build in the chain constructor's rate check
    net = tmp_path / "inf.json"
    net.write_text(json.dumps(INF_DOC))
    L = 60
    chain = tmp_path / "chain.csv"
    BoundingChain("upper", 1, L, L, {1: np.full(L + 1, 2.0),
                                     -1: np.arange(L + 1.0)},
                  {}, (1, 1)).to_csv(chain)
    assert main([a.format(net=net, tmp=tmp_path, chain=chain)
                 for a in argv]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: infinite propensity inf for reaction 0 at {state}"]


def test_analyze_records_a_jump_out_of_the_orthant(tmp_path, capsys):
    net = tmp_path / "leaky.json"
    net.write_text(json.dumps(LEAKY_NETWORK_DOC))
    out_dir = tmp_path / "report"
    assert main(["analyze", "--network", str(net), "--lower-weights",
                 "2,2,5", "--upper-weights", "2,1,1", "--l-exact", "60",
                 "--out-dir", str(out_dir)]) == 2
    capsys.readouterr()
    stages = json.loads((out_dir / "analysis.json").read_text())["stages"]
    for direction in ("lower", "upper"):
        stage = stages[f"build-{direction}"]
        assert stage["ok"] is False and stage["exit_code"] == 2
        assert LEAK.search(stage["error"])


def test_weights_for_another_species_count_exit_2(tmp_path, chain_csv,
                                                  capsys):
    # both once ended in a numpy ValueError from a product with the weights
    two = tmp_path / "two.json"
    two.write_text(json.dumps({"species": ["A", "B"], "reactions": [
        {"change": [1, 0], "propensity": [{"coeff": 1.0}]},
        {"change": [0, 1], "propensity": [{"coeff": 1.0}]}]}))
    for argv, message in (
            (["simulate", "--network", NET, "--x0", "5,2", "--tf", "1",
              "--stop", "class>40", "--weights", "2,1"],
             "2 class weights for a network of 3 species"),
            (["couple", "--network", str(two), "--chain", chain_csv,
              "--x0", "3,2", "--y0", "12", "--tf", "1",
              "--out", str(tmp_path / "p.csv")],
             "3 class weights for a network of 2 species")):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {message}"]
        assert "Traceback" not in err


def test_an_overflowing_propensity_prints_only_the_error(tmp_path):
    # numpy warns on inf and NaN; the user should see the error line alone
    net = tmp_path / "nan.json"
    net.write_text(json.dumps(NAN_DOC))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "boundchain.cli", "build", "--network",
         str(net), "--weights", "1,1", "--direction", "upper", "--l-exact",
         "12", "--out", str(tmp_path / "c.csv")],
        capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(src), "PATH": ""})
    assert done.returncode == 2
    assert done.stderr == ("error: undefined propensity nan for reaction 1 "
                           "at (2, 0)\n")


@pytest.mark.parametrize("header", ["weights=-", ""])
def test_a_chain_file_without_weights_exits_2(tmp_path, chain_csv, capsys,
                                              header):
    # verify and couple take the partition from the chain file, so a file
    # that carries none is rejected where it is read, by every command
    lines = Path(chain_csv).read_text().splitlines(keepends=True)
    meta = re.sub(r" weights=\S*", f" {header}".rstrip(), lines[0])
    bare = tmp_path / "bare.csv"
    bare.write_text(meta + "".join(lines[1:]))
    message = (f"chain CSV {bare} carries no class weights: its header "
               "needs weights=")
    with pytest.raises(ValidationError) as exc:
        BoundingChain.from_csv(bare)
    assert str(exc.value) == message
    for argv in (["verify", "--network", NET, "--chain", str(bare)],
                 ["couple", "--network", NET, "--chain", str(bare), "--x0",
                  "3,2,1", "--y0", "12", "--tf", "1", "--out",
                  str(tmp_path / "p.csv")],
                 ["truncate", "--chain", str(bare), "--p0", "delta:5",
                  "--M", "100", "--tf", "1", "--N", "50"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_couple_seeds_past_the_cap_exit_2_before_any_path(
        tmp_path, chain_csv, capsys, monkeypatch):
    def no_simulator(*args):
        raise AssertionError("the simulator was made")
    monkeypatch.setattr("boundchain.cli.CoupledSimulator", no_simulator)
    seeds = coupling.PATH_CAP + 1
    assert main(["couple", "--network", NET, "--chain", chain_csv, "--x0",
                 "3,2,1", "--y0", "12", "--tf", "1", "--seeds", str(seeds),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {seeds} seeds exceed the cap of {coupling.PATH_CAP} paths\n")


def test_classify_output(tmp_path, chain_csv, capsys):
    out = tmp_path / "class.json"
    assert main(["classify", "--chain", chain_csv, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["direction"] == "upper"
    assert doc["class"] == "positive-recurrent"
    assert doc["B1"] == pytest.approx(-0.5)
    assert doc["B3"] == pytest.approx(1.75)
    assert doc["valid"] is True
    assert doc["irreducible"] is True
    assert (tmp_path / "class.json.manifest.json").exists()
    shown = json.loads(capsys.readouterr().out)
    assert shown == doc


def label_doc(path, label, direction, irreducible=True):
    path.write_text(json.dumps({
        "direction": direction, "class": label,
        "provenance": "drift statistics", "irreducible": irreducible,
    }))
    return str(path)


def test_combine_cli(tmp_path, capsys):
    lo = label_doc(tmp_path / "lo.json", "positive-recurrent", "lower")
    hi = label_doc(tmp_path / "hi.json", "positive-recurrent", "upper")
    out = tmp_path / "verdict.json"
    assert main(["combine", "--lower", lo, "--upper", hi,
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["x_behavior"] == "positive-recurrent"
    capsys.readouterr()

    # impossible pairing: lower explosive against a recurrent upper bound
    lo2 = label_doc(tmp_path / "lo2.json", "explosive", "lower")
    assert main(["combine", "--lower", lo2, "--upper", hi]) == 4
    assert "impossible" in capsys.readouterr().err

    # missing attestation is refused outright, then waived explicitly
    lo3 = label_doc(tmp_path / "lo3.json", "positive-recurrent", "lower",
                    irreducible=False)
    assert main(["combine", "--lower", lo3, "--upper", hi]) == 2
    capsys.readouterr()
    assert main(["combine", "--lower", lo3, "--upper", hi,
                 "--assume-irreducible"]) == 0
    capsys.readouterr()

    # direction sanity on the inputs
    assert main(["combine", "--lower", hi, "--upper", lo]) == 2


def test_couple_cli(tmp_path, chain_csv):
    out = tmp_path / "paths.csv"
    assert main(["couple", "--network", NET, "--chain", chain_csv,
                 "--x0", "3,2,1", "--y0", "12", "--tf", "1.5",
                 "--seeds", "3", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert {r["seed"] for r in rows} == {"0", "1", "2"}
    assert all(int(r["class_x"]) <= int(r["y"]) for r in rows)
    assert all(int(r["class_x"]) ==
               2 * int(r["x1"]) + int(r["x2"]) + int(r["x3"]) for r in rows)
    man = json.loads((tmp_path / "paths.csv.manifest.json").read_text())
    assert man["seeds"] == [0, 1, 2]


def test_couple_rejects_a_start_level_beyond_the_chain(tmp_path, chain_csv,
                                                       upper211, capsys):
    # a level past l_total is one the chain does not define: exit 2 with
    # the row builder's message and no CSV, not one-row paths ended "band"
    out = tmp_path / "paths.csv"
    argv = ["couple", "--network", NET, "--chain", chain_csv, "--x0",
            "15,5,5", "--tf", "20", "--seeds", "2", "--out", str(out)]
    assert main(argv + ["--y0", "4000"]) == 2
    assert capsys.readouterr().err == (
        "error: level 4000 outside the chain's range [0, 3000]\n")
    assert not out.exists()
    # a start above l_total - j_max but on the chain still ends as "band"
    top = upper211.l_total
    for y0 in (top - upper211.j_max + 1, top):
        assert main(argv + ["--y0", str(y0)]) == 0
        capsys.readouterr()
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["t"], int(r["y"])) for r in rows] == [("0.0", y0)] * 2
        man = json.loads((tmp_path / "paths.csv.manifest.json").read_text())
        assert man["counters"]["band_exits"] == 2


def test_the_parser_is_built_once(tmp_path, capsys):
    # main reuses one parser; each call still parses only its own argv
    assert build_parser() is build_parser()
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--network", NET, "--x0", "3,2,1", "--tf",
                 "0.5", "--seed", "3", "--out", str(out)]) == 0
    with pytest.raises(SystemExit):
        main(["simulate", "--network", NET, "--tf", "0.5"])
    assert "--x0" in capsys.readouterr().err
    assert main(["simulate", "--network", NET, "--x0", "3,2,1", "--tf",
                 "0.5", "--out", str(tmp_path / "seed0.csv")]) == 0
    man = json.loads((tmp_path / "seed0.csv.manifest.json").read_text())
    assert man["config"]["seed"] == 0


def test_couple_stops_at_a_row_that_breaks_its_marginals(
        tmp_path, chain_csv, capsys, monkeypatch):
    # a failed marginal check is an inconsistency: exit 4 with the row's
    # message, and neither the CSV nor its manifest is written
    monkeypatch.setattr(coupling, "MARGINAL_RTOL", -1.0)
    out = tmp_path / "paths.csv"
    assert main(["couple", "--network", NET, "--chain", chain_csv, "--x0",
                 "3,2,1", "--y0", "12", "--tf", "1", "--seeds", "2",
                 "--out", str(out)]) == ConsistencyError.exit_code
    err = capsys.readouterr().err
    assert err.startswith(
        "inconsistency: joint row at ((3, 2, 1), 12) breaks its marginals "
        "at network states [("), err
    assert not out.exists()
    assert not (tmp_path / "paths.csv.manifest.json").exists()


def test_couple_needs_a_chain(tmp_path, capsys):
    # couple once built its own chain, with an l_exact and l_total that
    # build does not default to; a chain now comes from build
    with pytest.raises(SystemExit) as exc:
        main(["couple", "--network", NET, "--x0", "3,2,1", "--y0", "12",
              "--tf", "1", "--out", str(tmp_path / "p.csv")])
    assert exc.value.code == 2
    assert "--chain" in capsys.readouterr().err


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_couple_csv_is_byte_identical(tmp_path, chain_csv):
    # recorded with the coupling rows built one dict entry at a time
    out = tmp_path / "paths.csv"
    assert main(["couple", "--network", NET, "--chain", chain_csv,
                 "--x0", "15,5,5", "--y0", "40", "--tf", "20",
                 "--seeds", "12", "--seed", "100", "--out", str(out)]) == 0
    assert sha256(out) == (
        "adfb977f26ce1f6959c5f0e636cd103b5bf1faf0a891bced1c61be9f90bc3ab0")


# recorded with the propensities evaluated one reaction at a time
@pytest.mark.parametrize("seed, digest", [
    (0, "b996bc3854275bf673476d1904c2b19d84c45344d949a733c035d040456b6931"),
    (4, "37c7af2d8b6f60e7bf5d6463301a96d4c54d86b38cf382d272ea1d19efcbca9b"),
    (7, "58c0652fed61ccbe77a8db59ade4ec971e82f8a454045df1faf8d6d58bbd03e0"),
])
def test_simulate_csv_is_byte_identical(tmp_path, seed, digest):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--network", NET, "--x0", "3,2,1",
                 "--tf", "2.0", "--seed", str(seed), "--out", str(out)]) == 0
    assert sha256(out) == digest


def test_manifest_records_inputs_and_couple_counters(tmp_path, chain_csv,
                                                    capsys):
    net = tmp_path / "net.json"
    net.write_bytes(Path(NET).read_bytes())
    out = tmp_path / "paths.csv"
    argv = ["couple", "--network", str(net), "--chain", chain_csv,
            "--x0", "3,2,1", "--y0", "12", "--tf", "1.5", "--seeds", "3",
            "--out", str(out)]
    manifest = tmp_path / "paths.csv.manifest.json"
    runs = []
    for _ in range(2):
        assert main(argv) == 0
        runs.append((json.loads(manifest.read_text()),
                     capsys.readouterr().out))
    assert runs[0] == runs[1]
    man = runs[0][0]
    assert man["inputs"] == {"network": sha256(net), "chain": sha256(chain_csv)}
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    counters = man["counters"]
    assert counters["paths"] == 3
    assert counters["jumps"] == len(rows) - 3
    # every horizon-ended path asks for one more row than it jumps
    assert (counters["rows_built"] + counters["row_hits"]
            == counters["jumps"] + 3 - counters["band_exits"])

    # one byte of whitespace: same network, same config, another input hash
    doc = bytearray(net.read_bytes())
    doc[doc.index(b" ")] = ord("\t")
    net.write_bytes(bytes(doc))
    assert main(argv) == 0
    edited = json.loads(manifest.read_text())
    assert capsys.readouterr().out == runs[0][1]
    assert edited["config_sha256"] == man["config_sha256"]
    assert edited["inputs"]["network"] != man["inputs"]["network"]
    assert edited["inputs"]["chain"] == man["inputs"]["chain"]
    assert {k: v for k, v in edited.items() if k != "inputs"} == {
        k: v for k, v in man.items() if k != "inputs"}


def test_simulate_cli(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["simulate", "--network", NET, "--x0", "3,2,1",
                 "--tf", "1.0", "--seed", "4", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0] == {"t": "0.0", "x1": "3", "x2": "2", "x3": "1"}
    assert float(rows[-1]["t"]) <= 1.0
    assert f"({len(rows) - 1} jumps," in capsys.readouterr().out
    man = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
    assert man["counters"] == {"jumps": len(rows) - 1}

    est_out = tmp_path / "exit.json"
    assert main(["simulate", "--network", NET, "--x0", "3,2,1",
                 "--tf", "0.5", "--stop", "class>60", "--weights", "2,1,1",
                 "--samples", "200", "--out", str(est_out)]) == 0
    doc = json.loads(est_out.read_text())
    assert doc["samples"] == 200 and doc["N"] == 60
    assert 0.0 <= doc["lo"] <= doc["hi"] <= 1.0
    # the manifest counts the work; stdout stays the result document
    man = json.loads((tmp_path / "exit.json.manifest.json").read_text())
    counters = man["counters"]
    assert set(counters) == {"paths", "exits", "jumps", "sweeps"}
    assert (counters["paths"], counters["exits"]) == (200, doc["exits"])
    assert counters["jumps"] >= counters["sweeps"] > 0
    assert json.loads(capsys.readouterr().out) == doc

    assert main(["simulate", "--network", NET, "--x0", "3,2,1",
                 "--tf", "0.5", "--stop", "class>60"]) == 2  # no weights
    assert main(["simulate", "--network", NET, "--x0", "3,2,1",
                 "--tf", "0.5", "--stop", "x1>3", "--weights", "2,1,1"]) == 2


@pytest.mark.parametrize("stop", [[], ["--stop", "class>5", "--weights", "1"]],
                         ids=["path", "stop"])
def test_a_network_without_reactions_exits_2(tmp_path, capsys, stop):
    # the path kernel raised IndexError and the exit estimate ValueError
    net = tmp_path / "still.json"
    net.write_text(json.dumps({"species": ["A"], "reactions": []}))
    assert main(["simulate", "--network", str(net), "--x0", "3", "--tf", "1",
                 "--out", str(tmp_path / "out.csv"), *stop]) == 2
    assert capsys.readouterr().err == (
        "error: network needs at least one reaction\n")


def test_simulate_counts_jumps_and_sweeps(tmp_path, capsys):
    # pure death from 10: every path is absorbed after exactly ten jumps,
    # and the sweep after the tenth finds every path absorbed
    net = tmp_path / "death.json"
    net.write_text(json.dumps({
        "species": ["X"],
        "reactions": [{"change": [-1], "propensity": [
            {"coeff": 1.0, "factors": [{"species": "X"}]}]}]}))
    out = tmp_path / "exit.json"
    assert main(["simulate", "--network", str(net), "--x0", "10",
                 "--tf", "100", "--stop", "class>20", "--weights", "1",
                 "--samples", "64", "--out", str(out)]) == 0
    man = json.loads((tmp_path / "exit.json.manifest.json").read_text())
    assert man["counters"] == {"paths": 64, "exits": 0, "jumps": 640,
                               "sweeps": 11}
    assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())


def test_truncate_cli(tmp_path, chain_csv, capsys):
    out = tmp_path / "cert.json"
    assert main(["truncate", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--N", "60",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["N"] == 60 and doc["M"] == 200
    assert 0.0 <= doc["bound_clipped"] <= 1.0
    man = json.loads((tmp_path / "cert.json.manifest.json").read_text())
    assert man["counters"]["solver_term"] == doc["solver_term"]
    assert man["counters"]["poisson_terms"] >= (
        man["counters"]["uniform_rate"] * 1.0)
    assert man["counters"]["passes"] == 1
    capsys.readouterr()

    assert main(["truncate", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--epsilon", "0.01",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["bound_clipped"] < 0.01
    capsys.readouterr()

    assert main(["truncate", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0"]) == 2  # neither --N nor --epsilon
    assert capsys.readouterr().err == "error: give either --N or --epsilon\n"
    # both: --N used to win and --epsilon was dropped without a word
    assert main(["truncate", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--N", "60",
                 "--epsilon", "0.01"]) == 2
    assert capsys.readouterr().err == (
        "error: give either --N or --epsilon, not both\n")
    # an infinite epsilon once certified N = 0 with bound_clipped 1.0
    assert main(["truncate", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--epsilon", "inf"]) == 2
    assert capsys.readouterr().err == (
        "error: epsilon must be finite and > 0, got inf\n")
    # M = -1 was once reported as the delta lying outside [0, -1]
    assert main(["truncate", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "-1", "--tf", "1.0", "--N", "0"]) == 2
    assert capsys.readouterr().err == "error: M must be >= 0\n"


def test_plan_truncation_cli(tmp_path, chain_csv, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan-truncation", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--epsilons", "0.1,0.01",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc["plan"]) == {"0.1", "0.01"}
    assert doc["plan"]["0.01"] >= doc["plan"]["0.1"] > 0
    man = json.loads((tmp_path / "plan.json.manifest.json").read_text())
    assert man["counters"]["poisson_terms"] > 0
    assert man["counters"]["passes"] == 1
    capsys.readouterr()
    assert main(["plan-truncation", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--epsilons", "0.1,inf"]) == 2
    assert capsys.readouterr().err == (
        "error: epsilon must be finite and > 0, got inf\n")


def test_plan_truncation_checks_every_epsilon_before_it_solves(
        monkeypatch, chain_csv, capsys):
    # a bad epsilon after a good one once exited 2 only after the good
    # one's uniformization pass
    from boundchain.cme import TruncatedCME

    passes = []
    real_pass = TruncatedCME._pass
    monkeypatch.setattr(TruncatedCME, "_pass",
                        lambda self, times: passes.append(times)
                        or real_pass(self, times))
    assert main(["plan-truncation", "--chain", chain_csv, "--p0", "delta:20",
                 "--M", "200", "--tf", "1.0", "--epsilons", "0.1,0"]) == 2
    assert capsys.readouterr().err == (
        "error: epsilon must be finite and > 0, got 0.0\n")
    assert passes == []


def test_heatmap_cli(tmp_path, chain_csv):
    out = tmp_path / "heat.csv"
    assert main(["heatmap", "--chain", chain_csv, "--p0", "delta:20",
                 "--n-grid", "40:80:20", "--t-grid", "0.25:1.0:0.25",
                 "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4
    for r in rows:
        assert 0.0 <= float(r["E_T_clipped"]) <= 1.0
    # at fixed t the bound shrinks as the window widens
    by_t = {}
    for r in rows:
        by_t.setdefault(r["t"], []).append((int(r["N"]),
                                            float(r["E_T_clipped"])))
    for vals in by_t.values():
        ordered = [b for _, b in sorted(vals)]
        assert all(y <= x + 1e-12 for x, y in zip(ordered, ordered[1:]))
    man = json.loads((tmp_path / "heat.csv.manifest.json").read_text())
    assert set(man["counters"]) == {"uniform_rate", "poisson_terms",
                                    "solver_term", "passes", "matvecs",
                                    "kernel_calls", "kernel"}
    # a box of 81 states: each csr_matvec call makes a run of terms
    assert man["counters"]["kernel"] == "csr-chained"
    assert 0.0 < man["counters"]["solver_term"] <= 1e-8
    # the requested times ride along the t_final pass: K + 1 terms, K mat-vecs
    assert man["counters"]["passes"] == 1
    assert man["counters"]["matvecs"] == man["counters"]["poisson_terms"]
    assert 0 < man["counters"]["kernel_calls"] < man["counters"]["matvecs"]


@pytest.mark.xfail(strict=True, reason="heatmap integrates the flux by "
                   "trapezoid on 16 points per requested time and undershoots "
                   "the certified E_T by up to ~5e-5")
def test_heatmap_cells_are_certified_bounds(tmp_path, chain_csv, upper211):
    out = tmp_path / "heat.csv"
    assert main(["heatmap", "--chain", chain_csv, "--p0", "delta:80",
                 "--n-grid", "80:120:10", "--t-grid", "0.5:4:0.5",
                 "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    short = []
    for t in sorted({float(r["t"]) for r in rows}):
        cme = solve_chain_cme(upper211, 120, delta_p0(120, 80), t)
        certified = np.minimum(certificate_table(cme)[0], 1.0)
        short += [(t, int(r["N"])) for r in rows if float(r["t"]) == t
                  and float(r["E_T_clipped"]) < certified[int(r["N"])] - 1e-12]
    assert not short, f"heatmap cells below the certified E_T: {short}"


def test_analyze_good_pair(tmp_path, capsys):
    out_dir = tmp_path / "report"
    argv = ["analyze", "--network", NET, "--lower-weights", "2,2,5",
            "--upper-weights", "2,1,1", "--l-exact", "60",
            "--out-dir", str(out_dir)]
    manifest = out_dir / "analysis.json.manifest.json"
    manifests = []
    for _ in range(2):
        assert main(argv) == 0
        manifests.append(json.loads(manifest.read_text()))
    assert manifests[0] == manifests[1]
    counters = manifests[0]["counters"]
    for direction, weights, J in (("lower", (2, 2, 5), 5),
                                  ("upper", (2, 1, 1), 2)):
        chain = BoundingChain.from_csv(out_dir / f"{direction}.csv")
        assert counters[direction] == {
            "classes": 61 + J,
            "states": sum(class_size(ell, ClassPartition(weights))
                          for ell in range(61 + J)),
            "tails": {str(k): {"period": m.period, "onset": m.onset}
                      for k, m in sorted(chain.tails.items())}}
    doc = json.loads((out_dir / "analysis.json").read_text())
    assert doc["verdict"]["x_behavior"] == "positive-recurrent"
    assert doc["lower_class"]["class"] == "positive-recurrent"
    assert doc["upper_class"]["class"] == "positive-recurrent"
    assert all(s["ok"] for s in doc["stages"].values())
    assert (out_dir / "lower.csv").exists()
    assert (out_dir / "upper.csv").exists()
    capsys.readouterr()


def test_analyze_naive_upper_gives_no_information(tmp_path, capsys):
    out_dir = tmp_path / "report"
    code = main(["analyze", "--network", NET, "--lower-weights", "2,2,5",
                 "--upper-weights", "1,1,1", "--l-exact", "60",
                 "--out-dir", str(out_dir)])
    assert code == 0
    doc = json.loads((out_dir / "analysis.json").read_text())
    assert doc["upper_class"]["class"] == "explosive"
    assert doc["verdict"]["x_behavior"] == "no-information"
    capsys.readouterr()


def test_analyze_reports_stage_failure(tmp_path, capsys):
    # the (2,2,5) upper construction has no admissible tail model, so the
    # build stage fails and the exit code carries through
    out_dir = tmp_path / "report"
    code = main(["analyze", "--network", NET, "--lower-weights", "2,2,5",
                 "--upper-weights", "2,2,5", "--l-exact", "60",
                 "--out-dir", str(out_dir)])
    assert code == 3
    doc = json.loads((out_dir / "analysis.json").read_text())
    assert doc["stages"]["build-upper"]["ok"] is False
    assert doc["stages"]["build-lower"]["ok"] is True
    assert "verdict" not in doc
    capsys.readouterr()


# sha256 of the outputs on the U70 chain from delta:80, recorded while every
# solve ran its t_final pass at construction and one more pass per query at
# new times
@pytest.mark.parametrize("argv, digest", [
    (["plan-truncation", "--M", "500", "--tf", "4", "--epsilons", "0.1,0.01"],
     "bd73b395e4092b15b55365a23633ef78b5ef7cbd94cf9e50359f54da30dd34df"),
    (["truncate", "--M", "500", "--tf", "4", "--N", "110"],
     "b3c08b37671d4310aaae84f4b0bf7814dcdd91c0d17fafff185a52d70437633e"),
    (["heatmap", "--n-grid", "80:160:10", "--t-grid", "0.5:4:0.5"],
     "a6e40941a5dc70d6f0313f6bf737818adf1e0abacbd07e13613b9b6c30550ce4"),
], ids=["plan-truncation", "truncate", "heatmap"])
def test_master_equation_outputs_are_byte_identical(tmp_path, chain_csv,
                                                    capsys, argv, digest):
    out = tmp_path / "out"
    assert main([*argv, "--chain", chain_csv, "--p0", "delta:80",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert sha256(out) == digest
