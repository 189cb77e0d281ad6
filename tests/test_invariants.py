"""Byte, source, name and signature invariants of the package."""

import inspect
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy import special

import boundchain
from boundchain import (builder, cli, cme, coupling, network, simulate,
                        transport)
from boundchain.cme import _csr_matvec, _dia_matvec


def test_dia_and_csr_matvec_give_the_bytes_of_matmul(monkeypatch):
    # nonnegative, banded on offsets -1, 0 and +2, with gaps in the band
    A = sp.diags([[0.1, 0.0, 0.3, 0.7, 0.2, 0.9, 0.4], np.linspace(0.0, 1.0, 8),
                  [0.6, 0.05, 0.8, 0.0, 0.35, 0.15]], [-1, 0, 2], format="csr")
    A.eliminate_zeros()
    v = np.random.default_rng(0).random(8)
    want = (A @ v).tobytes()
    y = np.zeros(8)
    _csr_matvec(8, 8, A.indptr, A.indices, A.data, v, y)
    assert y.tobytes() == want, ("csr_matvec", y, A @ v)
    # one csr_matvec call over m stacked copies, its input and output the
    # overlapping rows 0..m-1 and 1..m of one block, makes m products
    kernel, matvec = cme._matvec_kernel(A)
    assert kernel == "csr-chained" and matvec.func is _csr_matvec
    # at most _COPIES copies, and at most K: no more than a pass can use
    assert cme._stack(A, 10 ** 6)[0] == cme._COPIES
    m = 5
    copies, *stack = cme._stack(A, m)
    assert copies == m and cme._stack(A, 0)[0] == 1
    terms = np.zeros((m + 1, 8))
    terms[0] = v
    flat = terms.ravel()
    _csr_matvec(m * 8, m * 8, *stack, flat[:m * 8], flat[8:])
    for k in range(1, m + 1):
        assert terms[k].tobytes() == (A @ terms[k - 1]).tobytes(), k
    monkeypatch.setattr(cme, "_CHAIN_NNZ", -1)
    kernel, matvec = cme._matvec_kernel(A)
    assert kernel == "dia" and matvec.func is _dia_matvec
    y = np.zeros(8)
    matvec(v, y)
    assert y.tobytes() == want, ("dia_matvec", y, A @ v)


def test_k_log_m_gives_the_bytes_of_xlogy():
    # the exponent term of the Poisson weights, for 1 <= k <= 30,000 and
    # 0 < m <= 28,010, the mean of the README solve (Lambda = 7002.5, t_f = 4)
    rng = np.random.default_rng(0)
    ks = np.concatenate([[1, 2, 29_999, 30_000], rng.integers(1, 30_001, 496)])
    ms = np.concatenate([[5e-324, 1e-300, 0.5, 1.0, 7002.5, 28_010.0],
                         rng.uniform(0.0, 28_010.0, 194)])
    assert (ms > 0).all() and len(ks) * len(ms) >= 100_000
    bad = [m for m in ms
           if (ks * math.log(m)).tobytes() != special.xlogy(ks, m).tobytes()]
    assert not bad, bad[:5]


def test_path_loaded_gammaln_gives_the_bytes_of_special():
    # log(k!) of the Poisson weights, for every k a pass may reach
    x = np.arange(2_000_001) + 1.0
    assert cme._special.gammaln(x).tobytes() == special.gammaln(x).tobytes()


def test_gammainc_gives_the_bytes_of_pdtrc():
    # P(N > k) for N ~ Poisson(m), on a log grid of means covering the
    # pinned solves' Lambda t, for every k the stop search reads at its
    # first two widths
    bad = []
    for m in np.geomspace(0.05, 2e6, 30):
        k = np.arange(int(m + 16.0 * np.sqrt(m)) + 20)
        if (cme._special.gammainc(k + 1.0, m).tobytes()
                != special.pdtrc(k, m).tobytes()):
            bad.append(m)
    assert not bad, bad


# one chain solve in a fresh process, with the path load refused or not:
# which heavy scipy modules it loaded, the digest of its floats, and
# whether a later import of scipy.special and scipy.sparse hands back the
# modules the solve used
LOAD_RUN = """
import hashlib, json, sys
if sys.argv[1] == 'refuse':
    import importlib.machinery
    class ExtensionFileLoader(importlib.machinery.ExtensionFileLoader):
        def __init__(self, *args):  # the import system keeps its own class
            raise ImportError('path load refused')
    importlib.machinery.ExtensionFileLoader = ExtensionFileLoader
import numpy as np
from boundchain import BoundingChain, cme
ell = np.arange(41.0)
chain = BoundingChain('upper', 2, 40, 40, {1: 1.5 + 0 * ell, 2: ell / 7,
                                            -1: 2.0 * ell}, {}, (1,))
solve = cme.solve_chain_cme(chain, 40, cme.delta_p0(40, 3), 2.0)
bounds, _ = cme.certificate_table(solve)
floats = np.concatenate([solve.p([0.5, 2.0]).ravel(), bounds])
heavy = [m for m in ('scipy.sparse', 'scipy.special', 'scipy._lib._array_api')
         if m in sys.modules]
import scipy.sparse, scipy.special
same = (cme._special is sys.modules['scipy.special._special_ufuncs']
        and cme._special.gammaln is scipy.special.gammaln
        and cme._sparsetools is sys.modules['scipy.sparse._sparsetools'])
print(json.dumps({'heavy': heavy, 'same': same,
                  'digest': hashlib.sha256(floats.tobytes()).hexdigest()}))
"""


def test_kernels_load_by_path_and_fall_back_to_the_import():
    src = Path(__file__).resolve().parents[1] / "src"
    got = {}
    for mode in ("path", "refuse"):
        done = subprocess.run([sys.executable, "-c", LOAD_RUN, mode],
                              capture_output=True, text=True, timeout=120,
                              env={"PYTHONPATH": str(src), "PATH": ""})
        assert done.returncode == 0, done.stderr
        got[mode] = json.loads(done.stdout.strip().splitlines()[-1])
    assert got["path"]["heavy"] == []
    assert {"scipy.sparse", "scipy.special"} <= set(got["refuse"]["heavy"])
    assert got["path"]["same"] and got["refuse"]["same"]
    assert got["path"]["digest"] == got["refuse"]["digest"]


def test_coupling_rows_and_pi_bar_share_one_walk_with_one_path():
    assert coupling._walk is transport._walk
    src = inspect.getsource(transport._walk)
    assert "sorted_b" not in src and "reach" not in src


def test_deleted_names_stay_gone():
    # detect_tails takes one pass over its candidates, the transport walk
    # checks domination at one site, check_propensities is the one
    # propensity checker, rates the one many-state evaluator, ssa runs
    # networks only, and verify and couple read the chain file's weights
    assert not hasattr(builder, "_fit_window")
    assert not hasattr(cli, "_partition_for")
    assert not hasattr(transport, "_undominated")
    assert not hasattr(network, "validate_network")
    assert not hasattr(network.PropensityPolynomial, "evaluate_many")
    assert "phi" not in boundchain.__all__
    assert not hasattr(coupling.CoupledSimulator, "marginals")
    assert not hasattr(coupling.CoupledTrajectory, "ordered_throughout")
    assert not hasattr(cme.TruncationCertificate, "summary")
    assert not hasattr(simulate.ExitEstimate, "summary")
    assert "stop" not in inspect.signature(simulate.ssa).parameters
    assert not {"rates", "changes"} & set(
        inspect.signature(simulate._lockstep).parameters)


def test_resource_limits_are_module_constants():
    # no public function takes cap or jump_cap; the certificate functions
    # take their budget from the solve
    bad = [n for n in boundchain.__all__
           if inspect.isfunction(f := getattr(boundchain, n))
           and {"cap", "jump_cap"} & set(inspect.signature(f).parameters)]
    assert not bad, bad
    bad = [n for n in ("truncation_certificate", "min_truncation")
           if "budget" in inspect.signature(getattr(boundchain, n)).parameters]
    assert not bad, bad


def test_every_chain_carries_its_weights():
    # a chain is built for one partition: its weights, and the partition
    # tail detection reads, are required, and verify and couple take the
    # partition from the chain file
    for fn, names in ((boundchain.BoundingChain, ("tails", "weights")),
                      (builder.phi_inverse, ("weights",)),
                      (builder.detect_tails, ("partition",))):
        params = inspect.signature(fn).parameters
        for name in names:
            assert params[name].default is inspect.Parameter.empty, (fn, name)
    commands = cli.build_parser()._subparsers._group_actions[0].choices
    for command in ("verify", "couple"):
        options = {o for a in commands[command]._actions
                   for o in a.option_strings}
        assert "--chain" in options and "--weights" not in options, command
