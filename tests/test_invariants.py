"""Byte, source, name and signature invariants of the package."""

import inspect
import math

import numpy as np
import scipy.sparse as sp
from scipy import special

import boundchain
from boundchain import builder, cme, coupling, network, simulate, transport
from boundchain.cme import _csr_matvec, _dia_matvec


def test_dia_and_csr_matvec_give_the_bytes_of_matmul():
    # nonnegative, banded on offsets -1, 0 and +2, with gaps in the band
    A = sp.diags([[0.1, 0.0, 0.3, 0.7, 0.2, 0.9, 0.4], np.linspace(0.0, 1.0, 8),
                  [0.6, 0.05, 0.8, 0.0, 0.35, 0.15]], [-1, 0, 2], format="csr")
    A.eliminate_zeros()
    v = np.random.default_rng(0).random(8)
    want = (A @ v).tobytes()
    y = np.zeros(8)
    _csr_matvec(8, 8, A.indptr, A.indices, A.data, v, y)
    assert y.tobytes() == want, ("csr_matvec", y, A @ v)
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


def test_coupling_rows_and_pi_bar_share_one_walk_with_one_path():
    assert coupling._walk is transport._walk
    src = inspect.getsource(transport._walk)
    assert "sorted_b" not in src and "reach" not in src


def test_deleted_names_stay_gone():
    # detect_tails takes one pass over its candidates, check_propensities
    # is the one propensity checker, rates the one many-state evaluator,
    # and ssa runs networks only
    assert not hasattr(builder, "_fit_window")
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
