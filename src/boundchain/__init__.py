"""One-dimensional bounding chains for stochastic reaction networks.

Workflow: describe a network (network), pick integer weights that make the
level sets finite, build the optimal upper or lower bounding chain
(builder), classify its long-run behaviour (classifier), and use it for
coupled simulation (coupling) or certified truncation of the master
equation (cme).
"""

__version__ = "0.1.0"

from .errors import (ConsistencyError, InfeasibleError, ResourceLimitError,
                     StabilizationError, ToolError, ValidationError)
from .network import (ClassPartition, Factor, PropensityPolynomial, Reaction,
                      ReactionNetwork, Term,
                      class_size, class_shift, enumerate_class, j_max,
                      load_network, network_from_dict)
from .transport import TransportError, pi, pi_bar
from .chain import BoundingChain, TailModel
from .builder import (build_bounding_chain, check_optimality,
                      check_u_membership, compute_f, detect_tails, optimal_U,
                      phi_inverse, verify_assumptions)
from .classifier import (Attestation, ChainClass, DriftStats, XBehavior,
                         check_irreducible, classify, combine, drift_stats)
from .simulate import (ExitEstimate, Trajectory, estimate_exit, make_rng,
                       ssa, wilson_interval)
from .coupling import CoupledSimulator, CoupledTrajectory, coupled_ssa

__all__ = [
    "__version__",
    "ToolError", "ValidationError", "ResourceLimitError", "InfeasibleError",
    "StabilizationError", "ConsistencyError", "TransportError",
    "ReactionNetwork", "Reaction", "PropensityPolynomial", "Term", "Factor",
    "ClassPartition", "class_size", "class_shift",
    "enumerate_class", "j_max", "load_network",
    "network_from_dict",
    "pi", "pi_bar",
    "BoundingChain", "TailModel",
    "build_bounding_chain", "compute_f", "optimal_U", "check_u_membership",
    "phi_inverse", "detect_tails", "verify_assumptions",
    "check_optimality",
    "DriftStats", "ChainClass", "XBehavior", "Attestation", "drift_stats",
    "classify", "combine", "check_irreducible",
    "TruncatedCME", "TruncationCertificate", "chain_generator",
    "network_generator", "solve_cme", "solve_chain_cme", "solve_network_cme",
    "delta_p0", "truncation_certificate", "certificate_table",
    "min_truncation", "cdf_dominance",
    "Trajectory", "ExitEstimate", "ssa", "estimate_exit", "wilson_interval",
    "make_rng",
    "CoupledSimulator", "CoupledTrajectory", "coupled_ssa",
]


def __getattr__(name):
    # the names of __all__ not imported above are cme's: cme loads compiled
    # kernels by path (no scipy.sparse/scipy.special import), so it is
    # imported on first use (PEP 562), not at start-up
    if name in __all__:
        from . import cme
        return getattr(cme, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
