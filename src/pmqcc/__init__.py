"""pmqcc: simulation and analysis engine for N-party phase-matching
quantum cryptographic conferencing.

Computes asymptotic conference-key rates from a physical channel and
detector model, certifies decoy-state bounds, cross-validates the
analytics against a round-level Monte Carlo protocol simulator, and
optimizes protocol parameters.
"""

from .core import (
    ChannelParams,
    ProtocolParams,
    binary_entropy,
    intrinsic_misalignment,
    transmittance,
)
from .decoy import (
    DecoyBounds,
    DecoyGains,
    decoy_bounds,
    n_cut_for,
    phase_error_upper,
    rate_lower,
    simulate_decoy_gains,
    y2_lower_3party,
    yields_lower_general,
)
from .errors import (
    DegenerateGeometryError,
    EnumerationLimitError,
    InsufficientDataError,
    InsufficientIntensitiesError,
    ParameterError,
    PMQCCError,
)
from .interference import branch_gain_avg, branch_qber_avg
from .keyrate import (
    RateReport,
    marginal_qber,
    qber_star,
    rate_pmqcc,
    rate_pmqcc_star,
    rate_reduced,
    scaling_exponent,
)
from .optimize import OptimizationResult, optimize_decoys, optimize_signal
from .yields import BranchSpec, BranchTopology, phase_error_rate, yield_probability

__version__ = "0.1.0"

# the simulator pulls in random and concurrent.futures (~10 ms), so its
# names are imported on first use
_MONTECARLO_NAMES = (
    "EmpiricalEstimates", "SimConfig", "SimTally", "estimate", "run_rounds", "tally_expectation"
)


def __getattr__(name):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
