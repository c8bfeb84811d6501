"""pmqcc: simulation and analysis engine for N-party phase-matching
quantum cryptographic conferencing.

Computes asymptotic conference-key rates from a physical channel and
detector model, certifies decoy-state bounds, cross-validates the
analytics against a round-level Monte Carlo protocol simulator, and
optimizes protocol parameters.

``import pmqcc`` loads no layer: each public name is imported from its
module on first use (PEP 562), so a process pays only for the layers it
runs.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULE_OF = {
    **dict.fromkeys(
        ("ChannelParams", "ProtocolParams", "binary_entropy", "intrinsic_misalignment", "transmittance"),
        "core",
    ),
    **dict.fromkeys(
        ("DecoyBounds", "DecoyGains", "decoy_bounds", "n_cut_for", "phase_error_upper", "rate_lower",
         "simulate_decoy_gains", "yields_lower_general"),
        "decoy",
    ),
    **dict.fromkeys(
        ("DegenerateGeometryError", "InsufficientDataError", "InsufficientIntensitiesError",
         "ParameterError", "PMQCCError"),
        "core",
    ),
    **dict.fromkeys(("branch_gain_avg", "branch_qber_avg"), "interference"),
    **dict.fromkeys(
        ("RateReport", "marginal_qber", "qber_star", "rate_pmqcc", "scaling_exponent"),
        "keyrate",
    ),
    **dict.fromkeys(
        ("EmpiricalEstimates", "SimConfig", "SimTally", "estimate", "run_rounds", "tally_expectation"),
        "montecarlo",
    ),
    **dict.fromkeys(("OptimizationResult", "optimize_decoys", "optimize_signal"), "optimize"),
}
_SUBMODULES = frozenset(_MODULE_OF.values()) | {"cli"}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value
