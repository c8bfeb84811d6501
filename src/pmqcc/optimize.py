"""Protocol-parameter optimization at fixed channel parameters.

``optimize_signal`` runs a deterministic coordinate search: an exhaustive
integer grid over the slice count M (all integers, since the analytic
prefactor and misalignment accept odd M) and, per M, a coarse log grid
over the signal intensity followed by golden-section refinement.  The
coarse grid protects the refinement from the zero-rate plateaus that
surround the feasible window.  Each evaluation calls the two steps of the
float rate kernel: the intensity terms (gain, phase error and its
entropy), kept per intensity for the whole search and shared by every
M, and the slice step with the constants hoisted per M.  The optimum is
re-evaluated through the full rate report.

``optimize_decoys`` maximizes the certified rate lower bound over the
decoy intensity triple-or-more in log space by coordinate descent from a
few fixed starting points; configurations rejected by the estimator as
degenerate count as rate 0 and are never returned as optima.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ChannelParams, ProtocolParams, transmittance
from .decoy import n_cut_for, rate_lower
from .errors import DegenerateGeometryError, ParameterError
from .keyrate import (
    RateReport,
    intensity_terms,
    rate_constants,
    rate_pmqcc,
    rate_pmqcc_star,
    rate_reduced,
    slice_rate,
)

__all__ = ["OptimizationResult", "optimize_signal", "optimize_decoys"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# signal-intensity search window, golden-section tolerance, and the size
# of the geometric grid that brackets the maximum
MU_BOUNDS = (1e-3, 1.0)
MU_TOL = 1e-4
COARSE_POINTS = 40
# np.geomspace(*MU_BOUNDS, COARSE_POINTS) element for element: computing
# it as 10.0 ** y instead misses one point by an ulp, and that moves the
# last bit of some optima
COARSE_GRID = (
    0.001, 0.001193776641714437, 0.0014251026703029977, 0.0017012542798525892,
    0.002030917620904735, 0.0024244620170823282, 0.0028942661247167516, 0.003455107294592218,
    0.004124626382901352, 0.004923882631706742, 0.0058780160722749115, 0.00701703828670383,
    0.008376776400682925, 0.01, 0.01193776641714437, 0.014251026703029985,
    0.017012542798525893, 0.020309176209047358, 0.024244620170823284, 0.028942661247167517,
    0.0345510729459222, 0.04124626382901352, 0.04923882631706741, 0.05878016072274915,
    0.07017038286703829, 0.0837677640068292, 0.1, 0.1193776641714437,
    0.14251026703029993, 0.17012542798525893, 0.2030917620904737, 0.24244620170823283,
    0.28942661247167517, 0.3455107294592222, 0.4124626382901352, 0.49238826317067413,
    0.5878016072274912, 0.701703828670383, 0.8376776400682924, 1.0,
)

# objective name -> name of its rate function, imported above and looked
# up in this module's namespace on every call
OBJECTIVES = {"pmqcc": "rate_pmqcc", "pmqcc-star": "rate_pmqcc_star", "reduced": "rate_reduced"}


def objective_rate(
    objective: str, pp: ProtocolParams, ch: ChannelParams, boundaries: tuple
) -> RateReport:
    """Rate report of one objective; ``boundaries`` marks the broken ends
    of the reduced chain.  A rebound module global (a tracer's wrapper,
    say) takes effect because the function is looked up at call time."""
    _check_objective(objective)
    rate = globals()[OBJECTIVES[objective]]
    return rate(pp, ch, boundaries) if objective == "reduced" else rate(pp, ch)


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ParameterError(f"objective must be one of {tuple(OBJECTIVES)}, got {objective!r}")


@dataclass(frozen=True)
class OptimizationResult:
    """Best parameters found, the rate re-evaluated exactly there, and
    the number of objective evaluations.  ``flagged_zero`` marks a search
    that found no positive rate (``best_params`` is then None)."""

    best_params: ProtocolParams | None
    best_rate: float
    evaluations: int
    flagged_zero: bool = False


def _golden_refine(obj, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    evals = 0
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = obj(c), obj(d)
    evals += 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = obj(d)
        evals += 1
    x = (a + b) / 2.0
    return x, obj(x), evals + 1


def _maximize_scalar(obj):
    """Coarse geometric bracket over ``MU_BOUNDS`` followed by
    golden-section refinement to ``MU_TOL``."""
    grid = COARSE_GRID
    vals = [obj(x) for x in grid]
    evals = COARSE_POINTS
    i = max(range(COARSE_POINTS), key=vals.__getitem__)  # the first maximum
    if vals[i] <= 0.0:
        return None, 0.0, evals
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, COARSE_POINTS - 1)]
    x, fx, extra = _golden_refine(obj, left, right, MU_TOL)
    if vals[i] > fx:
        x, fx = grid[i], vals[i]
    return x, fx, evals + extra


def optimize_signal(
    ch: ChannelParams,
    n_parties: int,
    objective: str = "pmqcc",
    *,
    ec_efficiency: float = 1.16,
    signal_phase_misalignment: float = 0.0,
    boundaries: tuple = (False, True),
    m_values=range(4, 65),
) -> OptimizationResult:
    """Maximize the key rate over (signal intensity, slice count).

    For the starred objective the slice count is irrelevant (prefactor 1,
    misalignment from the signal-mode parameter), so only the intensity
    is searched.
    """
    _check_objective(objective)
    sliced = objective != "pmqcc-star"
    ends = boundaries if objective == "reduced" else (False, False)
    eta = transmittance(ch)

    def params(mu: float, m: int) -> ProtocolParams:
        return ProtocolParams(
            n_parties=n_parties,
            signal_intensity=mu,
            slice_count=m,
            ec_efficiency=ec_efficiency,
            signal_phase_misalignment=signal_phase_misalignment,
        )

    evaluations = 0
    best = (0.0, None, None)  # rate, mu, M
    # mu -> intensity terms: every M scores the same coarse grid, and
    # golden-section paths of adjacent M coincide for a while
    terms_at = {}

    slice_grid = list(m_values) if sliced else [13]
    for m in slice_grid:
        # validates the fixed parameters and M once, as every rate at M would
        prefactor, misalignment = rate_constants(params(MU_BOUNDS[1], m), sliced)

        def rate_at(mu: float) -> float:
            terms = terms_at.get(mu)
            if terms is None:
                terms = terms_at[mu] = intensity_terms(n_parties, mu, ch.dark_count, eta, ends)
            raw = slice_rate(terms, ec_efficiency, prefactor, misalignment, sliced)[0]
            return max(raw, 0.0)

        mu, rate, used = _maximize_scalar(rate_at)
        evaluations += used
        if mu is not None and rate > best[0]:
            best = (rate, mu, m)

    if best[1] is None:
        return OptimizationResult(
            best_params=None, best_rate=0.0, evaluations=evaluations, flagged_zero=True
        )
    best_params = params(best[1], best[2])
    return OptimizationResult(
        best_params=best_params,
        best_rate=objective_rate(objective, best_params, ch, boundaries).rate,
        evaluations=evaluations,
    )


def optimize_decoys(
    ch: ChannelParams,
    n_parties: int,
    signal_intensity: float,
    slice_count: int,
    *,
    ec_efficiency: float = 1.16,
    restarts: int = 3,
    sweeps: int = 25,
) -> OptimizationResult:
    """Maximize the certified rate lower bound over the decoy intensities
    (ordering constraints enforced, vacuum always appended).

    Log-space coordinate descent with shrinking line searches, restarted
    from fixed seed-derived starting points; deterministic.
    """
    import numpy as np  # here, not at module level: only this search needs it

    n_decoys = n_cut_for(n_parties) + 1

    def params(decoys) -> ProtocolParams:
        return ProtocolParams(
            n_parties=n_parties,
            signal_intensity=signal_intensity,
            slice_count=slice_count,
            ec_efficiency=ec_efficiency,
            decoy_intensities=tuple(decoys) + (0.0,),
        )

    evaluations = 0

    def objective(log_xs) -> float:
        nonlocal evaluations
        xs = np.exp(log_xs)
        if np.any(xs[:-1] <= xs[1:] * (1.0 + 2e-3)) or xs[0] >= signal_intensity:
            return 0.0
        evaluations += 1
        try:
            return rate_lower(params(xs), ch).rate
        except DegenerateGeometryError:
            return 0.0

    def starting_points():
        mu = signal_intensity
        for r in range(restarts):
            rng = np.random.default_rng(1000 + r)
            top = mu / rng.uniform(2.0, 8.0)
            ratios = rng.uniform(1.3, 3.0, n_decoys - 2)
            xs = [top]
            for q in ratios:
                xs.append(xs[-1] / q)
            xs.append(xs[-1] / rng.uniform(20.0, 400.0))
            yield np.log(np.array(xs[:n_decoys]))

    best_rate, best_xs = 0.0, None
    for start in starting_points():
        log_xs = start.copy()
        current = objective(log_xs)
        step = 0.5
        for _ in range(sweeps):
            improved = False
            for i in range(n_decoys):
                for delta in (step, -step):
                    trial = log_xs.copy()
                    trial[i] += delta
                    val = objective(trial)
                    if val > current:
                        log_xs, current = trial, val
                        improved = True
            if not improved:
                step /= 2.0
                if step < 1e-4:
                    break
        if current > best_rate:
            best_rate, best_xs = current, np.exp(log_xs)

    if best_xs is None:
        return OptimizationResult(
            best_params=None, best_rate=0.0, evaluations=evaluations, flagged_zero=True
        )
    best_pp = params(best_xs)
    return OptimizationResult(
        best_params=best_pp, best_rate=rate_lower(best_pp, ch).rate, evaluations=evaluations
    )
