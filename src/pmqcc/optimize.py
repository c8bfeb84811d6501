"""Protocol-parameter optimization at fixed channel parameters.

``optimize_signal`` runs a deterministic coordinate search: per slice
count M (all integers, since the analytic prefactor and misalignment
accept odd M), a coarse log grid over the signal intensity followed by
golden-section refinement.  The coarse grid protects the refinement from
the zero-rate plateaus that surround the feasible window.  Each
evaluation calls the two steps of the float rate kernel: the intensity
terms (gain, phase error and its entropy), kept per intensity for the
whole search and shared by every M, and the slice step with the
constants hoisted per M.  The signal optimum is re-evaluated through
``rate_pmqcc``, with the arguments ``objective_variant`` reads from the
objective name.  Both searches score a rate below the smallest normal
float as 0: a subnormal rate has lost most of its digits to underflow.

Most slice counts cannot win, and the search skips them unscored.  With
G(mu) the rate at prefactor 1 and e_delta = 0,

    max(R(M, mu), 0) <= (2/M)^(N-1) max(G(mu), 0)   for every (M, mu):

e_delta(M) >= 0, so the branch QBER (p_d + a e_delta) e^-a / Q is at
least its e_delta = 0 value, both are <= 1/2 for M >= 3, and H(E_N)
rises with the QBER there, so the leak at M is at least the leak of G.
The search maximizes G first, over the same grid and intensity terms,
and skips every M with (2/M)^(N-1) * max G * ``CEILING_SLACK`` not above
the best rate so far.  A skipped M could at best tie, and ties go to the
first M, so the search returns what scoring every M would, in any order
of ``m_values``.  Where G is not positive on the coarse grid, neither is
any R(M, .) there, pointwise: every M is skipped and the search reports
no rate after one coarse grid.

``CEILING_SLACK`` covers the gap between max G, which the coarse grid
and golden section only estimate, and the supremum of G.  The golden
section leaves the maximizer within MU_TOL/2 of the point it returns, so
the estimate falls short by about kappa/2 (MU_TOL/2)^2 relative, where
kappa = |G''|/G at the maximum grows like (N-1)/mu^2.  Measured with
p_d <= 1e-4, the shortfall is at most 2e-5 for N <= 12 (0-300 km) and
1.2e-4 at N = 30 (0-1 km), against a slack of 1e-2.  From N ~ 35 the
top of G is jagged at the rounding of its margin 1 - f H(E_N) - H(E_X),
and the estimate can fall short of sup G by a factor of ~10 (N = 40-88
at 0 km).  What the skipping needs, though, is only that no R(M, .)
exceeds ``CEILING_SLACK`` (2/M)^(N-1) max G, with max G as estimated,
and the margin at M sits strictly below the margin of G: over the draws
measured, the largest R(M, .) stayed at or below 0.998 of
(2/M)^(N-1) max G for N <= 12 (0-400 km) and 0.40 of it for N = 13-91
(0-3 km).

With the default 4..64 the search scores M up to 1.5-2.5 times the
optimal M* and skips the rest: 4..20 at N = 3, 50 km, where M* = 13, and
4..45 at N = 8, 0 km, where M* = 21.  The smaller the margin at M*
against that of G, the later the skipping starts; at N = 12, 0 km it
skips no M.

``optimize_decoys`` maximizes the certified rate lower bound over the
decoy intensity triple-or-more in log space by coordinate descent from a
few fixed starting points (a golden-ratio sequence, defined for any N);
configurations rejected by the estimator as degenerate count as rate 0
and are never returned as optima.  Near its optimum the certified rate
is flat in the decoys to ~1e-6 relative, so the descent accepts only
moves that gain more than ``DECOY_RTOL`` relative and stops where every
trial is within it: the optimum it returns is set by the model, not by
how the ladder's sums round.
"""

from __future__ import annotations

import math
import sys

from .core import ChannelParams, DegenerateGeometryError, ProtocolParams, Record, transmittance
from .decoy import n_cut_for, rate_lower
from .keyrate import intensity_terms, objective_variant, rate_pmqcc, slice_constants, slice_rate

__all__ = ["OptimizationResult", "optimize_signal", "optimize_decoys"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
# the smallest rate a search scores above 0
_TINY = sys.float_info.min

# signal-intensity search window, golden-section tolerance, and the size
# of the geometric grid that brackets the maximum
MU_BOUNDS = (1e-3, 1.0)
MU_TOL = 1e-4
COARSE_POINTS = 40
_LOG_LO, _LOG_HI = map(math.log10, MU_BOUNDS)
COARSE_GRID = tuple(
    10.0 ** (_LOG_LO + i * ((_LOG_HI - _LOG_LO) / (COARSE_POINTS - 1))) for i in range(COARSE_POINTS)
)
# factor on the estimated maximum of the slice-free rate G that makes it
# a ceiling for every slice count (module docstring)
CEILING_SLACK = 1.0 + 1e-2

# starting points and coordinate sweeps per start of the decoy search
DECOY_RESTARTS = 3
DECOY_SWEEPS = 25
# relative rate change below which the decoy search treats a move as no
# change: halving one decoy near the 150 km optimum moves the certified
# rate by only 1e-6 to 3e-6 relative
DECOY_RTOL = 1e-6


class OptimizationResult(Record):
    """Best parameters found, the rate there, and the number of objective
    evaluations.  ``flagged_zero`` marks a search that found no positive
    rate (``best_params`` is then None)."""

    __slots__ = ("best_params", "best_rate", "evaluations", "flagged_zero")

    _defaults = {"flagged_zero": False}


def _golden_refine(obj, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; returns (x, f(x))."""
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = obj(d)
    x = (a + b) / 2.0
    return x, obj(x)


def _maximize_scalar(obj):
    """Coarse geometric bracket over ``MU_BOUNDS`` followed by
    golden-section refinement to ``MU_TOL``; returns (x, f(x)), or
    (None, 0.0) where no grid point is positive."""
    grid = COARSE_GRID
    vals = [obj(x) for x in grid]
    i = max(range(COARSE_POINTS), key=vals.__getitem__)  # the first maximum
    if vals[i] <= 0.0:
        return None, 0.0
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, COARSE_POINTS - 1)]
    x, fx = _golden_refine(obj, left, right, MU_TOL)
    if vals[i] > fx:
        x, fx = grid[i], vals[i]
    return x, fx


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
    is searched.  Sliced, every M in ``m_values`` is validated, and an M
    whose ceiling cannot beat the best rate so far is skipped unscored
    (module docstring).
    """
    sliced, ends = objective_variant(objective, boundaries)
    eta = transmittance(ch)

    def params(mu: float, m: int) -> ProtocolParams:
        return ProtocolParams(
            n_parties=n_parties,
            signal_intensity=mu,
            slice_count=m,
            ec_efficiency=ec_efficiency,
            signal_phase_misalignment=signal_phase_misalignment,
        )

    # mu -> intensity terms: every M scores the same coarse grid, and
    # golden-section paths of adjacent M coincide for a while
    terms_at = {}
    evaluations = 0

    def rate_at(prefactor: float, misalignment: float):
        def rate(mu: float) -> float:
            nonlocal evaluations
            evaluations += 1
            terms = terms_at.get(mu)
            if terms is None:
                terms = terms_at[mu] = intensity_terms(n_parties, mu, ch.dark_count, eta, ends)
            raw = slice_rate(terms, ec_efficiency, prefactor, misalignment, sliced)[0]
            return raw if raw >= _TINY else 0.0

        return rate

    slice_grid = list(m_values) if sliced else [13]
    # validates the fixed parameters and every M, skipped or not, as every
    # rate at M would
    constants = [slice_constants(params(MU_BOUNDS[1], m), sliced) for m in slice_grid]
    ceiling = math.inf
    if sliced and constants:
        # the rate at prefactor 1 and e_delta = 0 bounds every R(M, .) / P_M
        top = _maximize_scalar(rate_at(1.0, 0.0))[1]
        ceiling = top * CEILING_SLACK

    best = (0.0, None, None)  # rate, mu, M
    for m, (prefactor, misalignment) in zip(slice_grid, constants):
        if prefactor * ceiling <= best[0]:
            continue  # M cannot beat the best: at most a tie, which M loses
        mu, rate = _maximize_scalar(rate_at(prefactor, misalignment))
        if mu is not None and rate > best[0]:
            best = (rate, mu, m)

    if best[1] is None:
        return OptimizationResult(
            best_params=None, best_rate=0.0, evaluations=evaluations, flagged_zero=True
        )
    best_params = params(best[1], best[2])
    # bench/test_bench.py requires this call to keyrate.rate_pmqcc: not a removable re-run
    return OptimizationResult(
        best_params=best_params,
        best_rate=rate_pmqcc(best_params, ch, sliced=sliced, boundaries=ends).rate,
        evaluations=evaluations,
    )


def optimize_decoys(
    ch: ChannelParams,
    n_parties: int,
    signal_intensity: float,
    slice_count: int,
    *,
    ec_efficiency: float = 1.16,
) -> OptimizationResult:
    """Maximize the certified rate lower bound over the decoy intensities
    (ordering constraints enforced, vacuum always appended).

    Log-space coordinate descent with shrinking line searches, restarted
    from ``DECOY_RESTARTS`` fixed starting points for at most
    ``DECOY_SWEEPS`` sweeps each; deterministic.  A move must gain more
    than ``DECOY_RTOL`` relative, and a restart ends once a sweep finds
    every trial within that of the current rate: a smaller step can only
    be flatter.
    """
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
        xs = [math.exp(v) for v in log_xs]
        if any(hi <= lo * (1.0 + 2e-3) for hi, lo in zip(xs, xs[1:])) or xs[0] >= signal_intensity:
            return 0.0
        evaluations += 1
        try:
            rate = rate_lower(params(xs), ch).rate
        except DegenerateGeometryError:
            return 0.0
        return rate if rate >= _TINY else 0.0

    def starting_points():
        # ratios drawn from a golden-ratio (Kronecker) sequence: the first
        # decoy mu / [2, 8), each next one / [1.3, 3), the last / [20, 400)
        for r in range(DECOY_RESTARTS):
            u = [((r * n_decoys + j + 1) * _INVPHI) % 1.0 for j in range(n_decoys)]
            xs = [signal_intensity / (2.0 + 6.0 * u[0])]
            for q in u[1:-1]:
                xs.append(xs[-1] / (1.3 + 1.7 * q))
            xs.append(xs[-1] / (20.0 + 380.0 * u[-1]))
            yield [math.log(x) for x in xs]

    best_rate, best_xs = 0.0, None
    for log_xs in starting_points():
        current = objective(log_xs)
        step = 0.5
        for _ in range(DECOY_SWEEPS):
            improved, flat = False, True
            for i in range(n_decoys):
                for delta in (step, -step):
                    trial = list(log_xs)
                    trial[i] += delta
                    val = objective(trial)
                    if val > current * (1.0 + DECOY_RTOL):
                        log_xs, current = trial, val
                        improved = True
                    elif abs(val - current) > DECOY_RTOL * current:
                        flat = False
            if not improved:
                step /= 2.0
                if flat or step < 1e-4:
                    break
        if current > best_rate:
            best_rate, best_xs = current, [math.exp(v) for v in log_xs]

    if best_xs is None:
        return OptimizationResult(
            best_params=None, best_rate=0.0, evaluations=evaluations, flagged_zero=True
        )
    return OptimizationResult(best_params=params(best_xs), best_rate=best_rate, evaluations=evaluations)
