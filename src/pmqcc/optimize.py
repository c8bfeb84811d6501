"""Protocol-parameter optimization at fixed channel parameters.

``optimize_signal`` runs a deterministic coordinate search: per slice
count M (all integers, since the analytic prefactor and misalignment
accept odd M), a coarse log grid over the signal intensity followed by
golden-section refinement.  The coarse grid protects the refinement from
the zero-rate plateaus that surround the feasible window.  Each
evaluation calls the two steps of the float rate kernel: the intensity
terms (gain, phase error and its entropy), kept per intensity for the
whole search and shared by every M, and the slice step with the
constants hoisted per M.  The search takes ``rate_pmqcc``'s ``sliced``
and ``boundaries`` and re-evaluates its optimum through ``rate_pmqcc``.
Both searches score a rate below the smallest normal float as 0: a
subnormal rate has lost most of its digits to underflow.

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
scale of a geometric decoy set, x_i = 10^v mu r^-i for i = 0..n_cut with
the vacuum appended.  For each ratio r in ``DECOY_RATIOS`` it searches v
with the coarse grid and golden section of the signal search, and it
keeps the best set.  The grid spans 1e-6 mu to 10^-0.15 mu, so every set
is strictly decreasing and below mu; a set the estimator rejects as
degenerate scores 0 and is never returned.  In this asymptotic model the
certified rate rises as the decoys weaken, until rounding in the ladder
takes it down again: on the benchmark channel the best scale lies at
v ~ -1.9 to -4.4.  The best ratio depends on the number of rungs: over
seeded searches 1.05 won at every N = 3 point, where 1.3 alone fell up
to 1.2e-5 relative short of a free coordinate descent beyond ~170 km,
and 1.3 won at every N = 5-9 point, where 1.05 alone fell up to 8e-4
short.
"""

import math
import sys

from .core import ChannelParams, DegenerateGeometryError, ProtocolParams, Record, transmittance
from .keyrate import intensity_terms, rate_pmqcc, slice_constants, slice_rate

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

# the decoy search's geometric ratios, its grid in v = log10(x_0 / mu)
# and its golden-section tolerance in decades
DECOY_RATIOS = (1.3, 1.05)
DECOY_GRID = tuple(-6.0 + k * 6.0 / COARSE_POINTS for k in range(COARSE_POINTS))
DECOY_TOL = 1e-2


class OptimizationResult(Record):
    """Best parameters found, the rate there, and the number of objective
    evaluations.  ``best_params`` is None where the search found no
    positive rate."""

    __slots__ = ("best_params", "best_rate", "evaluations")

    @property
    def flagged_zero(self) -> bool:
        """Whether the search found no positive rate."""
        return self.best_params is None


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


def _maximize_scalar(obj, grid=COARSE_GRID, tol=MU_TOL):
    """Coarse bracket over the increasing ``grid`` followed by
    golden-section refinement to ``tol``; returns (x, f(x)), or
    (None, 0.0) where no grid point is positive."""
    vals = [obj(x) for x in grid]
    i = max(range(len(grid)), key=vals.__getitem__)  # the first maximum
    if vals[i] <= 0.0:
        return None, 0.0
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, len(grid) - 1)]
    x, fx = _golden_refine(obj, left, right, tol)
    if vals[i] > fx:
        x, fx = grid[i], vals[i]
    return x, fx


def optimize_signal(
    ch: ChannelParams,
    n_parties: int,
    *,
    sliced: bool = True,
    boundaries: tuple = (False, False),
    ec_efficiency: float = 1.16,
    signal_phase_misalignment: float = 0.0,
    m_values=range(4, 65),
) -> OptimizationResult:
    """Maximize the key rate over (signal intensity, slice count).

    Unsliced, the starred variant, the slice count is irrelevant
    (prefactor 1, misalignment from the signal-mode parameter), so only
    the intensity is searched.  Sliced, every M in ``m_values`` is
    validated, and an M whose ceiling cannot beat the best rate so far
    is skipped unscored (module docstring).
    """
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
                terms = terms_at[mu] = intensity_terms(n_parties, mu, ch.dark_count, eta, boundaries)
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
        return OptimizationResult(best_params=None, best_rate=0.0, evaluations=evaluations)
    best_params = params(best[1], best[2])
    # bench/test_bench.py requires this call to keyrate.rate_pmqcc: not a removable re-run
    return OptimizationResult(
        best_params=best_params,
        best_rate=rate_pmqcc(best_params, ch, sliced=sliced, boundaries=boundaries).rate,
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
    """Maximize the certified rate lower bound over the scale of a
    geometric decoy set, per ratio in ``DECOY_RATIOS`` (module
    docstring); the vacuum is always appended.  Deterministic: each
    ratio scores ``DECOY_GRID`` and then a golden section to
    ``DECOY_TOL`` decades, each call to the ladder one evaluation.
    """
    # imported here, so that a signal search loads no decoy layer
    from .decoy import n_cut_for, rate_lower

    n_decoys = n_cut_for(n_parties) + 1

    def params(v: float, ratio: float) -> ProtocolParams:
        top = 10.0 ** v * signal_intensity
        return ProtocolParams(
            n_parties=n_parties,
            signal_intensity=signal_intensity,
            slice_count=slice_count,
            ec_efficiency=ec_efficiency,
            decoy_intensities=tuple(top * ratio ** -i for i in range(n_decoys)) + (0.0,),
        )

    evaluations = 0

    def certified(pp: ProtocolParams) -> float:
        nonlocal evaluations
        evaluations += 1
        try:
            rate = rate_lower(pp, ch).rate
        except DegenerateGeometryError:
            return 0.0
        return rate if rate >= _TINY else 0.0

    best_rate, best_params = 0.0, None
    for ratio in DECOY_RATIOS:
        v, rate = _maximize_scalar(lambda v: certified(params(v, ratio)), DECOY_GRID, DECOY_TOL)
        if rate > best_rate:  # ties go to the first ratio
            best_rate, best_params = rate, params(v, ratio)
    return OptimizationResult(best_params=best_params, best_rate=best_rate, evaluations=evaluations)
