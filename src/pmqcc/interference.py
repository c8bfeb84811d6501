"""Single-branch coherent-pulse interference: click probabilities, gain
and QBER, both the slice-averaged closed forms used by the rate pipeline
and an exact quadrature average kept as a testing oracle.

A branch interferes two matched-intensity coherent pulses on a 50:50
beam splitter feeding two threshold detectors L and R.  With phase
difference phi_delta, the total arrival intensity a splits as
a cos^2(phi_delta/2) onto L and a sin^2(phi_delta/2) onto R.  After the
protocol's bit-flip cooperation L is the expected port, so the branch
QBER is the R-click fraction of one-click events.

The closed forms ``branch_gain_avg``/``branch_qber_avg`` are the
approximations the headline key-rate tables are built on.  They are not
exact averages of the click model over the slice-phase density: the
misalignment term in ``branch_qber_avg`` undercounts the true average by
roughly 2x in misalignment-dominated regimes (see ``exact_branch_average``),
which is why the quadrature oracle, not the closed form, is the reference
for the round-level simulator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import intrinsic_misalignment
from .errors import ParameterError

__all__ = [
    "ClickProbabilities",
    "BranchStats",
    "click_probabilities",
    "branch_success",
    "branch_gain_avg",
    "branch_qber_avg",
    "sliced_qber",
    "phase_delta_density",
    "exact_branch_average",
]


@dataclass(frozen=True)
class ClickProbabilities:
    """Marginal click/silent probabilities of one branch's two detectors."""

    p_left_click: float
    p_left_silent: float
    p_right_click: float
    p_right_silent: float


@dataclass(frozen=True)
class BranchStats:
    """One-click probability of a branch and the wrong-port fraction."""

    gain: float
    qber: float


def click_probabilities(
    arrival_intensity: float, phase_delta: float, dark_count: float
) -> ClickProbabilities:
    """Detector marginals for total arrival intensity a (both arms
    combined) and encoded phase difference phi_delta.

    P(silent) = (1 - p_d) exp(-a cos^2(phi/2)) for L, sin^2 for R.
    """
    if arrival_intensity < 0.0:
        raise ParameterError(f"arrival_intensity must be >= 0, got {arrival_intensity}")
    if not 0.0 <= dark_count < 1.0:
        raise ParameterError(f"dark_count must lie in [0, 1), got {dark_count}")
    log_nodark = math.log1p(-dark_count)
    c2 = math.cos(phase_delta / 2.0) ** 2
    s2 = math.sin(phase_delta / 2.0) ** 2
    left_exponent = log_nodark - arrival_intensity * c2
    right_exponent = log_nodark - arrival_intensity * s2
    # expm1 keeps the click probabilities exact when they are tiny
    return ClickProbabilities(
        p_left_click=-math.expm1(left_exponent),
        p_left_silent=math.exp(left_exponent),
        p_right_click=-math.expm1(right_exponent),
        p_right_silent=math.exp(right_exponent),
    )


def branch_success(cp: ClickProbabilities) -> BranchStats:
    """Exactly-one-click probability and the conditional wrong-port rate.

    qber is defined as 0 when the gain vanishes so downstream averages
    stay total.
    """
    p_l_only = cp.p_left_click * cp.p_right_silent
    p_r_only = cp.p_left_silent * cp.p_right_click
    gain = p_l_only + p_r_only
    qber = p_r_only / gain if gain > 0.0 else 0.0
    return BranchStats(gain=gain, qber=qber)


def branch_gain_avg(arrival_intensity: float, dark_count: float) -> float:
    """Slice-averaged branch gain, Q = 1 - e^-a + 2 p_d e^-a."""
    if arrival_intensity < 0.0:
        raise ParameterError(f"arrival_intensity must be >= 0, got {arrival_intensity}")
    if not 0.0 <= dark_count < 1.0:
        raise ParameterError(f"dark_count must lie in [0, 1), got {dark_count}")
    ea = math.exp(-arrival_intensity)
    return -math.expm1(-arrival_intensity) + 2.0 * dark_count * ea


def branch_qber_avg(arrival_intensity: float, dark_count: float, slice_count: int) -> float:
    """Slice-averaged branch QBER closed form,
    E = (p_d + a e_delta(M)) e^-a / Q."""
    return sliced_qber(arrival_intensity, dark_count, intrinsic_misalignment(slice_count))


def sliced_qber(arrival_intensity: float, dark_count: float, misalignment: float) -> float:
    """``branch_qber_avg`` at a given slice misalignment e_delta, so that a
    caller sweeping the intensity at fixed M evaluates e_delta(M) once."""
    gain = branch_gain_avg(arrival_intensity, dark_count)
    if gain <= 0.0:
        raise ParameterError("branch gain underflowed to 0; no QBER is defined")
    return (
        (dark_count + arrival_intensity * misalignment)
        * math.exp(-arrival_intensity)
        / gain
    )


def _check_slice_geometry(slice_count: int, reference_offset: float) -> None:
    m = slice_count
    if not isinstance(m, int) or m < 2:
        raise ParameterError(f"slice_count must be an integer >= 2, got {m}")
    if not -math.pi / m <= reference_offset < math.pi / m:
        raise ParameterError("reference_offset must lie in [-pi/M, pi/M)")


def phase_delta_density(phase_delta: float, reference_offset: float, slice_count: int) -> float:
    """Triangular density of the branch phase difference given matched
    slices and reference deviation phi_0: peak M/(2 pi) at phi_0, support
    half-width 2 pi / M; 0 outside."""
    _check_slice_geometry(slice_count, reference_offset)
    m = slice_count
    w = 2.0 * math.pi / m
    x = phase_delta - reference_offset
    if x < -w or x >= w:
        return 0.0
    return (m / (2.0 * math.pi)) ** 2 * (w - abs(x))


GAUSS_LEGENDRE_ORDER = 32


def _legendre(order: int, x: float) -> tuple:
    """P_order(x) and its derivative, by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@functools.cache
def _gauss_legendre(order: int) -> tuple:
    """(node, weight) pairs of the order-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on P_order from the usual cosine guesses."""
    rule = []
    for i in range(1, order + 1):
        x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(100):
            p, slope = _legendre(order, x)
            step = p / slope
            x -= step
            if abs(step) <= 1e-15:
                break
        _, slope = _legendre(order, x)
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


def exact_branch_average(
    arrival_intensity: float,
    dark_count: float,
    slice_count: int,
    reference_offset: float | None = None,
) -> BranchStats:
    """Quadrature average of the exact click model over the slice-phase
    density: the unapproximated counterpart of the closed forms.

    With ``reference_offset`` given, averages over the triangular density
    at that fixed phi_0; with None, additionally averages phi_0 uniformly
    over [-pi/M, pi/M).  Returns the averaged gain and the averaged
    wrong-port rate divided by the averaged gain.

    Each linear half of the triangle, and the phi_0 range, takes a fixed
    Gauss-Legendre rule: the click model is smooth in the phase, so the
    rule is accurate to rounding over a in [1e-8, 5] and M in [2, 2e6].
    """
    m = slice_count
    _check_slice_geometry(m, 0.0 if reference_offset is None else reference_offset)
    w = 2.0 * math.pi / m
    rule = _gauss_legendre(GAUSS_LEGENDRE_ORDER)
    # distance x = w (1+t)/2 from the peak, density weight (w - x)/w^2 dx
    half = [(w * (1.0 + t) / 2.0, weight * (1.0 - t) / 4.0) for t, weight in rule]

    def tri_average(phi0):
        gain = wrong = 0.0
        for x, weight in half:
            for phi in (phi0 - x, phi0 + x):
                cp = click_probabilities(arrival_intensity, phi, dark_count)
                right_only = cp.p_left_silent * cp.p_right_click
                gain += weight * (cp.p_left_click * cp.p_right_silent + right_only)
                wrong += weight * right_only
        return gain, wrong

    if reference_offset is not None:
        gain, wrong = tri_average(reference_offset)
    else:
        gain = wrong = 0.0
        for t, weight in rule:  # phi_0 = t pi/M, density M/(2 pi)
            g, r = tri_average(t * math.pi / m)
            gain += weight * g / 2.0
            wrong += weight * r / 2.0
    return BranchStats(gain=gain, qber=wrong / gain if gain > 0.0 else 0.0)
