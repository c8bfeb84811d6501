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
    p_l_silent = math.exp(log_nodark - arrival_intensity * c2)
    p_r_silent = math.exp(log_nodark - arrival_intensity * s2)
    return ClickProbabilities(
        p_left_click=1.0 - p_l_silent,
        p_left_silent=p_l_silent,
        p_right_click=1.0 - p_r_silent,
        p_right_silent=p_r_silent,
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
    gain = branch_gain_avg(arrival_intensity, dark_count)
    if gain <= 0.0:
        raise ParameterError("branch gain underflowed to 0; no QBER is defined")
    e_delta = intrinsic_misalignment(slice_count)
    return (
        (dark_count + arrival_intensity * e_delta)
        * math.exp(-arrival_intensity)
        / gain
    )


def phase_delta_density(phase_delta: float, reference_offset: float, slice_count: int) -> float:
    """Triangular density of the branch phase difference given matched
    slices and reference deviation phi_0: peak M/(2 pi) at phi_0, support
    half-width 2 pi / M; 0 outside."""
    m = slice_count
    if not isinstance(m, int) or m < 2:
        raise ParameterError(f"slice_count must be an integer >= 2, got {m}")
    w = 2.0 * math.pi / m
    if not -math.pi / m <= reference_offset < math.pi / m:
        raise ParameterError("reference_offset must lie in [-pi/M, pi/M)")
    x = phase_delta - reference_offset
    if x < -w or x >= w:
        return 0.0
    return (m / (2.0 * math.pi)) ** 2 * (w - abs(x))


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
    """
    from scipy.integrate import quad  # oracle only: keeps scipy off the rate path

    m = slice_count
    w = 2.0 * math.pi / m

    def wrong_rate(phi):
        cp = click_probabilities(arrival_intensity, phi, dark_count)
        return cp.p_left_silent * cp.p_right_click

    def one_click(phi):
        cp = click_probabilities(arrival_intensity, phi, dark_count)
        return cp.p_left_click * cp.p_right_silent + cp.p_left_silent * cp.p_right_click

    def tri_average(func, phi0):
        val, _ = quad(
            lambda phi: func(phi) * phase_delta_density(phi, phi0, m),
            phi0 - w,
            phi0 + w,
            points=[phi0],
            limit=200,
        )
        return val

    if reference_offset is not None:
        gain = tri_average(one_click, reference_offset)
        wrong = tri_average(wrong_rate, reference_offset)
    else:
        norm = m / (2.0 * math.pi)  # uniform phi_0 density on [-pi/M, pi/M)
        gain, _ = quad(lambda p0: tri_average(one_click, p0) * norm, -math.pi / m, math.pi / m, limit=200)
        wrong, _ = quad(lambda p0: tri_average(wrong_rate, p0) * norm, -math.pi / m, math.pi / m, limit=200)
    return BranchStats(gain=gain, qber=wrong / gain if gain > 0.0 else 0.0)
