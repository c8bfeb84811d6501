"""Slice-averaged closed forms for one interference branch: the gain and
the QBER that the rate pipeline is built on.

A branch interferes two matched-intensity coherent pulses on a 50:50
beam splitter feeding two threshold detectors L and R.  With phase
difference phi_delta, the total arrival intensity a splits as
a cos^2(phi_delta/2) onto L and a sin^2(phi_delta/2) onto R.  After the
protocol's bit-flip cooperation L is the expected port, so the branch
QBER is the R-click fraction of one-click events.

The closed forms are approximations, not exact averages of the click
model over the slice-phase density.  Two uniform in-slice positions make
the phase difference triangular on +-2 pi/M, with mean misalignment
e_avg(M) = (1 - (M/pi)^2 sin^2(pi/M))/2 ~ pi^2/(6 M^2), while the
misalignment term e_delta(M) ~ pi^3/(2 M^3) of ``branch_qber_avg``
undercounts it by about M/(3 pi) in misalignment-dominated regimes.
The round-level simulator is therefore checked against
``montecarlo.tally_expectation``, which integrates the click model
exactly, not against these forms.
"""

from __future__ import annotations

import math

from .core import ParameterError, intrinsic_misalignment

__all__ = ["branch_gain_avg", "branch_qber_avg"]


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
    misalignment = intrinsic_misalignment(slice_count)
    return sliced_qber_at_gain(
        branch_gain_avg(arrival_intensity, dark_count),
        math.exp(-arrival_intensity),
        arrival_intensity,
        dark_count,
        misalignment,
    )


def sliced_qber_at_gain(
    gain: float, attenuation: float, arrival_intensity: float, dark_count: float, misalignment: float
) -> float:
    """``branch_qber_avg`` at slice misalignment e_delta, for a caller that
    holds the branch gain Q and the attenuation e^-a already (the rate
    kernel), so that a sweep over M at fixed intensity computes neither
    again."""
    if gain <= 0.0:
        raise ParameterError("branch gain underflowed to 0; no QBER is defined")
    return (dark_count + arrival_intensity * misalignment) * attenuation / gain
