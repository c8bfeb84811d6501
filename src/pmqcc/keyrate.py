"""Key-rate assembly: gains, marginal QBERs and phase errors combined
into final conference-key rates.

Three protocol variants, and the decoy-certified bound, share one
assembly, ``key_rate``:

* the phase-sliced protocol, with sifting prefactor (2/M)^(N-1) and the
  slice-misalignment QBER;
* the starred variant without phase post-selection on signal pulses
  (prefactor 1, explicit signal-mode misalignment, same phase error);
* reduced networks whose boundary parties waste half their light, which
  leaves per-branch gain/QBER unchanged but inflates the virtual-source
  intensity and with it the phase-error rate.

Negative raw rates clamp to 0 with a flag rather than raising, since
optimizers routinely sweep infeasible regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ChannelParams, ProtocolParams, binary_entropy, transmittance
from .errors import InsufficientDataError, ParameterError
from .interference import branch_gain_avg, branch_qber_avg
from .yields import BranchTopology, phase_error_rate

__all__ = [
    "RateReport",
    "marginal_qber",
    "qber_star",
    "rate_pmqcc",
    "rate_pmqcc_star",
    "rate_reduced",
    "scaling_exponent",
]


@dataclass(frozen=True)
class RateReport:
    """Final rate and the intermediate quantities that produced it.

    ``marginal_qbers[m-2]`` is the QBER between the first and the m-th
    party; ``phase_error`` is the exact parity-based rate (or, from the
    decoy pipeline, its upper bound capped at 1/2).  ``clamped`` marks
    a raw rate that came out negative and was reported as 0.
    """

    rate: float
    gain: float
    marginal_qbers: tuple
    phase_error: float
    sifting_prefactor: float
    clamped: bool = False


def marginal_qber(branch_qber: float, pair_index: int) -> float:
    """Probability that an odd number of branch errors separates party 1
    from party m: sum over odd-weight error patterns on the m-1
    connecting branches."""
    m = pair_index
    if not isinstance(m, int) or m < 2:
        raise ParameterError(f"pair_index must be an integer >= 2, got {m}")
    if not 0.0 <= branch_qber <= 1.0:
        raise ParameterError(f"branch_qber must lie in [0, 1], got {branch_qber}")
    e = branch_qber
    total = 0.0
    for k in range((m - 2) // 2 + 1):
        total += math.comb(m - 1, 2 * k + 1) * e ** (2 * k + 1) * (1.0 - e) ** (m - 2 * k - 2)
    return total


def qber_star(arrival_intensity: float, dark_count: float, misalignment: float) -> float:
    """Branch QBER without phase post-selection, for signal-mode phase
    misalignment e*: (1-p_d) e^{-a(1-e*)} (1 - (1-p_d) e^{-a e*}) / Q."""
    if not 0.0 <= misalignment <= 0.5:
        raise ParameterError(f"misalignment must lie in [0, 0.5], got {misalignment}")
    gain = branch_gain_avg(arrival_intensity, dark_count)
    if gain <= 0.0:
        raise ParameterError("branch gain underflowed to 0; no QBER is defined")
    a = arrival_intensity
    pd = dark_count
    wrong = (1.0 - pd) * math.exp(-a * (1.0 - misalignment)) * (
        1.0 - (1.0 - pd) * math.exp(-a * misalignment)
    )
    return wrong / gain


def key_rate(
    pp: ProtocolParams,
    ch: ChannelParams,
    *,
    sliced: bool = True,
    boundaries: tuple = (False, False),
    phase_error: float | None = None,
) -> RateReport:
    """R = P Q [1 - f max_m H(E_m) - H(E_X)] for every protocol variant.

    ``sliced`` selects the phase-sliced prefactor (2/M)^(N-1) and the
    slice-misalignment branch QBER; otherwise the prefactor is 1 and the
    branch QBER comes from the signal-mode misalignment.  E_X is the exact
    phase error of the chain with the given broken ends unless the caller
    supplies one (the decoy-certified bound).
    """
    n = pp.n_parties
    eta = transmittance(ch)
    arrival = eta * pp.signal_intensity
    prefactor = (2.0 / pp.slice_count) ** (n - 1) if sliced else 1.0
    branch_gain = branch_gain_avg(arrival, ch.dark_count)
    if branch_gain == 0.0:
        # no detections at all: zero gain, zero rate, nothing to clamp
        return RateReport(0.0, 0.0, (0.0,) * (n - 1), 0.0, prefactor)
    gain = branch_gain ** (n - 1)
    if sliced:
        branch_e = branch_qber_avg(arrival, ch.dark_count, pp.slice_count)
    else:
        branch_e = qber_star(arrival, ch.dark_count, pp.signal_phase_misalignment)
    marginals = tuple(marginal_qber(branch_e, m) for m in range(2, n + 1))
    if phase_error is None:
        # eta = 0 is the dark-count floor: survival-0 branches leave the
        # parity mass of the virtual source
        topo = BranchTopology.chain(n, pp.signal_intensity, eta, ch.dark_count, boundaries)
        phase_error = phase_error_rate(topo)
    leak = pp.ec_efficiency * max(binary_entropy(e) for e in marginals)
    raw = prefactor * gain * (1.0 - (leak + binary_entropy(phase_error)))
    return RateReport(
        rate=max(raw, 0.0),
        gain=gain,
        marginal_qbers=marginals,
        phase_error=phase_error,
        sifting_prefactor=prefactor,
        clamped=raw < 0.0,
    )


def rate_pmqcc(pp: ProtocolParams, ch: ChannelParams) -> RateReport:
    """Conference key rate of the phase-sliced protocol on the symmetric
    chain: R = (2/M)^(N-1) Q [1 - f max_m H(E_m) - H(E_X)]."""
    return key_rate(pp, ch)


def rate_pmqcc_star(pp: ProtocolParams, ch: ChannelParams) -> RateReport:
    """Rate without phase post-selection on signals: sifting prefactor 1,
    branch QBER from the signal-mode misalignment, identical phase
    error."""
    return key_rate(pp, ch, sliced=False)


def rate_reduced(pp: ProtocolParams, ch: ChannelParams, boundaries: tuple) -> RateReport:
    """Rate of a reduced chain whose marked ends sit at broken points.

    Branch gains and QBERs equal the symmetric ones (arrival intensities
    are unchanged), so only the phase error — computed from the enlarged
    asymmetric virtual intensities — differs.  With no boundaries this
    reproduces ``rate_pmqcc``.
    """
    return key_rate(pp, ch, boundaries=boundaries)


def scaling_exponent(points) -> float:
    """Least-squares slope of log10(rate) versus distance, in decades/km,
    over the positive-rate points; loss-dominated chains fall near
    -(N-1) alpha / 10."""
    pts = [(float(l), float(r)) for l, r in points if r > 0.0]
    if len(pts) < 2:
        raise InsufficientDataError("scaling fit needs at least 2 positive-rate points")
    ls = np.array([p[0] for p in pts])
    rs = np.array([p[1] for p in pts])
    if np.allclose(ls, ls[0]):
        raise InsufficientDataError("scaling fit needs at least 2 distinct distances")
    slope, _ = np.polyfit(ls, np.log10(rs), 1)
    return float(slope)
