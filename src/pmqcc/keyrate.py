"""Key-rate assembly: gains, marginal QBERs and phase errors combined
into final conference-key rates.

Three protocol variants, and the decoy-certified bound, share one
assembly:

* the phase-sliced protocol, with sifting prefactor (2/M)^(N-1) and the
  slice-misalignment QBER;
* the starred variant without phase post-selection on signal pulses
  (prefactor 1, explicit signal-mode misalignment, same phase error);
* reduced networks whose boundary parties waste half their light, which
  leaves per-branch gain/QBER unchanged but inflates the virtual-source
  intensity and with it the phase-error rate.

The assembly is two steps.  ``intensity_terms`` computes what depends
on the signal intensity alone: the branch gain, Q^(N-1), the O(N) phase
error and its entropy.  ``slice_rate`` adds what depends on the slice
count M through the distance-free constants of ``slice_constants`` (the
prefactor and the misalignment): the branch QBER, the leak at the
farthest pair and R; it is the only place R is formed.  ``rate_pmqcc``
runs the two steps on the validated records and adds the marginals; the
variants above are its arguments: ``sliced=False`` is the starred
variant, ``boundaries`` marks the broken ends of a reduced network and
``phase_error`` takes the decoy-certified bound.  It is the only place a
``RateReport`` is built.  The signal optimizer calls the two steps
directly, so a sweep over the intensity builds no records and a sweep
over M shares the intensity terms.

The phase error E_X is the closed form of ``parity_phase_error``: by
Poisson thinning the branch photon numbers are independent Poisson
variables, so the odd-photon-number share of the gain factorizes over
the branches into an O(branches) product with no truncation.  A chain
is its branches, the (virtual intensity, survival) pairs that
``chain_branches`` builds; the photon-number enumeration that pins the
closed form, in the test suite, takes the same pairs.  The marginal
QBERs are closed forms too, the odd share of m-1 branch errors.

Negative raw rates clamp to 0 with a flag rather than raising, since
optimizers routinely sweep infeasible regions.
"""

import math

from .core import (
    ChannelParams,
    InsufficientDataError,
    ParameterError,
    ProtocolParams,
    Record,
    binary_entropy,
    intrinsic_misalignment,
    transmittance,
)
from .interference import branch_gain_avg, sliced_qber_at_gain

__all__ = [
    "RateReport",
    "intensity_terms",
    "marginal_qber",
    "qber_star",
    "rate_pmqcc",
    "scaling_exponent",
    "slice_constants",
    "slice_rate",
]


class RateReport(Record):
    """Final rate and the intermediate quantities that produced it.

    ``marginal_qbers[m-2]`` is the QBER between the first and the m-th
    party; ``phase_error`` is the exact parity-based rate (or, from the
    decoy pipeline, its upper bound capped at 1/2).  ``clamped`` marks
    a raw rate that came out negative and was reported as 0.
    """

    __slots__ = ("rate", "gain", "marginal_qbers", "phase_error", "sifting_prefactor", "clamped")

    _defaults = {"clamped": False}


def _odd_error_share(e: float, k: int) -> float:
    """Probability of an odd number of errors among k independent bits
    that each flip with probability e: (1 - (1-2e)^k)/2.  Below e = 1/2
    the power is exp(k log1p(-2e)), so nothing cancels at small e."""
    if e < 0.5:
        return -math.expm1(k * math.log1p(-2.0 * e)) / 2.0
    return (1.0 - (1.0 - 2.0 * e) ** k) / 2.0


def marginal_qber(branch_qber: float, pair_index: int) -> float:
    """Probability that an odd number of branch errors separates party 1
    from party m, over the m-1 connecting branches."""
    m = pair_index
    if not isinstance(m, int) or m < 2:
        raise ParameterError(f"pair_index must be an integer >= 2, got {m}")
    if not 0.0 <= branch_qber <= 1.0:
        raise ParameterError(f"branch_qber must lie in [0, 1], got {branch_qber}")
    return _odd_error_share(branch_qber, m - 1)


def qber_star(arrival_intensity: float, dark_count: float, misalignment: float) -> float:
    """Branch QBER without phase post-selection, for signal-mode phase
    misalignment e*: (1-p_d) e^{-a(1-e*)} (1 - (1-p_d) e^{-a e*}) / Q."""
    return _qber_star_at_gain(
        branch_gain_avg(arrival_intensity, dark_count), arrival_intensity, dark_count, misalignment
    )


def _qber_star_at_gain(
    gain: float, arrival_intensity: float, dark_count: float, misalignment: float
) -> float:
    """``qber_star`` given the branch gain Q, which ``slice_rate`` holds."""
    if not 0.0 <= misalignment <= 0.5:
        raise ParameterError(f"misalignment must lie in [0, 0.5], got {misalignment}")
    if gain <= 0.0:
        raise ParameterError("branch gain underflowed to 0; no QBER is defined")
    a = arrival_intensity
    pd = dark_count
    wrong = (1.0 - pd) * math.exp(-a * (1.0 - misalignment)) * (
        1.0 - (1.0 - pd) * math.exp(-a * misalignment)
    )
    return wrong / gain


def chain_branches(n_parties: int, mu: float, eta: float, boundaries: tuple) -> list:
    """(virtual intensity, survival) of each branch of a chain whose marked
    ends are broken.

    A broken end party sends the full interior intensity mu, but half of
    its light feeds a dead branch, so its arm enters with source
    intensity mu at effective transmittance eta/2; every other arm
    contributes mu/2 at eta.  Both arms arrive with eta mu / 2, so a
    branch whose arms' source intensities sum to t survives with
    eta mu / t: the branch gain and QBER match the symmetric chain while
    the virtual intensity t (and with it the phase error) grows.
    """
    if n_parties < 2:
        raise ParameterError(f"n_parties must be >= 2, got {n_parties}")
    if len(boundaries) != 2:
        raise ParameterError("boundaries must be a (left, right) pair of flags")
    left_b, right_b = (bool(boundaries[0]), bool(boundaries[1]))
    if not (left_b or right_b):
        return [(mu, eta)] * (n_parties - 1)
    branches = []
    for l in range(n_parties - 1):
        left = mu if l == 0 and left_b else mu / 2.0
        right = mu if l == n_parties - 2 and right_b else mu / 2.0
        t = left + right
        branches.append((t, eta * mu / t))
    return branches


def parity_phase_error(branches, pd: float) -> float:
    """Phase error E_X, the odd-photon-number share of the gain, over
    (virtual intensity t, survival s) pairs of branches.

    Branch l holds n_l ~ Poisson(t_l) photons independently of the other
    branches, and succeeds with f_l(n) = (1-p_d)(1 - (1-2p_d)(1-s_l)^n).
    With a_l = s_l t_l the arrival intensity,

        E[f_l]          = (1-p_d) T_l,  T_l = 1 - (1-2p_d) e^{-a_l}
        E[(-1)^n f_l]   = (1-p_d) D_l,  D_l = e^{a_l-2t_l} (expm1(-a_l) + 2p_d)

    so E_X = (1 - prod_l D_l / T_l) / 2: O(branches), no truncation, and
    no alternating sum.  Each ratio lies in [-1, 1], so long chains cannot
    overflow; e^{a_l - 2t_l} <= 1 because a_l <= t_l.
    """
    ratio = 1.0
    for t, s in branches:
        a = t * s
        gain = branch_gain_avg(a, pd)
        if gain <= 0.0:
            raise ParameterError("overall gain is 0; phase error undefined")
        ratio *= math.exp(a - 2.0 * t) * (math.expm1(-a) + 2.0 * pd) / gain
    return (1.0 - ratio) / 2.0


def slice_constants(pp: ProtocolParams, sliced: bool = True) -> tuple:
    """The distance-free constants of a rate: the sifting prefactor and the
    branch misalignment.  Sliced, these are (2/M)^(N-1) and e_delta(M),
    which needs M >= 3; otherwise 1 and the signal-mode misalignment."""
    if not sliced:
        return 1.0, pp.signal_phase_misalignment
    return (2.0 / pp.slice_count) ** (pp.n_parties - 1), intrinsic_misalignment(pp.slice_count)


def intensity_terms(
    n: int,
    mu: float,
    pd: float,
    eta: float,
    boundaries: tuple,
    phase_error: float | None = None,
) -> tuple:
    """The terms of a rate that do not depend on the slice count M:
    (n, p_d, arrival a, branch gain, e^-a, gain Q^(N-1), E_X, H(E_X)).

    E_X is the exact phase error of the chain with the given broken ends
    unless the caller supplies one (the decoy-certified bound).  Without
    any detections (branch gain 0) every term past the arrival is 0, and
    ``slice_rate`` turns that into a zero rate.  A sweep over M at fixed
    intensity computes these once and passes them to ``slice_rate`` for
    every M.
    """
    arrival = eta * mu
    branch_gain = branch_gain_avg(arrival, pd)
    if branch_gain == 0.0:
        return n, pd, arrival, 0.0, 0.0, 0.0, 0.0, 0.0
    if phase_error is None:
        # eta = 0 is the dark-count floor: survival-0 branches leave the
        # parity mass of the virtual source
        phase_error = parity_phase_error(chain_branches(n, mu, eta, boundaries), pd)
    return (
        n, pd, arrival, branch_gain, math.exp(-arrival), branch_gain ** (n - 1),
        phase_error, binary_entropy(phase_error),
    )


def slice_rate(terms: tuple, f: float, prefactor: float, misalignment: float, sliced: bool) -> tuple:
    """(raw rate, branch QBER e) from the ``intensity_terms`` and the
    constants of ``slice_constants``: R = P Q [1 - f H(E_N) - H(E_X)],
    unclamped, with E_N the farthest pair's marginal QBER.

    The branch QBER is the sliced closed form when ``sliced``, else the
    starred one; it is checked once, and E_N is ``marginal_qber``'s
    without its argument checks.  Without detections both are 0.
    """
    n, pd, arrival, branch_gain, attenuation, gain, _, phase_entropy = terms
    if branch_gain == 0.0:
        # no detections at all: zero gain, zero rate, nothing to clamp
        return 0.0, 0.0
    if sliced:
        e = sliced_qber_at_gain(branch_gain, attenuation, arrival, pd, misalignment)
    else:
        e = _qber_star_at_gain(branch_gain, arrival, pd, misalignment)
    if not 0.0 <= e <= 1.0:
        raise ParameterError(f"branch QBER must lie in [0, 1], got {e}")
    # the leak is charged at the farthest pair: H(E_m) = H((1 - |1-2e|^(m-1))/2)
    # since H is symmetric about 1/2, and |1-2e|^(m-1) does not rise with
    # m for any e in [0, 1], e > 1/2 included, so H(E_m) does not fall
    leak = f * binary_entropy(_odd_error_share(e, n - 1))
    return prefactor * gain * (1.0 - (leak + phase_entropy)), e


def rate_pmqcc(
    pp: ProtocolParams,
    ch: ChannelParams,
    *,
    sliced: bool = True,
    boundaries: tuple = (False, False),
    phase_error: float | None = None,
) -> RateReport:
    """Conference key rate R = P Q [1 - f max_m H(E_m) - H(E_X)], the max
    at m = N: ``slice_rate`` on the ``intensity_terms`` of the records.
    The report's gain and E_X are those terms, and its marginal QBERs
    are formed here from the branch QBER ``slice_rate`` returns.

    Sliced, P = (2/M)^(N-1) and the branch QBER is the slice-misalignment
    one; otherwise P = 1 and it comes from the signal-mode misalignment.
    E_X is the exact phase error of the chain with the given broken ends
    unless the caller supplies one (the decoy-certified bound).
    """
    prefactor, misalignment = slice_constants(pp, sliced)
    terms = intensity_terms(
        pp.n_parties, pp.signal_intensity, ch.dark_count, transmittance(ch), boundaries, phase_error
    )
    raw, e = slice_rate(terms, pp.ec_efficiency, prefactor, misalignment, sliced)
    # the sign, not raw < 0: a negative margin times a prefactor and gain
    # that underflow to 0 gives -0.0
    clamped = math.copysign(1.0, raw) < 0.0
    return RateReport(
        rate=0.0 if clamped else raw,
        gain=terms[5],
        marginal_qbers=tuple(_odd_error_share(e, m - 1) for m in range(2, pp.n_parties + 1)),
        phase_error=terms[6],
        sifting_prefactor=prefactor,
        clamped=clamped,
    )


def scaling_exponent(points) -> float:
    """Least-squares slope of log10(rate) versus distance, in decades/km,
    over the positive-rate points; loss-dominated chains fall near
    -(N-1) alpha / 10."""
    pts = [(float(l), math.log10(r)) for l, r in points if r > 0.0]
    if len(pts) < 2:
        raise InsufficientDataError("scaling fit needs at least 2 positive-rate points")
    ls = [p[0] for p in pts]
    if all(abs(l - ls[0]) <= 1e-8 + 1e-5 * abs(ls[0]) for l in ls):
        raise InsufficientDataError("scaling fit needs at least 2 distinct distances")
    l_mean = math.fsum(ls) / len(pts)
    y_mean = math.fsum(p[1] for p in pts) / len(pts)
    return math.fsum((l - l_mean) * (y - y_mean) for l, y in pts) / math.fsum(
        (l - l_mean) ** 2 for l in ls
    )
