"""Finite-decoy-state estimation: even-order yield lower bounds from the
decoy ladder, the phase-error upper bound they certify, and the
resulting key-rate lower bound.

Writing t_x = (N-1) x for the total virtual intensity of decoy setting x
and A_x = e^{t_x} Q_x - Q_0, the observed gains obey

    A_x = sum_{k >= 1} t_x^k / k! * Y_k .

To lower-bound Y_m the ladder's rung combines the A_x of the m+1
smallest nonzero intensities with closed-form coefficients that cancel
the orders {1..m-1, m+1} (the standard decoy method: Ma, Qi, Zhao & Lo,
PRA 72, 012326, 2005).  In exact arithmetic the combination has a
positive coefficient on Y_m and negative ones on every higher order for
any distinct positive intensities, so dropping those orders can only
lower the estimate.  The floats add only the rounding of the
coefficients and of the dot, and one term, (3m+8) eps sum_i |c_i A_i|,
charges it.  For three nonzero decoys the m=2 rung is the three-party
closed form the test suite keeps as an oracle.  The ladder's gain-free
half (``_ladder``), which ``check_decoy_set`` runs once for every
distance and ``yields_lower_general`` on each call, is the one check of
the decoys' count, spacing and float range; its gain half
(``_rung_bounds``) forms the bounds.  Both raise
``DegenerateGeometryError`` where the floats cannot carry a rung.

The ladder runs on plain floats.  Its dot products sum the float
products with one rounding (``_dot``), so a bound does not depend on the
order in which a dot is accumulated.
"""

import math
import operator
import sys

from .core import (
    ChannelParams,
    DegenerateGeometryError,
    InsufficientIntensitiesError,
    ParameterError,
    ProtocolParams,
    Record,
    transmittance,
)
from .interference import branch_gain_avg
from .keyrate import RateReport, rate_pmqcc

__all__ = [
    "DecoyGains",
    "n_cut_for",
    "simulate_decoy_gains",
    "yields_lower_general",
    "phase_error_upper",
    "check_decoy_set",
    "rate_lower",
]

# adjacent intensities closer than this (relatively) make the rung's
# difference products collapse
MIN_RELATIVE_SEPARATION = 1e-3


class DecoyGains(Record):
    """Observed overall gains per decoy intensity (per-interior-party
    convention, descending, nonzero) plus the vacuum gain."""

    __slots__ = ("intensities", "gains", "vacuum_gain")

    def _check(self) -> None:
        if len(self.intensities) != len(self.gains):
            raise ParameterError("intensities and gains must align")
        if any(x <= 0.0 for x in self.intensities):
            raise ParameterError("decoy intensities must be positive; vacuum is separate")
        if any(a <= b for a, b in zip(self.intensities, self.intensities[1:])):
            raise ParameterError("decoy intensities must be strictly decreasing")
        if any(not 0.0 <= g <= 1.0 for g in self.gains) or not 0.0 <= self.vacuum_gain <= 1.0:
            raise ParameterError("gains must lie in [0, 1]")


def n_cut_for(n_parties: int) -> int:
    """Highest even yield order entering the phase-error bound:
    N-1 for odd N, N for even N."""
    if n_parties < 2:
        raise ParameterError(f"n_parties must be >= 2, got {n_parties}")
    return n_parties - 1 if n_parties % 2 == 1 else n_parties


def simulate_decoy_gains(pp: ProtocolParams, ch: ChannelParams) -> DecoyGains:
    """Forward-simulate the honest-model gains feeding the estimator:
    Q_x = Q_branch(eta x)^(N-1) for each nonzero decoy intensity and
    Q_0 = (2 p_d (1-p_d))^(N-1) for vacuum."""
    nonzero = pp.nonzero_decoys
    eta = transmittance(ch)
    n = pp.n_parties
    gains = tuple(branch_gain_avg(eta * x, ch.dark_count) ** (n - 1) for x in nonzero)
    q_vac = (2.0 * ch.dark_count * (1.0 - ch.dark_count)) ** (n - 1)
    return DecoyGains(intensities=nonzero, gains=gains, vacuum_gain=q_vac)


def _dot(c, x) -> float:
    """sum(c_i x_i): the float products summed with one rounding.  A
    product or a sum beyond the float range certifies nothing."""
    try:
        total = math.fsum(map(operator.mul, c, x))
        if math.isinf(total):
            raise OverflowError
    except (OverflowError, ValueError):  # ValueError: inf - inf
        raise DegenerateGeometryError("decoy combination overflows") from None
    return total


def _rung_combination(ts) -> tuple:
    """The Y_m rung over the m + 1 intensities ts (descending),
    m = len(ts) - 1: (c, m! 2^(-e m)), with 2^e the power of two of
    ``math.frexp(t_max)`` and c in closed form on the nodes s_i = t_i 2^-e,

        c_i = -(sum_{j != i} s_j) / (s_i prod_{j != i} (s_i - s_j)).

    With S = sum_j s_j and h_r the complete homogeneous symmetric
    polynomial of degree r in the s_j (h_0 = 1, h_r = 0 for r < 0), the
    order-k coefficient is sum_i c_i t_i^k = 2^(e k) (h_{k-m} - S h_{k-m-1}):
    0 for k in {1..m-1, m+1}, 2^(e m) for k = m, and negative for every
    k >= m + 2, since S h_{r-1} holds every monomial of h_r and more.  So
    Y_m >= m! 2^(-e m) sum_i c_i A_i on any distinct positive nodes, for
    odd m as for even.  The power of two keeps the s_i exact and below 1,
    so each difference rounds once and c_i carries 3m roundings
    (``_rung_bounds``), and the factor is exact up to m = 22.  A factor or
    a difference product past the normal float range certifies nothing."""
    m, exponent = len(ts) - 1, math.frexp(ts[0])[1]
    try:
        factor = math.ldexp(math.factorial(m), -exponent * m)
    except OverflowError:
        factor = math.inf
    if not sys.float_info.min <= factor < math.inf:
        raise DegenerateGeometryError(f"rung factor {m}! * 2**{-exponent * m} under- or overflows")
    s = [math.ldexp(t, -exponent) for t in ts]
    c = []
    for i, si in enumerate(s):
        others = s[:i] + s[i + 1:]
        den = si * math.prod([si - sj for sj in others])
        c.append(-sum(others) / den if abs(den) >= sys.float_info.min else math.nan)
    if not all(map(math.isfinite, c)):
        raise DegenerateGeometryError("rung combination collapsed: a difference product under- or overflows")
    return c, factor


def _ladder(intensities, scale: float, n_cut: int) -> tuple:
    """The gain-free half of the ladder on the nonzero intensities x
    (descending), t = scale * x: (e^t, {m: (c, factor)}) over the
    n_cut + 1 smallest t, with each even rung from ``_rung_combination``,
    after checking that n_cut is a positive even number, that n_cut + 1
    intensities are given, and the spacing of those t and the float range
    of e^t.  No check reads the float coefficients: their signs hold
    exactly, and ``_rung_bounds`` charges their rounding."""
    if n_cut < 2 or n_cut % 2 != 0:
        raise ParameterError(f"n_cut must be a positive even integer, got {n_cut}")
    if len(intensities) < n_cut + 1:
        raise InsufficientIntensitiesError(
            f"bounding Y_{n_cut} needs {n_cut + 1} nonzero decoys plus vacuum, "
            f"got {len(intensities)}"
        )
    ts = [scale * x for x in intensities[-(n_cut + 1):]]
    for hi, lo in zip(ts, ts[1:]):
        if hi <= lo or (hi - lo) / hi < MIN_RELATIVE_SEPARATION:
            raise DegenerateGeometryError(f"decoy intensities too close: {hi} vs {lo}")
    try:
        exps = [math.exp(t) for t in ts]
    except OverflowError:
        raise DegenerateGeometryError(f"decoy intensities too large: e**{ts[0]} overflows") from None
    return exps, {m: _rung_combination(ts[-(m + 1):]) for m in range(2, n_cut + 1, 2)}


def _rung_bounds(ladder: tuple, g: DecoyGains) -> dict:
    """The gain half: for each rung (c, factor) of ``ladder`` (``_ladder``
    on g's intensities), with both sums by ``_dot``,

        Y_m^L = factor (sum_i c_i A_i - (3m+8) eps sum_i |c_i A_i|),

    rounded down one ulp and clamped to [0, 1].  The c_i carry 3m
    roundings and the dot two more, so the float sum is off the exact
    rung's by at most ~(3m+2) eps/2 sum_i |c_i A_i|.  The term charges
    twice that, which also covers its own rounding, the subtraction's and
    (above m = 22) m!'s; the ulp covers the product.  Products below the
    normal floats round by an absolute half ulp, so the term never
    charges less than on the smallest normal sum."""
    exps, rungs = ladder
    a_values = [e * q - g.vacuum_gain for e, q in zip(exps, g.gains[-len(exps):])]
    y_lower = {}
    for m, (c, factor) in rungs.items():
        a = a_values[-(m + 1):]
        num_abs = max(_dot(map(abs, c), map(abs, a)), sys.float_info.min)
        y = factor * (_dot(c, a) - (3 * m + 8) * sys.float_info.epsilon * num_abs)
        y_lower[m] = min(max(math.nextafter(y, -math.inf), 0.0), 1.0)
    return y_lower


def yields_lower_general(g: DecoyGains, total_intensity_scale: float, n_cut: int) -> dict:
    """Lower bounds {m: Y_m^L} for every even order up to n_cut.  The Y_m rung
    combines the m+1 smallest nonzero intensities (all three in the
    three-party case, where it is the three-party closed form), after
    ``_ladder``'s checks."""
    return _rung_bounds(_ladder(g.intensities, total_intensity_scale, n_cut), g)


def phase_error_upper(
    y_lower: dict, signal_intensity: float, q_mu: float, q_vacuum: float, n_parties: int
) -> float:
    """Certified upper bound on the phase-error rate: subtract from 1 the
    even-order mass that the yield bounds guarantee,
    1 - e^-t Y_0/Q - sum_{even m} e^-t t^m/m! Y_m^L/Q with t=(N-1) mu."""
    if q_mu <= 0.0:
        raise ParameterError("phase_error_upper needs a positive signal gain")
    t = (n_parties - 1) * signal_intensity
    if t == math.inf:
        # every Poisson weight is 0 in the limit; e^-t t^m would be nan
        return 1.0
    bound = 1.0 - math.exp(-t) * q_vacuum / q_mu
    for m, y_l in sorted(y_lower.items()):
        try:
            weight = math.exp(-t) * t**m / math.factorial(m)
        except OverflowError:
            # t**m (or m!) is past the float range, where the weight is 0
            # unless m is near t: take it in logs
            weight = math.exp(m * math.log(t) - t - math.lgamma(m + 1))
        bound -= weight * y_l / q_mu
    return float(min(max(bound, 0.0), 1.0))


def check_decoy_set(pp: ProtocolParams) -> tuple:
    """The ladder's gain-free half (e^t, rungs) of pp's decoys.  Raises
    ``InsufficientIntensitiesError`` without the vacuum intensity, and
    then what ``_ladder`` raises on the nonzero ones.  None of these
    checks depends on the channel, so a caller can run them once for
    every distance."""
    if not pp.has_vacuum_decoy:
        raise InsufficientIntensitiesError("the estimator needs a vacuum (0) decoy intensity")
    return _ladder(pp.nonzero_decoys, pp.n_parties - 1, n_cut_for(pp.n_parties))


def rate_lower(pp: ProtocolParams, ch: ChannelParams) -> RateReport:
    """Certified key-rate lower bound as a rate report: the rate charged
    with the E_X^U that the yield bounds on simulated honest gains certify,
    capped at 1/2 (``phase_error`` carries the charge)."""
    ladder = check_decoy_set(pp)
    n = pp.n_parties
    gains = simulate_decoy_gains(pp, ch)
    y_lower = _rung_bounds(ladder, gains)
    arrival = transmittance(ch) * pp.signal_intensity
    q_mu = branch_gain_avg(arrival, ch.dark_count) ** (n - 1)
    e_x_u = phase_error_upper(y_lower, pp.signal_intensity, q_mu, gains.vacuum_gain, n)
    # E_X may lie anywhere in [0, E_X^U], and H peaks at 1/2: a bound above
    # 1/2 certifies no more than 1/2 does
    return rate_pmqcc(pp, ch, phase_error=min(e_x_u, 0.5))
