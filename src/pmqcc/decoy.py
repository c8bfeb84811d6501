"""Finite-decoy-state estimation: even-order yield lower bounds from the
decoy ladder, the phase-error upper bound they certify, and the
resulting key-rate lower bound.

Writing t_x = (N-1) x for the total virtual intensity of decoy setting x
and A_x = e^{t_x} Q_x - Q_0, the observed gains obey

    A_x = sum_{k >= 1} t_x^k / k! * Y_k .

To lower-bound Y_m the ladder's rung combines the A_x of the m+1
smallest nonzero intensities with closed-form coefficients that cancel
the orders {1..m-1, m+1} (the standard decoy method: Ma, Qi, Zhao & Lo,
PRA 72, 012326, 2005).  The combination has a positive coefficient on
Y_m and negative ones on every higher order, so dropping those orders
can only lower the estimate.  For three nonzero decoys the m=2 rung is
the three-party closed form the test suite keeps as an oracle.  The
ladder's gain-free half (``_ladder``), which ``check_decoy_set`` runs
once for every distance, checks the decoys' spacing and float range and
asserts each rung's sign pattern again on the floats; its gain half
(``_rung_bounds``) rejects an ill-conditioned combination.  Both raise
``DegenerateGeometryError`` rather than return an unsafe bound.

The ladder runs on plain floats.  Its dot products sum the float
products with one rounding (``_dot``), so a bound does not depend on the
order in which a dot is accumulated.
"""

from __future__ import annotations

import math
import operator

from .core import ChannelParams, ProtocolParams, Record, transmittance
from .errors import (
    DegenerateGeometryError,
    InsufficientIntensitiesError,
    ParameterError,
)
from .interference import branch_gain_avg
from .keyrate import RateReport, key_rate

__all__ = [
    "DecoyGains",
    "DecoyBounds",
    "n_cut_for",
    "simulate_decoy_gains",
    "yields_lower_general",
    "phase_error_upper",
    "check_decoy_set",
    "decoy_bounds",
    "rate_lower",
]

# adjacent intensities closer than this (relatively) make the rung's
# difference products collapse
MIN_RELATIVE_SEPARATION = 1e-3
# cap on sum(|c_i| A_i) / |G|: beyond this the combination has cancelled
# away too many digits to certify anything
MAX_CONDITION = 1e9


class DecoyGains(Record):
    """Observed overall gains per decoy intensity (per-interior-party
    convention, descending, nonzero) plus the vacuum gain."""

    __slots__ = ("intensities", "gains", "vacuum_gain")

    def __init__(self, intensities: tuple, gains: tuple, vacuum_gain: float):
        super().__init__(intensities, gains, vacuum_gain)
        if len(self.intensities) != len(self.gains):
            raise ParameterError("intensities and gains must align")
        if any(x <= 0.0 for x in self.intensities):
            raise ParameterError("decoy intensities must be positive; vacuum is separate")
        if any(a <= b for a, b in zip(self.intensities, self.intensities[1:])):
            raise ParameterError("decoy intensities must be strictly decreasing")
        if any(not 0.0 <= g <= 1.0 for g in self.gains) or not 0.0 <= self.vacuum_gain <= 1.0:
            raise ParameterError("gains must lie in [0, 1]")


class DecoyBounds(Record):
    """Certified-safe estimates: yield lower bounds for the targeted even
    orders, keyed by order up to ``n_cut_for(N)``, and the phase-error
    upper bound."""

    __slots__ = ("y_lower", "phase_error_upper")

    def __init__(self, y_lower: dict, phase_error_upper: float | None = None):
        super().__init__(y_lower, phase_error_upper)


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
    """sum(c_i x_i): the float products summed with one rounding.  A sum
    beyond the float range certifies nothing."""
    try:
        return math.fsum(map(operator.mul, c, x))
    except OverflowError:
        raise DegenerateGeometryError("decoy combination overflows") from None


def _powers(ts, k: int) -> list:
    """t**k for each t.  Intensities far above any signal overflow the
    checked orders."""
    try:
        return [t**k for t in ts]
    except OverflowError:
        raise DegenerateGeometryError(f"decoy intensities too large: t**{k} overflows") from None


def _rung_combination(ts) -> list:
    """Coefficients c of the Y_m rung over the m + 1 intensities ts
    (descending), m = len(ts) - 1, in closed form:

        c_i = -(sum_{j != i} t_j) / (t_i prod_{j != i} (t_i - t_j)).

    With S = sum_j t_j and h_r the complete homogeneous symmetric
    polynomial of degree r in the t_j (h_0 = 1, h_r = 0 for r < 0), the
    order-k coefficient is sum_i c_i t_i^k = h_{k-m} - S h_{k-m-1}: 0 for
    k in {1..m-1, m+1}, 1 for k = m, and negative for every k >= m + 2,
    since S h_{r-1} holds every monomial of h_r and more; and c_0 < 0.
    So dropping the orders above m can only lower the bound, for odd m as
    for even.  c is evaluated on s_i = t_i / t_max, which scales it by
    t_max^m to O(1); a difference product that under- or overflows
    certifies nothing."""
    t_max = ts[0]
    s = [t / t_max for t in ts]
    c = []
    for i, si in enumerate(s):
        others = s[:i] + s[i + 1:]
        den = si * math.prod([si - sj for sj in others])
        c.append(-sum(others) / den if den else math.nan)
    if not all(map(math.isfinite, c)):
        raise DegenerateGeometryError("rung combination collapsed: a difference product under- or overflows")
    return c


def _order_scale(t_max: float, k: int) -> float:
    """t_max**k, the scale of the order-k sign guard.  Tiny intensities
    underflow it to 0 within the checked orders, and a guard that cannot
    be evaluated certifies nothing."""
    scale = t_max**k
    if not scale:
        raise DegenerateGeometryError(
            f"decoy intensities too small to check the order-{k} sign: {t_max}**{k} underflows"
        )
    return scale


def _ladder(intensities, scale: float, n_cut: int) -> tuple:
    """The gain-free half of the ladder on the nonzero intensities x
    (descending), t = scale * x: (e^t, {m: (c, g_m)}) over the n_cut + 1
    smallest t, with each even rung's combination c and order-m
    coefficient g_m, after checking the spacing of those t and, on the
    floats, the signs that make dropping the higher orders safe, up to
    an order set by the largest t and for k -> infinity.  g_m uses
    ``_dot``; a one-sided sign guard needs only a plain float sum."""
    t_top = scale * intensities[0]
    check_orders = max(int(math.ceil(t_top + 12.0 * math.sqrt(t_top) + 30.0)), n_cut + 20)
    ts = [scale * x for x in intensities[-(n_cut + 1):]]
    for hi, lo in zip(ts, ts[1:]):
        if hi <= lo or (hi - lo) / hi < MIN_RELATIVE_SEPARATION:
            raise DegenerateGeometryError(f"decoy intensities too close: {hi} vs {lo}")
    try:
        exps = [math.exp(t) for t in ts]
    except OverflowError:
        raise DegenerateGeometryError(f"decoy intensities too large: e**{ts[0]} overflows") from None
    rungs = {}
    for m in range(2, n_cut + 1, 2):
        rung = ts[-(m + 1):]
        c = _rung_combination(rung)
        g_m = _dot(c, _powers(rung, m)) / math.factorial(m)
        if g_m <= 0.0:
            raise DegenerateGeometryError("rung denominator collapsed to 0")
        # normalized comparison scale: psi_k = phi_k k! / t_max^k is O(1)
        psi_m = g_m * math.factorial(m) / _order_scale(rung[0], m)
        for k in range(m + 2, check_orders + 1):
            psi_k = sum(map(operator.mul, c, _powers(rung, k))) / _order_scale(rung[0], k)
            if psi_k > 1e-9 * psi_m:
                raise DegenerateGeometryError(f"order-{k} rung coefficient has the unsafe sign")
        # the k -> infinity sign is carried by the largest intensity
        if c[0] > 0.0:
            raise DegenerateGeometryError("asymptotic rung coefficient has the unsafe sign")
        rungs[m] = (c, g_m)
    return exps, rungs


def _rung_bounds(ladder: tuple, g: DecoyGains) -> dict:
    """The gain half: Y_m^L = sum_i c_i A_i / g_m (by ``_dot``) for each
    rung of ``ladder`` (``_ladder`` on g's intensities), after a one-sided
    check of the cancellation in the numerator."""
    exps, rungs = ladder
    a_values = [e * q - g.vacuum_gain for e, q in zip(exps, g.gains[-len(exps):])]
    y_lower = {}
    for m, (c, g_m) in rungs.items():
        a = a_values[-(m + 1):]
        num = _dot(c, a)
        num_abs = sum(abs(ci) * max(ai, 0.0) for ci, ai in zip(c, a))
        if num != 0.0 and num_abs / abs(num) > MAX_CONDITION:
            raise DegenerateGeometryError(f"rung too ill-conditioned (cancellation {num_abs / abs(num):.1e})")
        y_lower[m] = min(max(num / g_m, 0.0), 1.0)
    return y_lower


def yields_lower_general(
    g: DecoyGains, total_intensity_scale: float, n_cut: int
) -> DecoyBounds:
    """Lower bounds for every even order up to n_cut.  The Y_m rung
    combines the m+1 smallest nonzero intensities (all three in the
    three-party case, where it is the three-party closed form)."""
    if n_cut < 2 or n_cut % 2 != 0:
        raise ParameterError(f"n_cut must be a positive even integer, got {n_cut}")
    if len(g.intensities) < n_cut + 1:
        raise InsufficientIntensitiesError(
            f"bounding Y_{n_cut} needs {n_cut + 1} nonzero decoys plus vacuum, "
            f"got {len(g.intensities)}"
        )
    return DecoyBounds(y_lower=_rung_bounds(_ladder(g.intensities, total_intensity_scale, n_cut), g))


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
    """Raise ``InsufficientIntensitiesError`` unless the decoy set has the
    vacuum intensity and the n_cut + 1 nonzero ones the ladder needs, and
    ``DegenerateGeometryError`` if the ladder's gain-free half rejects
    them; return that half's (e^t, rungs).  None of these depends on the
    channel, so a caller can check them once for every distance."""
    n_cut = n_cut_for(pp.n_parties)
    nonzero = pp.nonzero_decoys
    if not pp.has_vacuum_decoy:
        raise InsufficientIntensitiesError("the estimator needs a vacuum (0) decoy intensity")
    if len(nonzero) < n_cut + 1:
        raise InsufficientIntensitiesError(
            f"N={pp.n_parties} needs {n_cut + 1} nonzero decoys plus vacuum, "
            f"got {len(nonzero)}"
        )
    return _ladder(nonzero, float(pp.n_parties - 1), n_cut)


def decoy_bounds(pp: ProtocolParams, ch: ChannelParams) -> DecoyBounds:
    """Estimation on simulated honest gains: the even-order yield lower
    bounds and the phase-error upper bound they certify."""
    ladder = check_decoy_set(pp)
    n = pp.n_parties
    gains = simulate_decoy_gains(pp, ch)
    y_lower = _rung_bounds(ladder, gains)
    arrival = transmittance(ch) * pp.signal_intensity
    q_mu = branch_gain_avg(arrival, ch.dark_count) ** (n - 1)
    e_x_u = phase_error_upper(y_lower, pp.signal_intensity, q_mu, gains.vacuum_gain, n)
    return DecoyBounds(y_lower=y_lower, phase_error_upper=e_x_u)


def rate_lower(pp: ProtocolParams, ch: ChannelParams) -> RateReport:
    """Certified key-rate lower bound as a rate report; ``phase_error``
    carries the phase error charged in the privacy term, min(E_X^U, 1/2)."""
    e_x_u = decoy_bounds(pp, ch).phase_error_upper
    # E_X may lie anywhere in [0, E_X^U], and H peaks at 1/2: a bound above
    # 1/2 certifies no more than 1/2 does
    return key_rate(pp, ch, phase_error=min(e_x_u, 0.5))
