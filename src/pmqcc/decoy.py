"""Finite-decoy-state estimation: even-order yield lower bounds via a
pairwise-elimination ladder, the phase-error upper bound they certify,
and the resulting key-rate lower bound.

Writing t_x = (N-1) x for the total virtual intensity of decoy setting x
and A_x = e^{t_x} Q_x - Q_0, the observed gains obey

    A_x = sum_{k >= 1} t_x^k / k! * Y_k .

To lower-bound an even order Y_m the ladder linearly combines the A_x of
the m+1 smallest nonzero intensities so that the orders {1..m-1, m+1}
cancel; with descending intensities the surviving combination has a
positive coefficient on Y_m and negative coefficients on every retained
higher order, so dropping those orders can only lower the estimate.  The
sign pattern is asserted at runtime: a violation (or an ill-conditioned
combination) raises ``DegenerateGeometryError`` instead of silently
returning an unsafe bound.

For three nonzero decoys the m=2 rung reduces to a closed form, kept
separately as ``y2_lower_3party`` and pinned against the general ladder
by the test suite.

The ladder runs on plain floats.  Its dot products round once per term,
as a fused multiply-add does (``_fused_dot``), which is how numpy's BLAS
dot rounds these short vectors, so the bounds keep the bits they had
when the ladder ran on numpy arrays.
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
    "y2_lower_3party",
    "yields_lower_general",
    "phase_error_upper",
    "check_decoy_set",
    "decoy_bounds",
    "rate_lower",
]

# adjacent intensities closer than this (relatively) make the
# elimination denominator collapse
MIN_RELATIVE_SEPARATION = 1e-3
# cap on sum(|c_i| A_i) / |G|: beyond this the combination has cancelled
# away too many digits to certify anything
MAX_CONDITION = 1e9

# Veltkamp's splitting constant 2**27 + 1, and the magnitudes between
# which Dekker's split of a float product into p + e is exact: no
# overflow in the split, no underflow in the low parts
_VELTKAMP = 134217729.0
_EXACT_SPLIT_MIN = 2.0**-960
_EXACT_SPLIT_MAX = 2.0**990


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
    orders and the phase-error upper bound."""

    __slots__ = ("y_lower", "n_cut", "phase_error_upper")

    def __init__(self, y_lower: dict, n_cut: int, phase_error_upper: float | None = None):
        super().__init__(y_lower, n_cut, phase_error_upper)


def n_cut_for(n_parties: int) -> int:
    """Highest even yield order entering the phase-error bound:
    N-1 for odd N, N for even N."""
    if n_parties < 2:
        raise ParameterError(f"n_parties must be >= 2, got {n_parties}")
    return n_parties - 1 if n_parties % 2 == 1 else n_parties


def simulate_decoy_gains(
    pp: ProtocolParams, ch: ChannelParams, intensities: tuple | None = None
) -> DecoyGains:
    """Forward-simulate the honest-model gains feeding the estimator:
    Q_x = Q_branch(eta x)^(N-1) for each nonzero decoy intensity and
    Q_0 = (2 p_d (1-p_d))^(N-1) for vacuum."""
    if intensities is None:
        intensities = pp.decoy_intensities
    nonzero = tuple(x for x in intensities if x > 0.0)
    eta = transmittance(ch)
    n = pp.n_parties
    gains = tuple(branch_gain_avg(eta * x, ch.dark_count) ** (n - 1) for x in nonzero)
    q_vac = (2.0 * ch.dark_count * (1.0 - ch.dark_count)) ** (n - 1)
    return DecoyGains(intensities=nonzero, gains=gains, vacuum_gain=q_vac)


def _check_separation(ts) -> None:
    for hi, lo in zip(ts, ts[1:]):
        if hi <= lo or (hi - lo) / hi < MIN_RELATIVE_SEPARATION:
            raise DegenerateGeometryError(
                f"decoy intensities too close: {hi} vs {lo}"
            )


def _fma(a: float, b: float, s: float) -> float:
    """a * b + s rounded once, as a fused multiply-add rounds it.

    Dekker's product splits a * b exactly into p + e, and ``math.fsum``
    rounds p + e + s correctly.  Outside the range where that split is
    exact, the sum is formed from integer ratios instead: int true
    division rounds correctly too."""
    p = a * b
    if not (a and b):
        return p + s  # a signed zero plus s: IEEE addition signs it as the fma does
    if not s:
        return p
    if (_EXACT_SPLIT_MIN < abs(p) < _EXACT_SPLIT_MAX and abs(a) < _EXACT_SPLIT_MAX
            and abs(b) < _EXACT_SPLIT_MAX and abs(s) < _EXACT_SPLIT_MAX):
        t = _VELTKAMP * a
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = _VELTKAMP * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        return math.fsum((s, p, e))
    try:
        an, ad = a.as_integer_ratio()
        bn, bd = b.as_integer_ratio()
        sn, sd = s.as_integer_ratio()
        num = an * bn * sd + sn * ad * bd
        return num / (ad * bd * sd) if num else 0.0
    except (OverflowError, ValueError):  # an inf or nan operand, or an inf result
        return p + s


def _fused_dot(c, x) -> float:
    """sum(c_i x_i) accumulated left to right with one rounding per term,
    as the BLAS dot behind numpy's ``np.dot`` does on short float64
    vectors (a fused multiply-add per step, from 0.0)."""
    acc = 0.0
    for ci, xi in zip(c, x):
        if ci:
            acc = _fma(ci, xi, acc)
        else:
            acc += ci * xi  # the fma of a signed zero product, without the call
    return acc


def _powers(ts, k: int) -> list:
    """t**k for each t, squaring by multiplication as numpy's ``ts**2``
    does: libm's pow(t, 2) differs from t*t in the last bit now and then.
    Intensities far above any signal overflow the checked orders."""
    try:
        return [t * t for t in ts] if k == 2 else [t**k for t in ts]
    except OverflowError:
        raise DegenerateGeometryError(f"decoy intensities too large: t**{k} overflows") from None


def _eliminate(ts, kill_orders) -> list:
    """Pairwise elimination of the given photon-number orders.

    Returns the final coefficient vector c over the inputs, normalized
    after each stage to keep scales bounded.  Each stage replaces
    adjacent combinations (u, v) with phi_k(v) u - phi_k(u) v, which
    zeroes the order-k coefficient phi_k(c) = sum_i c_i t_i^k / k!.
    """
    n = len(ts)
    combos = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    for k in kill_orders:
        powers = _powers(ts, k)
        fact = math.factorial(k)
        phis = [_fused_dot(c, powers) / fact for c in combos]
        combos = [
            [phis[i + 1] * u - phis[i] * v for u, v in zip(combos[i], combos[i + 1])]
            for i in range(len(combos) - 1)
        ]
        combos = [_normalized(c) for c in combos]
    (c,) = combos
    return c


def _normalized(c: list) -> list:
    """c / max|c|, with numpy's nan for an all-zero or nan vector."""
    scale = max(map(abs, c))
    if not scale or any(map(math.isnan, c)):
        return [math.nan] * len(c)
    return [x / scale for x in c]


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


def _ladder_bound(ts, a_values, m: int, kill_orders, check_orders: int) -> float:
    """Lower bound on Y_m from intensities ts (descending) and their
    vacuum-subtracted scaled gains A.  Verifies the sign pattern that
    makes dropping the retained higher orders safe.

    The bound and its denominator use the fused dot; the sign guards and
    the cancellation ratio are one-sided tests, where a plain float sum
    does."""
    _check_separation(ts)
    c = _eliminate(ts, kill_orders)
    t_max = ts[0]

    g_m = _fused_dot(c, _powers(ts, m)) / math.factorial(m)
    if g_m < 0.0:
        c = [-x for x in c]
        g_m = -g_m
    if g_m <= 0.0:
        raise DegenerateGeometryError("elimination denominator collapsed to 0")
    # normalized comparison scale: psi_k = phi_k k! / t_max^k is O(1)
    psi_m = g_m * math.factorial(m) / _order_scale(t_max, m)
    for k in range(1, check_orders + 1):
        if k == m or k in kill_orders:
            continue
        psi_k = sum(map(operator.mul, c, _powers(ts, k))) / _order_scale(t_max, k)
        if psi_k > 1e-9 * psi_m:
            raise DegenerateGeometryError(
                f"order-{k} elimination coefficient has the unsafe sign"
            )
    # the k -> infinity sign is carried by the largest intensity
    if c[0] > 0.0:
        raise DegenerateGeometryError("asymptotic elimination coefficient has the unsafe sign")

    g = _fused_dot(c, a_values)
    g_abs = sum(abs(ci) * max(a, 0.0) for ci, a in zip(c, a_values))
    if g != 0.0 and g_abs / abs(g) > MAX_CONDITION:
        raise DegenerateGeometryError(
            f"elimination too ill-conditioned (cancellation {g_abs / abs(g):.1e})"
        )
    return min(max(g / g_m, 0.0), 1.0)


def _scaled_gain_excesses(g: DecoyGains, scale: float, intensities):
    ts = [scale * x for x in intensities]
    idx = {x: i for i, x in enumerate(g.intensities)}
    try:
        a_values = [
            math.exp(t) * g.gains[idx[x]] - g.vacuum_gain for x, t in zip(intensities, ts)
        ]
    except OverflowError:
        raise DegenerateGeometryError(f"decoy intensities too large: e**{max(ts)} overflows") from None
    return ts, a_values


def y2_lower_3party(g: DecoyGains) -> float:
    """Closed-form Y_2 lower bound from exactly three nonzero decoys
    plus vacuum (three-party network, virtual intensities 2x)."""
    if len(g.intensities) != 3:
        raise InsufficientIntensitiesError(
            f"the closed form needs exactly 3 nonzero decoys, got {len(g.intensities)}"
        )
    nu, om, ta = g.intensities
    tn, to, tt = 2.0 * nu, 2.0 * om, 2.0 * ta
    _check_separation([tn, to, tt])
    q0 = g.vacuum_gain
    a_nu = math.exp(tn) * g.gains[0] - q0
    a_om = math.exp(to) * g.gains[1] - q0
    a_ta = math.exp(tt) * g.gains[2] - q0
    c_no3 = to * tn**3 - tn * to**3
    c_ot3 = tt * to**3 - to * tt**3
    num = c_no3 * (tt * a_om - to * a_ta) - c_ot3 * (to * a_nu - tn * a_om)
    den = c_no3 * (tt * to**2 - to * tt**2) - c_ot3 * (to * tn**2 - tn * to**2)
    if den <= 0.0:
        raise DegenerateGeometryError("closed-form denominator is not positive")
    return float(min(max(2.0 * num / den, 0.0), 1.0))


def yields_lower_general(
    g: DecoyGains, total_intensity_scale: float, n_cut: int
) -> DecoyBounds:
    """Lower bounds for every even order up to n_cut.

    The Y_m rung eliminates orders {1..m-1, m+1} using the m+1 smallest
    nonzero intensities (all three of them in the three-party case,
    where the rung reproduces the closed form exactly).
    """
    if n_cut < 2 or n_cut % 2 != 0:
        raise ParameterError(f"n_cut must be a positive even integer, got {n_cut}")
    if len(g.intensities) < n_cut + 1:
        raise InsufficientIntensitiesError(
            f"bounding Y_{n_cut} needs {n_cut + 1} nonzero decoys plus vacuum, "
            f"got {len(g.intensities)}"
        )
    t_all = [total_intensity_scale * x for x in g.intensities]
    check_orders = max(int(math.ceil(max(t_all) + 12.0 * math.sqrt(max(t_all)) + 30.0)), n_cut + 20)
    y_lower = {}
    for m in range(2, n_cut + 1, 2):
        chosen = g.intensities[-(m + 1):]
        ts, a_values = _scaled_gain_excesses(g, total_intensity_scale, chosen)
        kill = list(range(1, m)) + [m + 1]
        y_lower[m] = _ladder_bound(ts, a_values, m, kill, check_orders)
    return DecoyBounds(y_lower=y_lower, n_cut=n_cut)


def phase_error_upper(
    y_lower: dict, signal_intensity: float, q_mu: float, q_vacuum: float, n_parties: int
) -> float:
    """Certified upper bound on the phase-error rate: subtract from 1 the
    even-order mass that the yield bounds guarantee,
    1 - e^-t Y_0/Q - sum_{even m} e^-t t^m/m! Y_m^L/Q with t=(N-1) mu."""
    if q_mu <= 0.0:
        raise ParameterError("phase_error_upper needs a positive signal gain")
    t = (n_parties - 1) * signal_intensity
    bound = 1.0 - math.exp(-t) * q_vacuum / q_mu
    for m, y_l in sorted(y_lower.items()):
        bound -= math.exp(-t) * t**m / math.factorial(m) * y_l / q_mu
    return float(min(max(bound, 0.0), 1.0))


def check_decoy_set(pp: ProtocolParams) -> None:
    """Raise ``InsufficientIntensitiesError`` unless the decoy set has the
    vacuum intensity and the n_cut + 1 nonzero ones the ladder needs.
    Neither depends on the channel, so a caller can check them once for
    every distance."""
    n_cut = n_cut_for(pp.n_parties)
    if not pp.has_vacuum_decoy:
        raise InsufficientIntensitiesError("the estimator needs a vacuum (0) decoy intensity")
    if len(pp.nonzero_decoys) < n_cut + 1:
        raise InsufficientIntensitiesError(
            f"N={pp.n_parties} needs {n_cut + 1} nonzero decoys plus vacuum, "
            f"got {len(pp.nonzero_decoys)}"
        )


def decoy_bounds(pp: ProtocolParams, ch: ChannelParams) -> DecoyBounds:
    """Estimation on simulated honest gains: the even-order yield lower
    bounds and the phase-error upper bound they certify."""
    check_decoy_set(pp)
    n = pp.n_parties
    n_cut = n_cut_for(n)
    gains = simulate_decoy_gains(pp, ch)
    y_lower = yields_lower_general(gains, float(n - 1), n_cut).y_lower
    arrival = transmittance(ch) * pp.signal_intensity
    q_mu = branch_gain_avg(arrival, ch.dark_count) ** (n - 1)
    e_x_u = phase_error_upper(y_lower, pp.signal_intensity, q_mu, gains.vacuum_gain, n)
    return DecoyBounds(y_lower=y_lower, n_cut=n_cut, phase_error_upper=e_x_u)


def rate_lower(pp: ProtocolParams, ch: ChannelParams) -> RateReport:
    """Certified key-rate lower bound as a rate report; ``phase_error``
    carries the phase error charged in the privacy term, min(E_X^U, 1/2)."""
    e_x_u = decoy_bounds(pp, ch).phase_error_upper
    # E_X may lie anywhere in [0, E_X^U], and H peaks at 1/2: a bound above
    # 1/2 certifies no more than 1/2 does
    return key_rate(pp, ch, phase_error=min(e_x_u, 0.5))
