"""Independent reference values for checking pmqcc CLI outputs.

Everything here uses the standard library only and shares no code with
the package under test.

Rate oracle.  Each of the N-1 interference branches sees the arrival
intensity a = eta mu.  The branch gain and QBER are the slice-averaged
closed forms the rate tables are built on; the pair QBER between party 1
and party m is (1 - (1 - 2e)^(m-1)) / 2.  The phase error follows from
Poisson thinning: the photon numbers of the branch virtual sources are
independent, so with virtual intensity t_l and arrival intensity a_l

    T_l = 1 - (1 - 2 p_d) e^{-a_l}
    D_l = e^{-2 t_l} (-expm1(a_l) + 2 p_d e^{a_l})
    E_X = (1 - prod D_l / prod T_l) / 2

which is exact, O(N) and needs no photon-number truncation.  A broken
chain end sends the full interior intensity into its branch (half of it
to a dead port), which raises that branch's virtual intensity to 1.5 mu.

Monte Carlo oracle.  The simulator draws each party's in-slice position
u uniformly, so branch l interferes at phase difference
(u_{l+1} - u_l) 2 pi / M (plus multiples of pi that bit-flip cooperation
undoes).  Neighbouring branches share a party and are correlated; the
expected success and pair-error rates are chain integrals over u, which
``mc_expectations`` evaluates with a midpoint-rule transfer matrix.

Decoy witness.  ``decoy_witness_rate`` certifies a rate lower bound from
one decoy set, to refute a decoy search that reports no positive rate.
With t_x = (N-1) x and A_x = e^{t_x} Q_x - Q_0 = sum_{k>=1} t_x^k/k! Y_k,
a combination c of m+1 decoys with sum_i c_i t_i^k = 0 for k in
{1..m-1, m+1}, a positive order-m coefficient and no positive coefficient
of any other order gives Y_m >= c.A / (sum_i c_i t_i^m / m!).  The null
vector and every order's sign are computed in exact rational arithmetic.
An upper bound on the phase error costs h(min(e, 1/2)) in the rate.
"""

from __future__ import annotations

import math
from fractions import Fraction

TRANSFER_POINTS = 256


def transmittance(alpha_db_per_km: float, distance_km: float, detector_efficiency: float) -> float:
    return detector_efficiency * 10.0 ** (-alpha_db_per_km * distance_km / 10.0)


def entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def branch_gain(a: float, pd: float) -> float:
    return -math.expm1(-a) + 2.0 * pd * math.exp(-a)


def slice_misalignment(m: int) -> float:
    return math.pi / m - (m * m / math.pi**2) * math.sin(math.pi / m) ** 3


def branch_qber(a: float, pd: float, m: int) -> float:
    return (pd + a * slice_misalignment(m)) * math.exp(-a) / branch_gain(a, pd)


def branch_qber_star(a: float, pd: float, misalignment: float) -> float:
    wrong = (1.0 - pd) * math.exp(-a * (1.0 - misalignment)) * (1.0 - (1.0 - pd) * math.exp(-a * misalignment))
    return wrong / branch_gain(a, pd)


def pair_qber(e: float, m: int) -> float:
    return (1.0 - (1.0 - 2.0 * e) ** (m - 1)) / 2.0


def virtual_intensities(n: int, mu: float, broken=(False, False)) -> list:
    """Per-branch virtual intensity t_l of the chain."""
    out = []
    for l in range(n - 1):
        left = mu if (l == 0 and broken[0]) else mu / 2.0
        right = mu if (l == n - 2 and broken[1]) else mu / 2.0
        out.append(left + right)
    return out


def phase_error(a: float, ts, pd: float) -> float:
    """E_X for branches with common arrival intensity a and virtual
    intensities ts."""
    big_t = 1.0 - (1.0 - 2.0 * pd) * math.exp(-a)
    d_over_t = (-math.expm1(a) + 2.0 * pd * math.exp(a)) / big_t
    ratio = 1.0
    for t in ts:
        ratio *= math.exp(-2.0 * t) * d_over_t
    return (1.0 - ratio) / 2.0


def rate(cfg: dict, protocol: str, mu: float, m: int, distance_km: float) -> dict:
    """Exact rate and its ingredients for ``pmqcc``, ``pmqcc-star`` and
    ``reduced``; ``decoy-lower`` callers compare against ``pmqcc``.
    ``scale`` is the rate before the entropy terms, prefactor times gain,
    and ``margin`` the entropy bracket it multiplies, before clamping."""
    n = int(cfg["parties"])
    pd = float(cfg["dark_count"])
    eta = transmittance(float(cfg["alpha_db_per_km"]), distance_km, float(cfg["detector_efficiency"]))
    a = eta * mu
    q_b = branch_gain(a, pd)
    if protocol == "pmqcc-star":
        prefactor = 1.0
        e_b = branch_qber_star(a, pd, float(cfg.get("signal_phase_misalignment", 0.0)))
    else:
        prefactor = (2.0 / m) ** (n - 1)
        e_b = branch_qber(a, pd, m)
    broken = (False, False)
    if protocol == "reduced":
        marks = cfg.get("boundaries", ["right"])
        broken = ("left" in marks, "right" in marks)
    e_x = phase_error(a, virtual_intensities(n, mu, broken), pd)
    qbers = [pair_qber(e_b, k) for k in range(2, n + 1)]
    gain = q_b ** (n - 1)
    scale = prefactor * gain
    margin = 1.0 - float(cfg["f"]) * entropy(max(qbers)) - entropy(e_x)
    return {"rate": max(scale * margin, 0.0), "gain": gain, "qber_max": max(qbers), "phase_error": e_x,
            "scale": scale, "margin": margin}


def _branch_kernels(a: float, pd: float, m: int, k: int):
    """One-click and wrong-port one-click probability of a branch for
    every pair of midpoint grid positions (u_i, u_j)."""
    log_nodark = math.log1p(-pd)
    grid = [(i + 0.5) / k for i in range(k)]
    click, wrong = [], []
    for ui in grid:
        c_row, w_row = [], []
        for uj in grid:
            delta = (uj - ui) * 2.0 * math.pi / m
            left_silent = math.exp(log_nodark - a * math.cos(delta / 2.0) ** 2)
            right_silent = math.exp(log_nodark - a * math.sin(delta / 2.0) ** 2)
            w = left_silent * (1.0 - right_silent)
            c_row.append((1.0 - left_silent) * right_silent + w)
            w_row.append(w)
        click.append(c_row)
        wrong.append(w_row)
    return click, wrong


def _chain_mean(kernels) -> float:
    """Mean over iid uniform u_1..u_N of prod_l kernel_l(u_l, u_{l+1})."""
    k = len(kernels[0])
    vec = [1.0 / k] * k
    for ker in kernels:
        vec = [sum(v * row[j] for v, row in zip(vec, ker)) / k for j in range(k)]
    return sum(vec)


def mc_expectations(n: int, a: float, pd: float, m: int) -> dict:
    """Per sifted round: the success probability; per success: the
    expected error rate between party 1 and party p, for p = 2..N."""
    click, wrong = _branch_kernels(a, pd, m, TRANSFER_POINTS)
    signed = [[c - 2.0 * w for c, w in zip(cr, wr)] for cr, wr in zip(click, wrong)]
    success = _chain_mean([click] * (n - 1))
    errors = {}
    for p in range(2, n + 1):
        parity = _chain_mean([signed] * (p - 1) + [click] * (n - p))
        errors[p] = (1.0 - parity / success) / 2.0
    return {"success": success, "pair_error": errors}


def _determinant(rows) -> Fraction:
    rows = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def _yield_combination(ts, m: int):
    """The combination c over descending ``ts`` that isolates Y_m as a
    lower bound, as (c, sum_i c_i t_i^m / m!), or None if no such
    combination exists for these intensities."""
    ts = [Fraction(t) for t in ts]
    killed = [*range(1, m), m + 1]
    rows = [[t**k for t in ts] for k in killed]
    # the null vector of the m x (m+1) system, by cofactors
    c = [(-1) ** j * _determinant([r[:j] + r[j + 1:] for r in rows]) for j in range(len(ts))]
    g_m = sum(ci * t**m for ci, t in zip(c, ts))
    if g_m == 0:
        return None
    if g_m < 0:
        c = [-ci for ci in c]
    if c[0] >= 0:
        return None
    # every other order's coefficient must be <= 0; once the largest
    # intensity's term dominates it stays dominant for every higher order
    k = 1
    while k <= m + 1 or abs(c[0]) * ts[0] ** k <= sum(abs(ci) * t**k for ci, t in zip(c[1:], ts[1:])):
        if k not in killed and k != m and sum(ci * t**k for ci, t in zip(c, ts)) > 0:
            return None
        k += 1
    return [float(ci) for ci in c], float(abs(g_m)) / math.factorial(m)


def decoy_witness_rate(cfg: dict, mu: float, m: int, distance_km: float, decoys) -> float:
    """Certified rate lower bound of the decoy set ``decoys`` (descending,
    with the vacuum decoy last) at signal mu and M slices, or 0 if it
    certifies none."""
    n = int(cfg["parties"])
    pd = float(cfg["dark_count"])
    eta = transmittance(float(cfg["alpha_db_per_km"]), distance_km, float(cfg["detector_efficiency"]))
    n_cut = n - 1 if n % 2 else n
    nonzero = [x for x in decoys if x > 0.0]
    q_vacuum = (2.0 * pd * (1.0 - pd)) ** (n - 1)
    t = (n - 1) * mu
    q_mu = branch_gain(eta * mu, pd) ** (n - 1)
    even_mass = q_vacuum
    for order in range(2, n_cut + 1, 2):
        chosen = nonzero[-(order + 1):]
        ts = [(n - 1) * x for x in chosen]
        found = _yield_combination(ts, order)
        if found is None:
            return 0.0
        c, g_m = found
        a_values = [math.exp(tx) * branch_gain(eta * x, pd) ** (n - 1) - q_vacuum for tx, x in zip(ts, chosen)]
        y_lower = min(max(math.fsum(ci * ai for ci, ai in zip(c, a_values)) / g_m, 0.0), 1.0)
        even_mass += t**order / math.factorial(order) * y_lower
    e_upper = min(max(1.0 - math.exp(-t) * even_mass / q_mu, 0.0), 0.5)
    qbers = [pair_qber(branch_qber(eta * mu, pd, m), k) for k in range(2, n + 1)]
    raw = (2.0 / m) ** (n - 1) * q_mu * (1.0 - float(cfg["f"]) * entropy(max(qbers)) - entropy(e_upper))
    return max(raw, 0.0)
