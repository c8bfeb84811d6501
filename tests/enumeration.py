"""Enumeration reference for the closed-form gain and phase error.

A chain is given by its branches, the (virtual intensity t, survival s)
pairs that ``pmqcc.keyrate.chain_branches`` builds, and the dark count
p_d shared by every branch.  Every sum here has nonnegative terms only,
so no sum can cancel digits away; the functions are slow and exist to
pin the product code.

* ``yield_probability`` is Y_k, the probability that every branch
  succeeds when the k photons of the combined virtual source land in
  branch l with probability t_l / sum(t), by exact enumeration over the
  branch occupation compositions of k (with a term cap).
* ``enumerated_yields`` / ``enumerated_gain`` / ``enumerated_phase_error``
  mix those yields with Poisson weights of the total virtual intensity,
  up to the cutoff ``truncation_order``.  The cost grows like C(K + B, B)
  in the branch count B, so these serve up to ~4 branches.
* ``branchwise_phase_error`` uses Poisson thinning instead: branch l holds
  an independent Poisson(t_l) photon number, so the even- and odd-parity
  success masses of each branch are sums over n alone, and the chain's
  masses follow by a parity convolution over branches.  It costs
  O(B K) and serves any branch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from pmqcc import ParameterError

TERM_CAP = 10_000_000


class EnumerationLimitError(RuntimeError):
    """A composition enumeration would exceed the term cap."""


@dataclass(frozen=True)
class ParitySplit:
    """Even/odd photon-number mass of a phase-randomized coherent source.

    ``p_odd`` is computed from ``p_even``'s complement so the pair sums
    to 1 exactly.
    """

    p_even: float
    p_odd: float


def parity_split(total_intensity: float) -> ParitySplit:
    """Parity decomposition of a coherent source of mean photon number t:
    p_even = e^-t cosh t, p_odd = e^-t sinh t = (1 - e^-2t)/2."""
    if total_intensity < 0.0:
        raise ParameterError(f"total_intensity must be >= 0, got {total_intensity}")
    p_odd = -math.expm1(-2.0 * total_intensity) / 2.0
    return ParitySplit(p_even=1.0 - p_odd, p_odd=p_odd)


def poisson_weight(total_intensity: float, k: int) -> float:
    """Poisson probability e^-t t^k / k!, evaluated in log space so large
    k stays finite during truncation sweeps."""
    if total_intensity < 0.0:
        raise ParameterError(f"total_intensity must be >= 0, got {total_intensity}")
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"k must be a nonnegative integer, got {k}")
    if total_intensity == 0.0:
        return 1.0 if k == 0 else 0.0
    return math.exp(k * math.log(total_intensity) - total_intensity - math.lgamma(k + 1))


def truncation_order(total_intensity: float) -> int:
    """Smallest photon-number cutoff K with Poisson tail mass below 1e-12
    under the K >= t + 12 sqrt(t) + 30 rule."""
    if total_intensity < 0.0:
        raise ParameterError(f"total_intensity must be >= 0, got {total_intensity}")
    t = total_intensity
    return int(math.ceil(t + 12.0 * math.sqrt(t) + 30.0))


def total_intensity(branches) -> float:
    """Mean photon number of the chain's combined virtual source."""
    return sum(t for t, _ in branches)


def success_factor(survival: float, pd: float, n: int) -> float:
    """Probability that a branch holding n photons of per-photon survival
    s registers exactly one click, (1-p_d)(1 - (1-2p_d)(1-s)^n), formed
    as (1-p_d)(1 - (1-s)^n + 2p_d (1-s)^n) so that nothing cancels at
    small s."""
    s = survival
    # 1 - (1-s)^n; at s = 1 every photon arrives
    hit = -math.expm1(n * math.log1p(-s)) if s < 1.0 else float(n > 0)
    return (1.0 - pd) * (hit + 2.0 * pd * (1.0 - s) ** n)


def yield_probability(branches, pd: float, k: int, term_cap: int = TERM_CAP) -> float:
    """Y_k by exact enumeration over compositions (n_1, .., n_B) of k.

    The success factors are tabulated per branch and photon count; the
    composition count C(k+B-1, B-1) is checked against ``term_cap``
    before enumerating.
    """
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"k must be a nonnegative integer, got {k}")
    nb = len(branches)
    n_terms = math.comb(k + nb - 1, nb - 1)
    if n_terms > term_cap:
        raise EnumerationLimitError(
            f"{n_terms} compositions of k={k} over {nb} branches exceed the cap {term_cap}"
        )
    total_v = total_intensity(branches)
    log_ws = [math.log(t / total_v) for t, _ in branches]
    factors = [[success_factor(s, pd, n) for n in range(k + 1)] for _, s in branches]
    log_fact = [math.lgamma(n + 1) for n in range(k + 1)]

    total = 0.0

    def recurse(level: int, remaining: int, log_w_acc: float, f_acc: float):
        nonlocal total
        if level == nb - 1:
            n = remaining
            logp = log_fact[k] - log_fact[n] + n * log_ws[level] + log_w_acc
            total += math.exp(logp) * f_acc * factors[level][n]
            return
        for n in range(remaining + 1):
            recurse(
                level + 1,
                remaining - n,
                log_w_acc + n * log_ws[level] - log_fact[n],
                f_acc * factors[level][n],
            )

    if nb == 1:
        return factors[0][k]
    recurse(0, k, 0.0, 1.0)
    return min(max(total, 0.0), 1.0)


def enumerated_yields(branches, pd: float, k_max: int | None = None) -> list:
    """Y_0 .. Y_K by composition enumeration, K = truncation_order(t) by default."""
    if k_max is None:
        k_max = truncation_order(total_intensity(branches))
    return [yield_probability(branches, pd, k) for k in range(k_max + 1)]


def _parity_masses(branches, yields) -> tuple:
    t = total_intensity(branches)
    even = sum(poisson_weight(t, k) * y for k, y in enumerate(yields) if k % 2 == 0)
    odd = sum(poisson_weight(t, k) * y for k, y in enumerate(yields) if k % 2 == 1)
    return even, odd


def enumerated_gain(branches, pd: float, k_max: int | None = None) -> float:
    """Overall gain sum_k P_t(k) Y_k over the enumerated yields."""
    return sum(_parity_masses(branches, enumerated_yields(branches, pd, k_max)))


def enumerated_phase_error(branches, pd: float, k_max: int | None = None) -> float:
    """E_X = sum_{k odd} P_t(k) Y_k / sum_k P_t(k) Y_k over the enumerated yields."""
    even, odd = _parity_masses(branches, enumerated_yields(branches, pd, k_max))
    return odd / (even + odd)


def branchwise_phase_error(branches, pd: float) -> float:
    """E_X from per-branch even/odd success masses, each a sum over the
    branch's own Poisson photon number n <= truncation_order(t_l).  The
    running masses are renormalized after each branch so that long chains
    do not underflow."""
    even, odd = 1.0, 0.0
    for t, s in branches:
        masses = [0.0, 0.0]
        for n in range(truncation_order(t) + 1):
            masses[n % 2] += poisson_weight(t, n) * success_factor(s, pd, n)
        e_l, o_l = masses
        even, odd = even * e_l + odd * o_l, even * o_l + odd * e_l
        even, odd = even / (even + odd), odd / (even + odd)
    return odd
