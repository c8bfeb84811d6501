"""Enumeration reference for the closed-form gain and phase error.

Every sum here has nonnegative terms only, so no sum can cancel digits
away; the functions are slow and exist to pin the product code.

* ``enumerated_yields`` / ``enumerated_gain`` / ``enumerated_phase_error``
  mix the composition-enumerated yields ``yield_probability(topology, k)``
  with Poisson weights of the total virtual intensity, up to the cutoff
  ``truncation_order``.  The cost grows like C(K + B, B) in the branch
  count B, so these serve up to ~4 branches.
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
from pmqcc.yields import BranchTopology, yield_probability


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


def enumerated_yields(topology: BranchTopology, k_max: int | None = None) -> list:
    """Y_0 .. Y_K by composition enumeration, K = truncation_order(t) by default."""
    if k_max is None:
        k_max = truncation_order(topology.total_virtual_intensity)
    return [yield_probability(topology, k) for k in range(k_max + 1)]


def _parity_masses(topology: BranchTopology, yields) -> tuple:
    t = topology.total_virtual_intensity
    even = sum(poisson_weight(t, k) * y for k, y in enumerate(yields) if k % 2 == 0)
    odd = sum(poisson_weight(t, k) * y for k, y in enumerate(yields) if k % 2 == 1)
    return even, odd


def enumerated_gain(topology: BranchTopology, k_max: int | None = None) -> float:
    """Overall gain sum_k P_t(k) Y_k over the enumerated yields."""
    return sum(_parity_masses(topology, enumerated_yields(topology, k_max)))


def enumerated_phase_error(topology: BranchTopology, k_max: int | None = None) -> float:
    """E_X = sum_{k odd} P_t(k) Y_k / sum_k P_t(k) Y_k over the enumerated yields."""
    even, odd = _parity_masses(topology, enumerated_yields(topology, k_max))
    return odd / (even + odd)


def branchwise_phase_error(topology: BranchTopology) -> float:
    """E_X from per-branch even/odd success masses, each a sum over the
    branch's own Poisson photon number n <= truncation_order(t_l).  The
    running masses are renormalized after each branch so that long chains
    do not underflow."""
    pd = topology.dark_count
    even, odd = 1.0, 0.0
    for b in topology.branches:
        s, masses = b.survival, [0.0, 0.0]
        for n in range(truncation_order(b.virtual_intensity) + 1):
            # 1 - (1-s)^n, free of cancellation at small s
            hit = -math.expm1(n * math.log1p(-s)) if s < 1.0 else float(n > 0)
            success = (1.0 - pd) * (hit + 2.0 * pd * (1.0 - s) ** n)
            masses[n % 2] += poisson_weight(b.virtual_intensity, n) * success
        e_l, o_l = masses
        even, odd = even * e_l + odd * o_l, even * o_l + odd * e_l
        even, odd = even / (even + odd), odd / (even + odd)
    return odd
