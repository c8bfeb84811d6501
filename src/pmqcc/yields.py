"""Photon-number-resolved success probabilities Y_k and the phase-error
rate of the honest measurement network, including asymmetric (reduced)
topologies.

Model: the k photons of the combined virtual source land independently
in branch l with probability mu_V(l) / sum(mu_V), survive transmission
with the branch's per-photon probability s(l), and — phases being
matched — exit to the branch's expected port.  A branch with n surviving
photons registers exactly one click with probability

    (1 - p_d)              if n >= 1   (photon click, other port silent)
    2 p_d (1 - p_d)        if n == 0   (dark count on one port only)

and Y_k is the probability that every branch succeeds simultaneously.

``yield_probability`` evaluates Y_k by exact enumeration over branch
occupation compositions of k (the desk-scale oracle, with a configurable
term cap).  ``phase_error_rate`` needs no yields at all: by Poisson
thinning the branch photon numbers are independent Poisson variables, so
the odd-photon-number share of the gain factorizes over branches into an
O(branches) closed form with no truncation.  ``chain_phase_error`` is the
same closed form on the chain of ``BranchTopology.chain``, taken from
plain floats so that an intensity sweep builds no topology records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EnumerationLimitError, ParameterError

__all__ = [
    "BranchSpec",
    "BranchTopology",
    "yield_probability",
    "phase_error_rate",
    "chain_phase_error",
]

DEFAULT_TERM_CAP = 10_000_000

_ARM_BALANCE_RTOL = 1e-9


@dataclass(frozen=True)
class BranchSpec:
    """One interference branch of the virtual-source picture.

    ``virtual_intensity`` is the mean photon number of the branch's
    combined virtual source, ``survival`` the per-photon detection
    probability; their product is the arrival intensity at the branch's
    beam splitter.  Survival 0 is a branch that only sees dark counts.
    """

    virtual_intensity: float
    survival: float

    def __post_init__(self):
        if not self.virtual_intensity > 0.0:
            raise ParameterError(f"virtual_intensity must be > 0, got {self.virtual_intensity}")
        if not 0.0 <= self.survival <= 1.0:
            raise ParameterError(f"survival must lie in [0, 1], got {self.survival}")

    @property
    def arrival_intensity(self) -> float:
        return self.virtual_intensity * self.survival

    @classmethod
    def from_arms(
        cls, mu_left: float, eta_left: float, mu_right: float, eta_right: float
    ) -> "BranchSpec":
        """Build a branch from its two source arms; a valid interference
        branch needs equal arriving intensities on both arms."""
        return cls(*_merge_arms(mu_left, eta_left, mu_right, eta_right))


@dataclass(frozen=True)
class BranchTopology:
    """The N-1 branches of an interference chain plus the detector dark
    count shared by all branches."""

    branches: tuple
    dark_count: float

    def __post_init__(self):
        if len(self.branches) == 0:
            raise ParameterError("topology needs at least one branch")
        if not 0.0 <= self.dark_count < 1.0:
            raise ParameterError(f"dark_count must lie in [0, 1), got {self.dark_count}")
        object.__setattr__(self, "branches", tuple(self.branches))

    @property
    def total_virtual_intensity(self) -> float:
        return sum(b.virtual_intensity for b in self.branches)

    @property
    def n_parties(self) -> int:
        return len(self.branches) + 1

    @classmethod
    def symmetric(cls, n_parties: int, mu: float, eta: float, dark_count: float) -> "BranchTopology":
        """Standard chain: every branch sees virtual intensity mu and
        per-photon survival eta."""
        if n_parties < 2:
            raise ParameterError(f"n_parties must be >= 2, got {n_parties}")
        branch = BranchSpec(virtual_intensity=mu, survival=eta)
        return cls(branches=(branch,) * (n_parties - 1), dark_count=dark_count)

    @classmethod
    def chain(
        cls,
        n_parties: int,
        mu: float,
        eta: float,
        dark_count: float,
        boundaries: tuple = (False, False),
    ) -> "BranchTopology":
        """Chain with optionally broken end points.

        A boundary end party sends the full interior intensity mu but
        half of its light feeds a dead branch, so its arm enters with
        source intensity mu at effective transmittance eta/2; all other
        arms contribute mu/2 at eta.  Arriving intensities stay balanced,
        so per-branch gain and QBER match the symmetric chain while the
        virtual intensity (and hence the phase-error rate) grows.  With
        no broken end this is the symmetric chain.
        """
        branches = _chain_branches(n_parties, mu, eta, boundaries)
        return cls(branches=tuple(BranchSpec(t, s) for t, s in branches), dark_count=dark_count)


def _merge_arms(mu_left: float, eta_left: float, mu_right: float, eta_right: float) -> tuple:
    """(virtual intensity, survival) of the branch fed by two source arms,
    whose arriving intensities must balance."""
    left, right = eta_left * mu_left, eta_right * mu_right
    if not math.isclose(left, right, rel_tol=_ARM_BALANCE_RTOL):
        raise ParameterError(f"arm arrival intensities must match, got {left} vs {right}")
    mu_v = mu_left + mu_right
    return mu_v, (left + right) / mu_v


def _chain_branches(n_parties: int, mu: float, eta: float, boundaries: tuple) -> list:
    """(virtual intensity, survival) of each branch of ``BranchTopology.chain``."""
    if n_parties < 2:
        raise ParameterError(f"n_parties must be >= 2, got {n_parties}")
    if len(boundaries) != 2:
        raise ParameterError("boundaries must be a (left, right) pair of flags")
    left_b, right_b = (bool(boundaries[0]), bool(boundaries[1]))
    if not (left_b or right_b):
        return [(mu, eta)] * (n_parties - 1)
    branches = []
    for l in range(n_parties - 1):
        left_arm = (mu, eta / 2.0) if l == 0 and left_b else (mu / 2.0, eta)
        right_arm = (mu, eta / 2.0) if l == n_parties - 2 and right_b else (mu / 2.0, eta)
        branches.append(_merge_arms(*left_arm, *right_arm))
    return branches


def yield_probability(topology: BranchTopology, k: int, term_cap: int = DEFAULT_TERM_CAP) -> float:
    """Y_k by exact enumeration over compositions (n_1, .., n_B) of k.

    Per-branch success factors given n photons assigned,
    (1-p_d) (1 - (1-2 p_d) (1-s)^n), are memoized per branch and photon
    count, formed as (1-p_d)(-expm1(n log1p(-s)) + 2 p_d (1-s)^n) so that
    nothing cancels at small survival s; the composition count
    C(k+B-1, B-1) is checked against ``term_cap`` before enumerating.
    """
    if not isinstance(k, int) or k < 0:
        raise ParameterError(f"k must be a nonnegative integer, got {k}")
    nb = len(topology.branches)
    n_terms = math.comb(k + nb - 1, nb - 1)
    if n_terms > term_cap:
        raise EnumerationLimitError(
            f"{n_terms} compositions of k={k} over {nb} branches exceed the cap {term_cap}"
        )
    pd = topology.dark_count
    total_v = topology.total_virtual_intensity
    log_ws = [math.log(b.virtual_intensity / total_v) for b in topology.branches]
    # success factor per (branch, occupation)
    factors = []
    for b in topology.branches:
        s = b.survival
        row = []
        for n in range(k + 1):
            # 1 - (1-s)^n; at s = 1 every photon arrives
            hit = -math.expm1(n * math.log1p(-s)) if s < 1.0 else float(n > 0)
            row.append((1.0 - pd) * (hit + 2.0 * pd * (1.0 - s) ** n))
        factors.append(row)
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


def phase_error_rate(topology: BranchTopology) -> float:
    """Phase-error rate E_X: the odd-photon-number share of the gain.

    Branch l holds n_l ~ Poisson(t_l) photons independently of the other
    branches, and succeeds with f_l(n) = (1-p_d)(1 - (1-2p_d)(1-s_l)^n).
    With a_l = s_l t_l the arrival intensity,

        E[f_l]          = (1-p_d) T_l,  T_l = 1 - (1-2p_d) e^{-a_l}
        E[(-1)^n f_l]   = (1-p_d) D_l,  D_l = e^{a_l-2t_l} (expm1(-a_l) + 2p_d)

    so E_X = (1 - prod_l D_l / T_l) / 2: O(branches), no truncation, and
    no alternating sum.  Each ratio lies in [-1, 1], so long chains cannot
    overflow; e^{a_l - 2t_l} <= 1 because a_l <= t_l.
    """
    branches = [(b.virtual_intensity, b.survival) for b in topology.branches]
    return _parity_phase_error(branches, topology.dark_count)


def chain_phase_error(n_parties: int, mu: float, eta: float, dark_count: float, boundaries: tuple) -> float:
    """``phase_error_rate(BranchTopology.chain(...))`` from the same floats,
    without building the records.  Unlike the records, it does not check
    the ranges of mu, eta and p_d: callers pass validated parameters."""
    return _parity_phase_error(_chain_branches(n_parties, mu, eta, boundaries), dark_count)


def _parity_phase_error(branches, pd: float) -> float:
    """E_X of ``phase_error_rate`` over (virtual intensity, survival) pairs."""
    ratio = 1.0
    for t, s in branches:
        a = t * s
        gain = -math.expm1(-a) + 2.0 * pd * math.exp(-a)
        if gain <= 0.0:
            raise ParameterError("overall gain is 0; phase error undefined")
        ratio *= math.exp(a - 2.0 * t) * (math.expm1(-a) + 2.0 * pd) / gain
    return (1.0 - ratio) / 2.0
