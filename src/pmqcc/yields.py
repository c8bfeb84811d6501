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
term cap).  ``phase_error_rate`` needs no yields at all: it is the
closed form the rate pipeline runs, ``keyrate.parity_phase_error``, on a
topology's branches.  No command imports this module; the tests and
demos check the rate pipeline against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EnumerationLimitError, ParameterError
from .keyrate import chain_branches, merge_arms, parity_phase_error

__all__ = [
    "BranchSpec",
    "BranchTopology",
    "yield_probability",
    "phase_error_rate",
]

DEFAULT_TERM_CAP = 10_000_000


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
        return cls(*merge_arms(mu_left, eta_left, mu_right, eta_right))


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
        """Chain with optionally broken end points, as
        ``keyrate.chain_branches`` builds it.  With no broken end this is
        the symmetric chain."""
        branches = chain_branches(n_parties, mu, eta, boundaries)
        return cls(branches=tuple(BranchSpec(t, s) for t, s in branches), dark_count=dark_count)


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
    """Phase-error rate E_X of a topology: the odd-photon-number share of
    the gain, by the O(branches) closed form of
    ``keyrate.parity_phase_error``."""
    branches = [(b.virtual_intensity, b.survival) for b in topology.branches]
    return parity_phase_error(branches, topology.dark_count)
