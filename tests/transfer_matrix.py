"""Transfer-matrix expectation of the round-level simulator's tallies.

Every sifted round gives party p an in-slice position u_p, uniform on
[0, 1) and independent across parties.  Branch l, between parties l and
l+1, sees the phase difference

    delta_l = (u_{l+1} - u_l) 2 pi / M + theta_l + pi s_l

where the shift pi s_l collects the parties' bits and the half-slice
offset, and theta_l = d_l + j_l 2 pi / M the branch's reference
deviation d_l plus its compensation index j_l in slices.  A shift by pi
swaps the L and R ports, and the offset is a fair coin independent of
everything else, so given success the L/R pattern is uniform over its
2^(N-1) values.  After bit-flip cooperation, party p disagrees with
party 1 exactly when an odd number of branches 1..p-1 clicked on the
wrong port for delta_l - pi s_l.  Both the success probability and that parity are
means of products of per-branch kernels in (u_l, u_{l+1}), evaluated
here on a k-point midpoint grid in each u.
"""

from __future__ import annotations

import math

import numpy as np


def branch_kernels(arrival: float, dark_count: float, slice_count: int, k: int = 128,
                   shift: float = 0.0):
    """(one-click, wrong-port one-click) probabilities on the grid:
    entry [i, j] is the branch between in-slice positions u_i and u_j,
    whose phase difference is shifted by ``shift``."""
    u = (np.arange(k) + 0.5) / k
    delta = (u[None, :] - u[:, None]) * 2.0 * math.pi / slice_count + shift
    left_silent = (1.0 - dark_count) * np.exp(-arrival * np.cos(delta / 2.0) ** 2)
    right_silent = (1.0 - dark_count) * np.exp(-arrival * np.sin(delta / 2.0) ** 2)
    wrong = left_silent * (1.0 - right_silent)
    return (1.0 - left_silent) * right_silent + wrong, wrong


def chain_mean(kernels) -> float:
    """Mean over iid uniform u_1..u_N of prod_l kernel_l(u_l, u_{l+1})."""
    k = kernels[0].shape[0]
    vec = np.full(k, 1.0 / k)
    for kernel in kernels:
        vec = vec @ kernel / k
    return float(vec.sum())


def expected_tally(n_parties: int, arrival: float, dark_count: float, slice_count: int,
                   k: int = 128, deviations: tuple = (), compensation: tuple = ()) -> dict:
    """Per sifted round the success probability; per success the
    probability of each L/R pattern and of an error between party 1 and
    party p, for p = 2..N.  ``deviations`` and ``compensation`` are the
    simulator's reference offsets and compensation indices, one per
    branch (none means 0)."""
    branches = n_parties - 1
    shifts = [
        d + j * 2.0 * math.pi / slice_count
        for d, j in zip(deviations or (0.0,) * branches, compensation or (0,) * branches)
    ]
    kernels = [branch_kernels(arrival, dark_count, slice_count, k, shift) for shift in shifts]
    ones = [one for one, _ in kernels]
    success = chain_mean(ones)
    pair_error = {}
    for p in range(2, n_parties + 1):
        parity = chain_mean([one - 2.0 * wrong for one, wrong in kernels[:p - 1]] + ones[p - 1:])
        pair_error[p] = (1.0 - parity / success) / 2.0
    return {"success": success, "pattern": 0.5 ** branches, "pair_error": pair_error}
