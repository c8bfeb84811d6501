"""The frontier table: per party count on the bench channel, the largest
distance at which each optimized rate is positive, bisected to
``TOL_KM`` and pinned in ``tests/golden/frontier.txt``.

A column is a rate's feasibility test.  ``exact`` is a positive
``optimize_signal``, as ``curve --optimize signal`` runs it;
``signal+decoys`` is a positive ``optimize_decoys`` at that signal
optimum, the second search of ``curve --optimize signal+decoys``.  A cell
that moves changes where a rate exists, and a certified cell that
shrinks is a regression.  The resolution may not be made coarser.
"""

import functools
from pathlib import Path

import pytest

from pmqcc import optimize_decoys, optimize_signal, rate_lower, rate_pmqcc
from tests.conftest import bench_channel_at

GOLDEN = Path(__file__).with_name("golden") / "frontier.txt"
PARTIES = range(3, 11)
# bisection over [0, MAX_KM] to TOL_KM; the monotonicity check's grid step
MAX_KM = 400.0
TOL_KM = 0.5
GRID_KM = 5.0


@functools.lru_cache(maxsize=None)
def signal_optimum(n: int, km: float):
    return optimize_signal(bench_channel_at(km), n)


@functools.lru_cache(maxsize=None)
def certified_optimum(n: int, km: float):
    """The decoy search at the signal optimum, or None where the signal
    search finds no rate."""
    signal = signal_optimum(n, km)
    if signal.flagged_zero:
        return None
    best = signal.best_params
    return optimize_decoys(bench_channel_at(km), n, best.signal_intensity, best.slice_count)


def certified_positive(n: int, km: float) -> bool:
    result = certified_optimum(n, km)
    return result is not None and not result.flagged_zero


COLUMNS = {
    "exact": lambda n, km: not signal_optimum(n, km).flagged_zero,
    "signal+decoys": certified_positive,
}


def frontier(positive, n: int):
    """The largest distance bisection finds positive, within ``TOL_KM`` of
    the frontier, or None where the rate is not positive at 0 km."""
    if not positive(n, 0.0):
        return None
    lo, hi = 0.0, MAX_KM
    assert not positive(n, hi), f"N={n} is positive past {MAX_KM} km"
    while hi - lo > TOL_KM:
        mid = (lo + hi) / 2.0
        lo, hi = (mid, hi) if positive(n, mid) else (lo, mid)
    return lo


def frontier_table() -> str:
    lines = [",".join(["N", *(f"{name}_km" for name in COLUMNS)])]
    for n in PARTIES:
        cells = (frontier(positive, n) for positive in COLUMNS.values())
        lines.append(",".join([str(n), *("none" if km is None else str(km) for km in cells)]))
    return "\n".join(lines) + "\n"


def test_frontier_table():
    assert frontier_table() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("column", list(COLUMNS))
@pytest.mark.parametrize("n", [3, 5])
def test_feasibility_falls_once_with_distance(n, column):
    # bisection finds the frontier only where a rate, once infeasible,
    # stays infeasible farther out
    positive = COLUMNS[column]
    grid = [positive(n, GRID_KM * i) for i in range(int(MAX_KM / GRID_KM) + 1)]
    k = grid.count(True)
    assert k > 0 and grid == [True] * k + [False] * (len(grid) - k)
    assert GRID_KM * (k - 1) - TOL_KM < frontier(positive, n) < GRID_KM * k


def test_certified_cells_stay_below_the_exact_rate():
    cells = {n: km for n in PARTIES if (km := frontier(certified_positive, n)) is not None}
    assert cells
    for n, km in cells.items():
        best, ch = certified_optimum(n, km).best_params, bench_channel_at(km)
        assert 0.0 < rate_lower(best, ch).rate <= rate_pmqcc(best, ch).rate
