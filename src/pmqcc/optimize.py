"""Protocol-parameter optimization at fixed channel parameters.

``optimize_signal`` runs a deterministic coordinate search: an exhaustive
integer grid over the slice count M (all integers, since the analytic
prefactor and misalignment accept odd M) and, per M, a coarse log grid
over the signal intensity followed by golden-section refinement.  The
coarse grid protects the refinement from the zero-rate plateaus that
surround the feasible window.  Each evaluation calls the two steps of the
float rate kernel: the intensity terms (gain, phase error and its
entropy), kept per intensity for the whole search and shared by every
M, and the slice step with the constants hoisted per M.  The optimum is
re-evaluated through the full rate report.

``optimize_decoys`` maximizes the certified rate lower bound over the
decoy intensity triple-or-more in log space by coordinate descent from a
few fixed starting points (``START_DRAWS``, a table of seeded uniform
draws); configurations rejected by the estimator as degenerate count as
rate 0 and are never returned as optima.
"""

from __future__ import annotations

import math

from .core import ChannelParams, ProtocolParams, Record, transmittance
from .decoy import n_cut_for, rate_lower
from .errors import DegenerateGeometryError, ParameterError
from .keyrate import check_objective, intensity_terms, objective_rate, rate_constants, slice_rate

# not called here: re-exported for callers that reach the objectives'
# rates through this module (bench/test_bench.py)
from .keyrate import rate_pmqcc, rate_pmqcc_star, rate_reduced  # noqa: F401

__all__ = ["OptimizationResult", "optimize_signal", "check_decoy_search", "optimize_decoys"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# signal-intensity search window, golden-section tolerance, and the size
# of the geometric grid that brackets the maximum
MU_BOUNDS = (1e-3, 1.0)
MU_TOL = 1e-4
COARSE_POINTS = 40
# np.geomspace(*MU_BOUNDS, COARSE_POINTS) element for element, as numpy's
# AVX-512 path computes it (its baseline path puts index 34 one ulp
# higher): computing it as 10.0 ** y instead misses one point by an ulp,
# and that moves the last bit of some optima
COARSE_GRID = (
    0.001, 0.001193776641714437, 0.0014251026703029977, 0.0017012542798525892,
    0.002030917620904735, 0.0024244620170823282, 0.0028942661247167516, 0.003455107294592218,
    0.004124626382901352, 0.004923882631706742, 0.0058780160722749115, 0.00701703828670383,
    0.008376776400682925, 0.01, 0.01193776641714437, 0.014251026703029985,
    0.017012542798525893, 0.020309176209047358, 0.024244620170823284, 0.028942661247167517,
    0.0345510729459222, 0.04124626382901352, 0.04923882631706741, 0.05878016072274915,
    0.07017038286703829, 0.0837677640068292, 0.1, 0.1193776641714437,
    0.14251026703029993, 0.17012542798525893, 0.2030917620904737, 0.24244620170823283,
    0.28942661247167517, 0.3455107294592222, 0.4124626382901352, 0.49238826317067413,
    0.5878016072274912, 0.701703828670383, 0.8376776400682924, 1.0,
)

# the first draws of np.random.default_rng(1000 + r).random(), one row per
# decoy-search restart r and enough columns for n_cut + 1 = 17 decoys
# (N up to 17); a uniform draw on [lo, hi) is lo + (hi - lo) * u, as
# numpy's ``Generator.uniform`` forms it
START_DRAWS = (
    (
        0.5213857379750627, 0.6038418470063296, 0.47094179732225394, 0.20324794254467882,
        0.5287590256200526, 0.19103628008078877, 0.2815455986418517, 0.753681552191594,
        0.5516717767312141, 0.8637220757083885, 0.8053722209059218, 0.24837266320613882,
        0.18985741208154028, 0.9839955818921721, 0.669997165946232, 0.2803828299787884,
        0.20391323427420127,
    ),
    (
        0.6125949285699509, 0.01570046782033152, 0.18768957688192967, 0.8578900645411249,
        0.07619863426781426, 0.20109024444542412, 0.6301009993730667, 0.09856213352097432,
        0.1522044045102997, 0.180245007412709, 0.13192838801799178, 0.9841169795989557,
        0.7651532111809396, 0.2534679147405474, 0.4906209837894989, 0.21108273486122675,
        0.3604854515944512,
    ),
    (
        0.3808211594831159, 0.35718933767094696, 0.7476123170681911, 0.38949191910491154,
        0.3371311867995367, 0.554894529529624, 0.1872184016645808, 0.11965237903687864,
        0.8403498245850005, 0.40270005746530324, 0.9288514529982621, 0.3479132017067148,
        0.36595373947252063, 0.9897526888083057, 0.28307656046435514, 0.03207083178596193,
        0.0028255507531961266,
    ),
    (
        0.18775736826863343, 0.2567058102188221, 0.4946793271888513, 0.6607915574841853,
        0.7521128616760768, 0.7230978681396768, 0.34043719950408013, 0.5975405884981562,
        0.9705771125120725, 0.7067041404667089, 0.21703473546567242, 0.14070030939509937,
        0.7071974956272638, 0.8628907711700844, 0.3895257185114104, 0.1147605781444323,
        0.5355834505973794,
    ),
    (
        0.0008804527407150209, 0.13015131212763142, 0.13847736529859134, 0.38065463694723745,
        0.6206738048579876, 0.8370927679159851, 0.1254923400595731, 0.5604766674384422,
        0.2742495749428059, 0.8249869948303966, 0.6417502375516123, 0.2147086462298886,
        0.040505797944109245, 0.49154688173231653, 0.32468899969820975, 0.9652799312740642,
        0.7795759694794436,
    ),
    (
        0.08221917306789372, 0.9305620423886036, 0.28728402836777045, 0.6385580486204986,
        0.8347927245440864, 0.9767220034530403, 0.16223470409015794, 0.4968046547787116,
        0.7168271350015637, 0.3400036898999208, 0.9445920280003571, 0.17058751922898674,
        0.6677887054445794, 0.49619036492748114, 0.44706273567756794, 0.9538245535877294,
        0.7441875504175591,
    ),
    (
        0.33692143357282445, 0.6008569437996548, 0.2978312994091755, 0.23757244469557315,
        0.7997698561657394, 0.3350451551953154, 0.4057733892628195, 0.3564356821708432,
        0.6748539437214829, 0.4889456292110227, 0.862911430993872, 0.7718655057460044,
        0.08301935328642807, 0.4650098122549452, 0.7949388617915114, 0.019964608734050038,
        0.3988515156947806,
    ),
    (
        0.07122493746088576, 0.8159803451779433, 0.6429285129186573, 0.19659524482764845,
        0.58881879351667, 0.8953371516183265, 0.45118085966884813, 0.19761857359999602,
        0.35799034086206927, 0.04295899793272917, 0.8164435390130385, 0.48487600844533596,
        0.8089745570459012, 0.5596728145224117, 0.9725927077497662, 0.8326644376288705,
        0.6057085812983306,
    ),
)
DECOY_RESTARTS = 3


def _uniform(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


class OptimizationResult(Record):
    """Best parameters found, the rate re-evaluated exactly there, and
    the number of objective evaluations.  ``flagged_zero`` marks a search
    that found no positive rate (``best_params`` is then None)."""

    __slots__ = ("best_params", "best_rate", "evaluations", "flagged_zero")

    def __init__(
        self,
        best_params: ProtocolParams | None,
        best_rate: float,
        evaluations: int,
        flagged_zero: bool = False,
    ):
        super().__init__(best_params, best_rate, evaluations, flagged_zero)


def _golden_refine(obj, lo: float, hi: float, tol: float):
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    evals = 0
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = obj(c), obj(d)
    evals += 2
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = obj(d)
        evals += 1
    x = (a + b) / 2.0
    return x, obj(x), evals + 1


def _maximize_scalar(obj):
    """Coarse geometric bracket over ``MU_BOUNDS`` followed by
    golden-section refinement to ``MU_TOL``."""
    grid = COARSE_GRID
    vals = [obj(x) for x in grid]
    evals = COARSE_POINTS
    i = max(range(COARSE_POINTS), key=vals.__getitem__)  # the first maximum
    if vals[i] <= 0.0:
        return None, 0.0, evals
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, COARSE_POINTS - 1)]
    x, fx, extra = _golden_refine(obj, left, right, MU_TOL)
    if vals[i] > fx:
        x, fx = grid[i], vals[i]
    return x, fx, evals + extra


def optimize_signal(
    ch: ChannelParams,
    n_parties: int,
    objective: str = "pmqcc",
    *,
    ec_efficiency: float = 1.16,
    signal_phase_misalignment: float = 0.0,
    boundaries: tuple = (False, True),
    m_values=range(4, 65),
) -> OptimizationResult:
    """Maximize the key rate over (signal intensity, slice count).

    For the starred objective the slice count is irrelevant (prefactor 1,
    misalignment from the signal-mode parameter), so only the intensity
    is searched.
    """
    check_objective(objective)
    sliced = objective != "pmqcc-star"
    ends = boundaries if objective == "reduced" else (False, False)
    eta = transmittance(ch)

    def params(mu: float, m: int) -> ProtocolParams:
        return ProtocolParams(
            n_parties=n_parties,
            signal_intensity=mu,
            slice_count=m,
            ec_efficiency=ec_efficiency,
            signal_phase_misalignment=signal_phase_misalignment,
        )

    evaluations = 0
    best = (0.0, None, None)  # rate, mu, M
    # mu -> intensity terms: every M scores the same coarse grid, and
    # golden-section paths of adjacent M coincide for a while
    terms_at = {}

    slice_grid = list(m_values) if sliced else [13]
    for m in slice_grid:
        # validates the fixed parameters and M once, as every rate at M would
        prefactor, misalignment = rate_constants(params(MU_BOUNDS[1], m), sliced)

        def rate_at(mu: float) -> float:
            terms = terms_at.get(mu)
            if terms is None:
                terms = terms_at[mu] = intensity_terms(n_parties, mu, ch.dark_count, eta, ends)
            raw = slice_rate(terms, ec_efficiency, prefactor, misalignment, sliced)[0]
            return max(raw, 0.0)

        mu, rate, used = _maximize_scalar(rate_at)
        evaluations += used
        if mu is not None and rate > best[0]:
            best = (rate, mu, m)

    if best[1] is None:
        return OptimizationResult(
            best_params=None, best_rate=0.0, evaluations=evaluations, flagged_zero=True
        )
    best_params = params(best[1], best[2])
    return OptimizationResult(
        best_params=best_params,
        best_rate=objective_rate(objective, best_params, ch, boundaries).rate,
        evaluations=evaluations,
    )


def check_decoy_search(n_parties: int, restarts: int = DECOY_RESTARTS) -> None:
    """Raise ``ParameterError`` unless ``START_DRAWS`` has a row for every
    restart and a column for every decoy of an N-party search."""
    if restarts > len(START_DRAWS):
        raise ParameterError(f"restarts must be at most {len(START_DRAWS)}, got {restarts}")
    n_decoys = n_cut_for(n_parties) + 1
    if n_decoys > len(START_DRAWS[0]):
        raise ParameterError(
            f"the decoy search covers up to {len(START_DRAWS[0])} decoys, "
            f"N={n_parties} needs {n_decoys}"
        )


def optimize_decoys(
    ch: ChannelParams,
    n_parties: int,
    signal_intensity: float,
    slice_count: int,
    *,
    ec_efficiency: float = 1.16,
    restarts: int = DECOY_RESTARTS,
    sweeps: int = 25,
) -> OptimizationResult:
    """Maximize the certified rate lower bound over the decoy intensities
    (ordering constraints enforced, vacuum always appended).

    Log-space coordinate descent with shrinking line searches, restarted
    from fixed seed-derived starting points; deterministic.
    """
    check_decoy_search(n_parties, restarts)
    n_decoys = n_cut_for(n_parties) + 1

    def params(decoys) -> ProtocolParams:
        return ProtocolParams(
            n_parties=n_parties,
            signal_intensity=signal_intensity,
            slice_count=slice_count,
            ec_efficiency=ec_efficiency,
            decoy_intensities=tuple(decoys) + (0.0,),
        )

    evaluations = 0

    def objective(log_xs) -> float:
        nonlocal evaluations
        xs = [math.exp(v) for v in log_xs]
        if any(hi <= lo * (1.0 + 2e-3) for hi, lo in zip(xs, xs[1:])) or xs[0] >= signal_intensity:
            return 0.0
        evaluations += 1
        try:
            return rate_lower(params(xs), ch).rate
        except DegenerateGeometryError:
            return 0.0

    def starting_points():
        mu = signal_intensity
        for u in START_DRAWS[:restarts]:
            xs = [mu / _uniform(2.0, 8.0, u[0])]
            for q in u[1:n_decoys - 1]:
                xs.append(xs[-1] / _uniform(1.3, 3.0, q))
            xs.append(xs[-1] / _uniform(20.0, 400.0, u[n_decoys - 1]))
            yield [math.log(x) for x in xs]

    best_rate, best_xs = 0.0, None
    for log_xs in starting_points():
        current = objective(log_xs)
        step = 0.5
        for _ in range(sweeps):
            improved = False
            for i in range(n_decoys):
                for delta in (step, -step):
                    trial = list(log_xs)
                    trial[i] += delta
                    val = objective(trial)
                    if val > current:
                        log_xs, current = trial, val
                        improved = True
            if not improved:
                step /= 2.0
                if step < 1e-4:
                    break
        if current > best_rate:
            best_rate, best_xs = current, [math.exp(v) for v in log_xs]

    if best_xs is None:
        return OptimizationResult(
            best_params=None, best_rate=0.0, evaluations=evaluations, flagged_zero=True
        )
    best_pp = params(best_xs)
    return OptimizationResult(
        best_params=best_pp, best_rate=rate_lower(best_pp, ch).rate, evaluations=evaluations
    )
