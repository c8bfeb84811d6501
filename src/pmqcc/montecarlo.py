"""Round-level simulation of the conferencing protocol with an honest
measurement station: random phases, bits and slice indices, detector
click sampling from the coherent-state model, slice-based sifting with
reference-deviation compensation, and bit-flip cooperation.

Sampling model: exact thinning, so that random draws go to the rounds
that can succeed.  A round succeeds only when every one of the N-1
branches gets exactly one click.  A branch's one-click probability
p_one(phi) is at most c = (1-p_d)(1 - e^-a + 2 p_d e^-a), its value at
phi = 0, so each chunk of ``CHUNK_SIZE`` rounds draws

1. the sifted count: all rounds under ``mode="forced-matching"``,
   Binomial(rounds, (2/M)^(N-1)) under ``mode="full-random"``;
2. the candidate count K ~ Binomial(sifted, c^(N-1));
3. bits, in-slice phases and half-slice offsets for the K candidates
   only.  Given that a round sifts, its slice indices follow the
   forced-matching law whatever the mode: the first is uniform and each
   next one sits comp or comp + M/2 slices on.  Branch l of a candidate
   clicks once when u_l c < p_one(phi_l), and on the R port when
   u_l c < p_R-only(phi_l), with one uniform u_l per branch.

The click probabilities are the coherent-state ones at the exact arrival
phase difference (bits, slice positions and reference deviations all
included), so the tallies are exact in distribution for the honest
device, and a chunk costs O(K N) draws rather than O(rounds N).
Rounds where some branch has zero or two clicks are discarded, not
errors.

A success is counted once, under one id: bit l holds branch l's R
click and bit l + N - 1 whether that click is the wrong port.  Each
thread of ``run_rounds`` draws steps 1-2 of its chunks and counts their
successes per id in one dict of its own, so a run holds only the ids
that occur; ``run_rounds`` merges the dicts and decodes the L/R pattern
counts and the per-pair errors from the ids.  The numpy kernel's ids
are int64, which caps N at 32.  The kernels differ only in their
candidate draws (step 3) and streams: both call one click model,
``_branch_probability``, on ``math`` or on numpy arrays.  A run whose E[K] =
rounds (2/M)^(N-1) c^(N-1) (the sifting factor under
``mode="full-random"`` only) is below
``_numpy_threshold(N, chunks)`` takes the stdlib kernel, which never
imports numpy: on ``random.Random((chunk << 64) | seed)`` it draws one
candidate at a time and drops it at its first failing branch.  A branch
reads one per-key row: its steps, its turn and the id bits of each port.
It squeezes each branch's decision: the click probabilities depend on
the phase only through x = cos^2(phi/2), a per-run table brackets both
on each of ``BRACKET_CELLS`` cells of x, and the exact
``_branch_probability`` runs only when the branch's uniform falls inside
a bracket (~0.1 % of branches at N=3, 10 km), so a branch costs one
``cos`` and two lookups, and every decision, and so every tally, is the
one the exact probabilities give.  The others take the numpy kernel,
which draws all K candidates as arrays on
``default_rng(SeedSequence(seed, spawn_key=(chunk,)))``.  A chunk's
stream depends on (seed, chunk index) alone, so no tally depends on the
worker count.  Only the numpy kernel, which releases the interpreter
lock inside its array calls, spreads chunks over a thread pool.

``tally_expectation`` is the exact expectation of the tallies under the
same click model: a transfer-matrix chain over the parties' in-slice
positions, each integrated with a Gauss-Legendre rule, in plain Python.

``mode="forced-matching"`` records the analytic sifting probability
(2/M)^(N-1) so rate-level estimates stay unbiased; it gives
(M/2)^(N-1) times more sifted rounds per sent round than raw sifting.

A run's one record is its ``SimTally``; its ``gain`` and ``pair_qbers``
properties are the empirical estimates, read from its counts.
"""

import functools
import math
import operator
import os
import random

from .core import ChannelParams, InsufficientDataError, ParameterError, ProtocolParams, Record, transmittance

__all__ = ["SimConfig", "SimTally", "run_rounds", "tally_expectation"]

CHUNK_SIZE = 1 << 16

# The kernels' cost difference, fitted to `simulate` process times on 2
# cores with the bracket-squeezed stdlib kernel (N=3-4, 6-6114 chunks,
# E[K] 40k-160k): numpy costs ~0.16 s more to import plus ~70 us more per
# chunk, and the stdlib kernel ~0.5 us more per candidate branch.  So the
# crossover grows with the chunk count and falls as 1/(N-1):
# NUMPY_CANDIDATES is its E[K] at N=3 with few chunks, and NUMPY_CHUNKS
# the chunk count whose extra numpy call overhead matches the import.
NUMPY_CANDIDATES = 150_000
NUMPY_CHUNKS = 2_000

# cells of the stdlib kernel's bracket table; even, so that x = 1/2 is a
# cell edge, and a power of 2, so that the edges i / K are exact
BRACKET_CELLS = 1024

MODES = ("full-random", "forced-matching")


class SimConfig(Record):
    """Run parameters for the round-level simulator.

    ``reference_offsets`` are the per-adjacent-pair physical deviations
    of the phase reference (radians); ``compensation_indices`` are the
    adjusted slice indices the sifting rule applies to cancel them.  A
    deviation delta is fully compensated by j_a = round(-delta M / 2 pi):
    the simulator takes the indices as given and lets the tests verify
    the compensation property rather than searching for them.
    """

    __slots__ = ("rounds", "seed", "mode", "reference_offsets", "compensation_indices")

    _defaults = {"mode": "forced-matching", "reference_offsets": (), "compensation_indices": ()}

    def _check(self) -> None:
        if not isinstance(self.rounds, int) or self.rounds < 1:
            raise ParameterError(f"rounds must be a positive integer, got {self.rounds}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError("seed must be a 64-bit nonnegative integer")
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        object.__setattr__(self, "reference_offsets", tuple(float(x) for x in self.reference_offsets))
        object.__setattr__(self, "compensation_indices", tuple(int(x) for x in self.compensation_indices))


class SimTally(Record):
    """Counts accumulated over the rounds of one run; ``run_rounds``
    decodes ``pattern_counts`` (successes per L/R pattern that occurred)
    and ``pair_errors`` from its per-id success counts.  Its count dicts
    make it unhashable; each tally gets its own unless the caller passes
    them."""

    __slots__ = (
        "n_parties", "slice_count", "sent", "sifted", "success", "pattern_counts", "pair_errors",
        "sifting_probability", "seed", "mode",
    )

    _defaults = {
        "sent": 0, "sifted": 0, "success": 0, "pattern_counts": None, "pair_errors": None,
        "sifting_probability": 1.0, "seed": 0, "mode": "forced-matching",
    }

    def _check(self) -> None:
        if self.pattern_counts is None:
            object.__setattr__(self, "pattern_counts", {})
        if self.pair_errors is None:
            object.__setattr__(self, "pair_errors", {})

    def _successes(self) -> int:
        if self.sifted == 0 or self.success == 0:
            raise InsufficientDataError("tally holds no successful events to estimate from")
        return self.success

    @property
    def gain(self) -> float:
        """Successes per sifted round, a point estimate with no interval:
        ``simulate`` gives its distance from ``tally_expectation`` in
        binomial standard errors."""
        return self._successes() / self.sifted

    @property
    def pair_qbers(self) -> dict:
        """{p: the share of successes where party p disagrees with party 1}
        for p = 2..N, point estimates like ``gain``.  There is no
        phase-error estimate: the phase error is a counterfactual X-basis
        quantity with no empirical estimator in this simulation."""
        success = self._successes()
        return {p: self.pair_errors.get(p, 0) / success for p in range(2, self.n_parties + 1)}


def _branch_probability(arrival: float, log_nodark: float, phase_delta, lib=math) -> tuple:
    """P(exactly one click) and P(only R clicks) of a branch at encoded
    phase difference ``phase_delta``, given log(1 - p_d), on ``lib``:
    ``math`` for one phase, ``numpy`` for an array of them."""
    cos_half = lib.cos(phase_delta / 2.0)
    sin_half = lib.sin(phase_delta / 2.0)
    return _click_probabilities(arrival, log_nodark, cos_half * cos_half, sin_half * sin_half, lib)


def _click_probabilities(arrival: float, log_nodark: float, cos_sq, sin_sq, lib=math) -> tuple:
    """P(exactly one click) and P(only R clicks) of a branch whose L port
    receives ``arrival * cos_sq`` photons on average and its R port
    ``arrival * sin_sq``, on ``lib``'s ``exp`` and ``expm1``; every click
    term is an expm1, so nothing cancels at small arrival or small phase
    difference."""
    left_exponent = log_nodark - arrival * cos_sq
    right_exponent = log_nodark - arrival * sin_sq
    right_only = lib.exp(left_exponent) * -lib.expm1(right_exponent)
    left_only = lib.exp(right_exponent) * -lib.expm1(left_exponent)
    return left_only + right_only, right_only


def _bracket_table(arrival: float, log_nodark: float) -> list:
    """Brackets of a branch's click probabilities on the ``BRACKET_CELLS``
    cells of x = cos^2(phi/2): entry i holds (low, high) bounds on p_one
    and then on p_right for x in [i/K, (i+1)/K], and entry K repeats
    entry K-1, so that int(x K) indexes every x in [0, 1].

    The probabilities depend on phi only through x (the R port receives
    a (1 - x)).  p_right falls as x grows, and p_one is convex in x with
    its minimum at x = 1/2, a cell edge since K is even, so on each cell
    both lie between their values at the cell's edges.  The bounds are
    widened by 1e-9 relative, far more than the rounding of the
    exponentials (below 1e-12 relative), and by 1e-12 a + 1e-300
    absolute: ``_branch_probability`` reads sin^2(phi/2), not 1 - x, and
    the two differ by ~1e-15, which moves a probability by at most
    ~1e-15 a, and a subnormal probability is off by whole units of its
    last place."""
    k = BRACKET_CELLS
    edges = [_click_probabilities(arrival, log_nodark, i / k, (k - i) / k) for i in range(k + 1)]
    margin = 1e-12 * arrival + 1e-300
    low, high = 1.0 - 1e-9, 1.0 + 1e-9
    table = [
        (
            min(one_a, one_b) * low - margin,
            max(one_a, one_b) * high + margin,
            right_b * low - margin,
            right_a * high + margin,
        )
        for (one_a, right_a), (one_b, right_b) in zip(edges, edges[1:])
    ]
    table.append(table[-1])
    return table


def _candidate_bound(arrival: float, dark_count: float) -> float:
    """Tight upper bound c on a branch's one-click probability over all
    phases.  With silent probabilities s_L, s_R, P(one click) =
    s_L + s_R - 2 s_L s_R, where s_L s_R = (1-p_d)^2 e^-a does not depend
    on the phase and s_L + s_R is convex in cos^2(phi/2), so the maximum
    is the value at phi = 0: c = (1-p_d)(1 - e^-a + 2 p_d e^-a)."""
    return (1.0 - dark_count) * (-math.expm1(-arrival) + 2.0 * dark_count * math.exp(-arrival))


def _numpy_threshold(n_parties: int, n_chunks: int) -> float:
    """Expected candidate count at and above which a run of
    ``n_chunks`` chunks takes the numpy kernel."""
    return NUMPY_CANDIDATES * 2.0 / (n_parties - 1) * (1.0 + n_chunks / NUMPY_CHUNKS)


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """An exact Binomial(n, p) draw: geometric waiting times between
    successes when n p < 10, otherwise Hoermann's BTRS transformed
    rejection with squeeze (J. Statist. Comput. Simul. 46, 101-110, 1993),
    the algorithm of ``random.binomialvariate`` from Python 3.12 on."""
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    uniform = rng.random
    if n * p < 10.0:
        log_q = math.log1p(-p)
        successes = trials = 0
        while True:
            # 1 - uniform() lies in (0, 1], so its log exists
            trials += math.floor(math.log(1.0 - uniform()) / log_q) + 1
            if trials > n:
                return successes
            successes += 1

    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    lpq = math.log(p / (1.0 - p))
    mode = math.floor((n + 1) * p)
    h = math.lgamma(mode + 1) + math.lgamma(n - mode + 1)
    while True:
        u = uniform() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -1/2, the one point where the transform diverges
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - uniform()  # in (0, 1], so log(v) below exists
        if us >= 0.07 and v <= v_r:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - mode) * lpq:
            return k


def _stdlib_setting(m: int, arrival: float, dark_count: float, deviations: tuple, comp: tuple) -> tuple:
    """What ``_draw_stdlib`` reads of a run, built once per run: arrival,
    log(1 - p_d), the slice phase 2 pi / M, one row per branch and key,
    and the bracket table.  Bit 2q of a candidate's draws is party q's
    bit and bit 2l + 1 branch l's half-slice offset, so branch l reads
    key = b_l + 2 h_l + 4 b_{l+1}; its row ``key`` holds its whole-slice
    step, its turn pi (b_{l+1} - b_l) plus the reference deviation, and
    the id bits that an L and an R click set: bit l for R, and the
    wrong-port bit l + N - 1 when the port (L = 0, R = 1) differs from
    the parity of b_l + h_l + b_{l+1}."""
    branches = tuple(
        tuple(
            (
                shift + ((key >> 1) & 1) * (m // 2),
                math.pi * ((key >> 2) - (key & 1)) + deviation,
                1 << (l + len(comp)) if key.bit_count() & 1 else 0,
                1 << l if key.bit_count() & 1 else 1 << l | 1 << (l + len(comp)),
            )
            for key in range(8)
        )
        for l, (shift, deviation) in enumerate(zip(comp, deviations))
    )
    log_nodark = math.log1p(-dark_count)
    return arrival, log_nodark, 2.0 * math.pi / m, branches, _bracket_table(arrival, log_nodark)


def _draw_stdlib(
    rng: random.Random,
    n_cand: int,
    n: int,
    bound: float,
    tally: dict,
    arrival: float,
    log_nodark: float,
    slice_phase: float,
    branches: tuple,
    table: list,
) -> None:
    """The candidates one at a time, each dropped at its first branch
    that does not click exactly once; ``tally`` counts the successes per
    id.  A branch's uniform is compared with its cell's brackets first;
    ``_branch_probability`` runs only when the uniform falls inside one,
    so every decision is the one the exact probabilities give."""
    cos, cells = math.cos, BRACKET_CELLS
    uniform, getrandbits, get = rng.random, rng.getrandbits, tally.get
    for _ in range(n_cand):
        draws = getrandbits(2 * n - 1)
        position = uniform()
        found = 0
        for rows in branches:
            step, turn, left_bits, right_bits = rows[draws & 7]
            draws >>= 2
            following = uniform()
            phase_delta = (step + following - position) * slice_phase + turn
            cos_half = cos(phase_delta / 2.0)
            one_low, one_high, right_low, right_high = table[int(cos_half * cos_half * cells)]
            scaled = uniform() * bound
            if scaled >= one_high:
                break
            if scaled >= one_low or right_low <= scaled < right_high:
                p_one, p_right = _branch_probability(arrival, log_nodark, phase_delta)
                if scaled >= p_one:
                    break
                right = scaled < p_right
            else:
                right = scaled < right_low
            found |= right_bits if right else left_bits
            position = following
        else:
            tally[found] = get(found, 0) + 1


def _draw_numpy(
    rng,
    n_cand: int,
    n: int,
    bound: float,
    tally: dict,
    m: int,
    arrival: float,
    log_nodark: float,
    deviations,
    comp,
) -> None:
    """The candidates as arrays, their successes counted per id into
    ``tally``; ``rng`` is a numpy ``Generator``, and ``deviations`` and
    ``comp`` are numpy arrays.  Slice p+1 sits comp_p or comp_p + M/2
    slices after slice p; the absolute slice index shifts each phase
    difference by whole turns only, so it is not drawn."""
    import numpy as np

    half_offset = rng.integers(0, 2, (n - 1, n_cand))
    bits = rng.integers(0, 2, (n, n_cand))
    in_slice = rng.random((n, n_cand))
    slice_steps = comp[:, None] + half_offset * (m // 2) + in_slice[1:] - in_slice[:-1]
    phase_delta = (
        slice_steps * (2.0 * math.pi / m)
        + math.pi * (bits[1:] - bits[:-1])
        + deviations[:, None]
    )
    p_one, p_right = _branch_probability(arrival, log_nodark, phase_delta, np)
    # a candidate branch clicks once with probability p_one / c; given
    # that, scaled is uniform on [0, p_one), so it fell below p_right with
    # probability P(R | one click)
    scaled = rng.random((n - 1, n_cand)) * bound
    success = np.all(scaled < p_one, axis=0)
    # branch l sets bit l of a success's id when it clicked R, and bit
    # l + N - 1 when R-click + b_l + h_l + b_{l+1} is odd (the wrong port)
    r_click = (scaled < p_right)[:, success]
    wrong = r_click ^ ((bits[1:] + half_offset + bits[:-1]) % 2)[:, success]
    weights = 1 << np.arange(n - 1)
    ids, counts = np.unique(weights @ r_click | (weights @ wrong) << (n - 1), return_counts=True)
    get = tally.get
    for key, count in zip(ids.tolist(), counts.tolist()):
        tally[key] = get(key, 0) + count


def run_rounds(
    pp: ProtocolParams, ch: ChannelParams, sc: SimConfig, workers: int = 1
) -> SimTally:
    """Simulate ``sc.rounds`` rounds and tally sifting, successes,
    detector patterns and per-pair errors after bit-flip cooperation.

    The slice rule needs a literal M/2 offset, so the simulator requires
    an even slice count even though the analytic pipeline accepts any M.
    """
    n, m = pp.n_parties, pp.slice_count
    if m % 2 != 0:
        raise ParameterError(f"the simulator needs an even slice count, got M={m}")
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    if n > 32:
        # a success's id takes 2 (N - 1) bits, and the numpy kernel's are int64
        raise ParameterError(f"the simulator takes at most 32 parties, got N={n}")
    deviations = sc.reference_offsets or (0.0,) * (n - 1)
    comp = sc.compensation_indices or (0,) * (n - 1)
    if len(deviations) != n - 1 or len(comp) != n - 1:
        raise ParameterError("reference_offsets and compensation_indices need one entry per adjacent pair")

    arrival = transmittance(ch) * pp.signal_intensity
    bound = _candidate_bound(arrival, ch.dark_count)
    chunks = -(-sc.rounds // CHUNK_SIZE)
    slice_match = (2.0 / m) ** (n - 1)
    sifting = slice_match if sc.mode == "full-random" else None
    candidates = sc.rounds * (1.0 if sifting is None else sifting) * bound ** (n - 1)
    stdlib = candidates < _numpy_threshold(n, chunks)
    if stdlib:
        binomial, draw = _binomial, _draw_stdlib
        setting = _stdlib_setting(m, arrival, ch.dark_count, deviations, comp)

        def stream(idx):
            return random.Random((idx << 64) | sc.seed)

    else:
        import numpy as np

        binomial, draw = np.random.Generator.binomial, _draw_numpy
        setting = (
            m, arrival, math.log1p(-ch.dark_count), np.asarray(deviations, dtype=float),
            np.asarray(comp, dtype=np.int64),
        )

        def stream(idx):
            return np.random.default_rng(np.random.SeedSequence(entropy=sc.seed, spawn_key=(idx,)))

    pooled = workers > 1 and not stdlib
    threads = min(workers, os.cpu_count() or 1) if pooled else 1

    def work(first):
        sifted, found = 0, {}
        for idx in range(first, chunks, threads):
            rng, size = stream(idx), min(CHUNK_SIZE, sc.rounds - idx * CHUNK_SIZE)
            n_sift = size if sifting is None else binomial(rng, size, sifting)
            draw(rng, binomial(rng, n_sift, bound ** (n - 1)), n, bound, found, *setting)
            sifted += n_sift
        return sifted, found

    if pooled:
        # imported here: a thread pool (~7 ms to import) serves only the
        # numpy kernel at more than one worker, on at most one per core
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, range(threads)))
    else:
        parts = [work(0)]
    sifted, found = parts[0]
    for part_sifted, part in parts[1:]:
        sifted += part_sifted
        for key, count in part.items():
            found[key] = found.get(key, 0) + count

    # bit-flip cooperation: party p disagrees with party 1 exactly when
    # the first p - 1 branches hold an odd number of wrong-port clicks,
    # bits N - 1 to N + p - 3 of the id
    pattern_counts, pair_errors = {}, dict.fromkeys(range(2, n + 1), 0)
    for key, count in found.items():
        name = "".join("LR"[key >> l & 1] for l in range(n - 1))
        pattern_counts[name] = pattern_counts.get(name, 0) + count
        odd = 0
        for p in range(2, n + 1):
            odd ^= key >> (n + p - 3) & 1
            if odd:
                pair_errors[p] += count
    return SimTally(
        n_parties=n,
        slice_count=m,
        sent=sc.rounds,
        sifted=sifted,
        success=sum(found.values()),
        pattern_counts=pattern_counts,
        pair_errors=pair_errors,
        sifting_probability=slice_match if sifting is None else 1.0,
        seed=sc.seed,
        mode=sc.mode,
    )


GAUSS_LEGENDRE_ORDER = 32


def _legendre(order: int, x: float) -> tuple:
    """P_order(x) and its derivative, by the three-term recurrence."""
    p_prev, p = 1.0, x
    for k in range(2, order + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, order * (x * p - p_prev) / (x * x - 1.0)


@functools.cache
def _gauss_legendre(order: int) -> tuple:
    """(node, weight) pairs of the order-point Gauss-Legendre rule on
    [-1, 1]: Newton's method on P_order from the usual cosine guesses."""
    rule = []
    for i in range(1, order + 1):
        x = math.cos(math.pi * (i - 0.25) / (order + 0.5))
        for _ in range(100):
            p, slope = _legendre(order, x)
            step = p / slope
            x -= step
            if abs(step) <= 1e-15:
                break
        _, slope = _legendre(order, x)
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return tuple(rule)


def tally_expectation(pp: ProtocolParams, ch: ChannelParams) -> tuple:
    """Exact expectation of the simulator's tallies at zero reference
    deviation: (success probability per sifted round, {p: probability
    that party p disagrees with party 1 given success} for p = 2..N).

    Branch l sees delta_l = (u_{l+1} - u_l) 2 pi / M plus a shift by pi
    that swaps its ports and that bit-flip cooperation undoes, so both
    quantities are means over iid uniform in-slice positions u_1..u_N of
    products of per-branch kernels in (u_l, u_{l+1}).  Each u takes the
    Gauss-Legendre rule (the kernels are analytic in the positions), and
    the chain carries the even- and odd-parity weights of the wrong-port
    clicks separately, so every term is nonnegative and nothing cancels
    at small intensities or large M.
    """
    n, m = pp.n_parties, pp.slice_count
    rule = _gauss_legendre(GAUSS_LEGENDRE_ORDER)
    weights = [w / 2.0 for _, w in rule]  # u = (1 + t) / 2
    arrival = transmittance(ch) * pp.signal_intensity
    log_nodark = math.log1p(-ch.dark_count)
    # kernel(u_i, u_j) times the weight of the next party's position u_j
    one, right = [], []
    for t_i, _ in rule:
        row = [
            _branch_probability(arrival, log_nodark, (t_j - t_i) * (math.pi / m))
            for t_j, _ in rule
        ]
        one.append([p_one * w for (p_one, _), w in zip(row, weights)])
        right.append([p_right * w for (_, p_right), w in zip(row, weights)])
    left = [[a - b for a, b in zip(row_one, row_right)] for row_one, row_right in zip(one, right)]
    # row vectors times a matrix: dot products with its columns
    left_columns, right_columns = list(zip(*left)), list(zip(*right))

    def dot(x, y):
        return sum(map(operator.mul, x, y))

    # tails[p - 2]: success of branches p..N-1 given party p's position
    tails = [[1.0] * len(weights)]
    for _ in range(n - 2):
        tails.append([dot(row, tails[-1]) for row in one])
    tails.reverse()
    even, odd = weights, [0.0] * len(weights)
    pair_errors = {}
    for p in range(2, n + 1):
        even, odd = (
            [dot(even, lc) + dot(odd, rc) for lc, rc in zip(left_columns, right_columns)],
            [dot(even, rc) + dot(odd, lc) for lc, rc in zip(left_columns, right_columns)],
        )
        wrong = dot(odd, tails[p - 2])
        success = wrong + dot(even, tails[p - 2])
        pair_errors[p] = wrong / success if success > 0.0 else 0.0
    return success, pair_errors
