"""Foundational parameter records and scalar functions.

Conventions used throughout the package:

* Distances in km, fiber loss in dB/km.  The transmittance folds the
  detector efficiency into the channel, so detectors downstream are unit
  efficiency threshold detectors with dark counts.
* ``signal_intensity`` is the mean photon number an *interior* party
  emits; the two chain-end parties emit half of it.  The total virtual
  intensity of the N-party interference network is then (N-1)*mu.
* Entropies are binary, in bits, with the 0*log0 = 0 convention.
* Errors: ``ParameterError`` covers invalid inputs (domain violations,
  malformed configuration); every other ``PMQCCError`` signals a failure
  *during* an otherwise well-posed computation.  The CLI maps the two
  groups onto distinct exit codes.
"""

from __future__ import annotations

import math

__all__ = [
    "PMQCCError",
    "ParameterError",
    "DegenerateGeometryError",
    "InsufficientIntensitiesError",
    "InsufficientDataError",
    "Record",
    "ProtocolParams",
    "ChannelParams",
    "binary_entropy",
    "transmittance",
    "intrinsic_misalignment",
]

_LN2 = math.log(2.0)

# the rate objectives of ``keyrate.objective_rate``, the command line and
# the signal optimizer
OBJECTIVES = ("pmqcc", "pmqcc-star", "reduced")


class PMQCCError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(PMQCCError, ValueError):
    """A parameter is outside its physical or structural domain."""


class DegenerateGeometryError(PMQCCError, ArithmeticError):
    """Decoy intensities too close, too small or too large for a safe
    yield bound: a rung's combination, its scale or its dot is past the
    float range."""


class InsufficientIntensitiesError(PMQCCError, ValueError):
    """Not enough decoy intensities to run the requested estimation ladder."""


class InsufficientDataError(PMQCCError, RuntimeError):
    """A tally holds too few events to support the requested estimate."""


class Record:
    """Base of the package's records.

    A record names its fields, in order, in ``__slots__``, and its
    ``__init__`` passes their values to ``Record.__init__`` in that order
    before it validates them.  Records are immutable (assignment raises
    ``AttributeError``), compare and hash by value, and print as
    ``Name(field=value, ...)``.  ``dataclasses`` would generate the same
    methods, but importing it and decorating a class cost more than the
    rate a CLI process computes.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ProtocolParams(Record):
    """Protocol-side knobs: party count, intensities, phase slices.

    ``decoy_intensities`` is a strictly decreasing tuple; a trailing 0.0
    (vacuum decoy) is allowed.  ``slice_count`` may be odd: the closed-form
    slice misalignment behind the sliced rates accepts any integer M >= 3,
    the round-level simulator (which needs a literal M/2 slice offset)
    any even M >= 2, and the starred rate ignores M.
    """

    __slots__ = (
        "n_parties", "signal_intensity", "slice_count", "ec_efficiency", "decoy_intensities",
        "signal_phase_misalignment",
    )

    def __init__(
        self,
        n_parties: int,
        signal_intensity: float,
        slice_count: int,
        ec_efficiency: float = 1.16,
        decoy_intensities: tuple = (),
        signal_phase_misalignment: float = 0.0,
    ):
        super().__init__(
            n_parties, signal_intensity, slice_count, ec_efficiency, decoy_intensities,
            signal_phase_misalignment,
        )
        if not isinstance(self.n_parties, int) or self.n_parties < 2:
            raise ParameterError(f"n_parties must be an integer >= 2, got {self.n_parties}")
        if not self.signal_intensity > 0.0:
            raise ParameterError(f"signal_intensity must be > 0, got {self.signal_intensity}")
        if self.signal_intensity == math.inf:
            raise ParameterError(f"signal_intensity must be finite, got {self.signal_intensity}")
        if not isinstance(self.slice_count, int) or self.slice_count < 2:
            raise ParameterError(f"slice_count must be an integer >= 2, got {self.slice_count}")
        if not self.ec_efficiency >= 1.0:
            raise ParameterError(f"ec_efficiency must be >= 1, got {self.ec_efficiency}")
        if self.ec_efficiency == math.inf:
            raise ParameterError(f"ec_efficiency must be finite, got {self.ec_efficiency}")
        if not 0.0 <= self.signal_phase_misalignment <= 0.5:
            raise ParameterError(
                f"signal_phase_misalignment must lie in [0, 0.5], got {self.signal_phase_misalignment}"
            )
        decoys = tuple(float(x) for x in self.decoy_intensities)
        object.__setattr__(self, "decoy_intensities", decoys)
        for i, x in enumerate(decoys):
            trailing_vacuum = i == len(decoys) - 1 and x == 0.0
            if x < 0.0 or (x == 0.0 and not trailing_vacuum):
                raise ParameterError("decoy intensities must be positive (trailing 0 allowed)")
            if not math.isfinite(x):
                raise ParameterError(f"decoy intensities must be finite, got {decoys}")
        if any(a <= b for a, b in zip(decoys, decoys[1:])):
            raise ParameterError(f"decoy intensities must be strictly decreasing, got {decoys}")

    @property
    def nonzero_decoys(self) -> tuple:
        return tuple(x for x in self.decoy_intensities if x > 0.0)

    @property
    def has_vacuum_decoy(self) -> bool:
        return bool(self.decoy_intensities) and self.decoy_intensities[-1] == 0.0


class ChannelParams(Record):
    """Symmetric channel model: every party sits ``distance`` km from the
    measurement station over fiber with ``loss_rate`` dB/km."""

    __slots__ = ("loss_rate", "distance", "detector_efficiency", "dark_count")

    def __init__(self, loss_rate: float, distance: float, detector_efficiency: float, dark_count: float):
        super().__init__(loss_rate, distance, detector_efficiency, dark_count)
        for name in ("loss_rate", "distance"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ParameterError(f"{name} must be >= 0, got {value}")
            if value == math.inf:
                raise ParameterError(f"{name} must be finite, got {value}")
        if not 0.0 < self.detector_efficiency <= 1.0:
            raise ParameterError(
                f"detector_efficiency must lie in (0, 1], got {self.detector_efficiency}"
            )
        if not 0.0 <= self.dark_count < 1.0:
            raise ParameterError(f"dark_count must lie in [0, 1), got {self.dark_count}")


def _xlogx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def binary_entropy(x: float) -> float:
    """H(x) = -x log2 x - (1-x) log2 (1-x), total on [0, 1].  Near x = 1/2
    the rounded sum can come out 1 ulp above 1, the maximum, so it is
    capped there."""
    if not 0.0 <= x <= 1.0:
        raise ParameterError(f"binary_entropy requires x in [0, 1], got {x}")
    return min(-(_xlogx(x) + _xlogx(1.0 - x)) / _LN2, 1.0)


def transmittance(ch: ChannelParams) -> float:
    """Per-party transmittance eta = eta_d * 10^(-alpha L / 10)."""
    return ch.detector_efficiency * 10.0 ** (-ch.loss_rate * ch.distance / 10.0)


def intrinsic_misalignment(slice_count: int) -> float:
    """Effective phase misalignment from coarse phase slicing,
    e_delta(M) = pi/M - (M^2/pi^2) sin^3(pi/M); decays like pi^3/(2 M^3).

    Defined for M >= 3 only: e_delta(2) = 1.166 is not a probability, and
    the closed-form branch QBER stays <= 1/2 exactly when e_delta <= 1/2.
    """
    if not isinstance(slice_count, int) or slice_count < 3:
        raise ParameterError(
            f"the closed-form slice misalignment needs slice_count >= 3, got {slice_count}"
        )
    m = float(slice_count)
    return math.pi / m - (m * m / math.pi**2) * math.sin(math.pi / m) ** 3
