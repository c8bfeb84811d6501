"""The package's records: construction, defaults, validation, immutability,
value equality and hashing, and the ``Name(field=value, ...)`` repr.

The repr strings are the ones ``dataclasses`` generates for the same
fields, which the records printed before they were plain classes."""

import copy
import inspect
import pickle

import pytest

from pmqcc import (
    ChannelParams,
    DecoyBounds,
    DecoyGains,
    EmpiricalEstimates,
    OptimizationResult,
    ParameterError,
    ProtocolParams,
    RateReport,
    SimConfig,
    SimTally,
)
from pmqcc.core import Record

PP = ProtocolParams(3, 0.1, 13)

# record class -> (positional arguments, the same as keywords, the repr),
# the positional arguments leaving every default out
CASES = {
    "ProtocolParams": (
        ProtocolParams, (3, 0.1, 13),
        {"n_parties": 3, "signal_intensity": 0.1, "slice_count": 13},
        "ProtocolParams(n_parties=3, signal_intensity=0.1, slice_count=13, ec_efficiency=1.16, "
        "decoy_intensities=(), signal_phase_misalignment=0.0)",
    ),
    "ProtocolParams-full": (
        ProtocolParams, (4, 0.05, 16, 1.1, (0.02, 0.01, 0), 0.015),
        {"n_parties": 4, "signal_intensity": 0.05, "slice_count": 16, "ec_efficiency": 1.1,
         "decoy_intensities": [0.02, 0.01, 0], "signal_phase_misalignment": 0.015},
        "ProtocolParams(n_parties=4, signal_intensity=0.05, slice_count=16, ec_efficiency=1.1, "
        "decoy_intensities=(0.02, 0.01, 0.0), signal_phase_misalignment=0.015)",
    ),
    "ChannelParams": (
        ChannelParams, (0.2, 50.0, 0.65, 7.2e-8),
        {"loss_rate": 0.2, "distance": 50.0, "detector_efficiency": 0.65, "dark_count": 7.2e-8},
        "ChannelParams(loss_rate=0.2, distance=50.0, detector_efficiency=0.65, dark_count=7.2e-08)",
    ),
    "RateReport": (
        RateReport, (2.5e-7, 1e-3, (0.01, 0.02), 0.1, 0.02),
        {"rate": 2.5e-7, "gain": 1e-3, "marginal_qbers": (0.01, 0.02), "phase_error": 0.1,
         "sifting_prefactor": 0.02},
        "RateReport(rate=2.5e-07, gain=0.001, marginal_qbers=(0.01, 0.02), phase_error=0.1, "
        "sifting_prefactor=0.02, clamped=False)",
    ),
    "DecoyGains": (
        DecoyGains, ((0.02, 0.01), (1e-4, 5e-5), 1e-14),
        {"intensities": (0.02, 0.01), "gains": (1e-4, 5e-5), "vacuum_gain": 1e-14},
        "DecoyGains(intensities=(0.02, 0.01), gains=(0.0001, 5e-05), vacuum_gain=1e-14)",
    ),
    "DecoyBounds": (
        DecoyBounds, ({2: 0.5},),
        {"y_lower": {2: 0.5}},
        "DecoyBounds(y_lower={2: 0.5}, phase_error_upper=None)",
    ),
    "OptimizationResult": (
        OptimizationResult, (PP, 1e-7, 300),
        {"best_params": PP, "best_rate": 1e-7, "evaluations": 300},
        "OptimizationResult(best_params=ProtocolParams(n_parties=3, signal_intensity=0.1, "
        "slice_count=13, ec_efficiency=1.16, decoy_intensities=(), signal_phase_misalignment=0.0), "
        "best_rate=1e-07, evaluations=300, flagged_zero=False)",
    ),
    "SimConfig": (
        SimConfig, (1000, 7),
        {"rounds": 1000, "seed": 7},
        "SimConfig(rounds=1000, seed=7, mode='forced-matching', reference_offsets=(), "
        "compensation_indices=())",
    ),
    "SimConfig-full": (
        SimConfig, (1000, 7, "full-random", [0.1, -0.2], (1.0, 0)),
        {"rounds": 1000, "seed": 7, "mode": "full-random", "reference_offsets": (0.1, -0.2),
         "compensation_indices": [1, 0]},
        "SimConfig(rounds=1000, seed=7, mode='full-random', reference_offsets=(0.1, -0.2), "
        "compensation_indices=(1, 0))",
    ),
    "EmpiricalEstimates": (
        EmpiricalEstimates, (0.5, {2: 0.1}),
        {"gain": 0.5, "pair_qbers": {2: 0.1}},
        "EmpiricalEstimates(gain=0.5, pair_qbers={2: 0.1})",
    ),
    "SimTally": (
        SimTally, (3, 14),
        {"n_parties": 3, "slice_count": 14},
        "SimTally(n_parties=3, slice_count=14, sent=0, sifted=0, success=0, pattern_counts={}, "
        "pair_errors={}, sifting_probability=1.0, seed=0, mode='forced-matching')",
    ),
}
FROZEN = list(CASES)
# records whose fields are all hashable
HASHABLE = ["ProtocolParams", "ProtocolParams-full", "ChannelParams", "RateReport", "DecoyGains",
            "OptimizationResult", "SimConfig", "SimConfig-full"]


def build(name, by_keyword=False):
    cls, args, kwargs, _ = CASES[name]
    return cls(**kwargs) if by_keyword else cls(*args)


@pytest.mark.parametrize("name", sorted(CASES))
def test_positional_and_keyword_construction_agree(name):
    assert build(name) == build(name, by_keyword=True)


@pytest.mark.parametrize("name", sorted(CASES))
def test_repr(name):
    assert repr(build(name)) == CASES[name][3]
    assert repr(build(name, by_keyword=True)) == CASES[name][3]


# calls of a case's record class that must raise TypeError (the first
# field of every record is required)
BAD_CALLS = {
    "missing-field": lambda cls, args, kwargs: cls(**dict(list(kwargs.items())[1:])),
    "unknown-keyword": lambda cls, args, kwargs: cls(**kwargs, not_a_field=1),
    "positional-and-keyword": lambda cls, args, kwargs: cls(*args, **{cls.__slots__[0]: args[0]}),
    "one-positional-too-many": lambda cls, args, kwargs: cls(*cls(*args)._values(), None),
}


@pytest.mark.parametrize("call", sorted(BAD_CALLS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_construction_errors(name, call):
    cls, args, kwargs, _ = CASES[name]
    with pytest.raises(TypeError):
        BAD_CALLS[call](cls, args, kwargs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_signature_lists_the_fields(name):
    cls = CASES[name][0]
    parameters = inspect.signature(cls).parameters.values()
    assert tuple(p.name for p in parameters) == cls.__slots__
    assert {p.name: p.default for p in parameters if p.default is not p.empty} == cls._defaults
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert cls.__init__.__module__ == cls.__module__


@pytest.mark.parametrize("defaults", [{"c": 1}, {"a": 1}, {"b": 1, "c": 2}])
def test_defaults_must_name_trailing_fields(defaults):
    with pytest.raises(TypeError):
        class Pair(Record):
            __slots__ = ("a", "b")
            _defaults = defaults


def test_defaults():
    pp = ProtocolParams(3, 0.1, 13)
    assert (pp.ec_efficiency, pp.decoy_intensities, pp.signal_phase_misalignment) == (1.16, (), 0.0)
    assert [p.default for p in inspect.signature(ProtocolParams).parameters.values()][3:] == [1.16, (), 0.0]
    assert RateReport(0.0, 0.0, (), 0.0, 1.0).clamped is False
    assert DecoyBounds({}).phase_error_upper is None
    assert OptimizationResult(None, 0.0, 0).flagged_zero is False
    sc = SimConfig(10, 1)
    assert (sc.mode, sc.reference_offsets, sc.compensation_indices) == ("forced-matching", (), ())
    tally = SimTally(3, 14)
    assert (tally.sent, tally.sifted, tally.success, tally.sifting_probability, tally.seed,
            tally.mode) == (0, 0, 0, 1.0, 0, "forced-matching")


def test_conversions():
    pp = ProtocolParams(4, 0.05, 16, decoy_intensities=[0.02, 0.01, 0])
    assert pp.decoy_intensities == (0.02, 0.01, 0.0)
    assert all(type(x) is float for x in pp.decoy_intensities)
    sc = SimConfig(10, 1, reference_offsets=[1, 0], compensation_indices=[1.0, 2.0])
    assert sc.reference_offsets == (1.0, 0.0) and type(sc.reference_offsets[0]) is float
    assert sc.compensation_indices == (1, 2) and type(sc.compensation_indices[0]) is int


@pytest.mark.parametrize("cls,args,message", [
    (ProtocolParams, (1, 0.1, 13), "n_parties must be an integer >= 2, got 1"),
    (ProtocolParams, (3.0, 0.1, 13), "n_parties must be an integer >= 2, got 3.0"),
    (ProtocolParams, (3, 0.0, 13), "signal_intensity must be > 0, got 0.0"),
    (ProtocolParams, (3, 0.1, 1), "slice_count must be an integer >= 2, got 1"),
    (ProtocolParams, (3, 0.1, 13, 0.9), "ec_efficiency must be >= 1, got 0.9"),
    (ProtocolParams, (3, 0.1, 13, 1.16, (), 0.6),
     "signal_phase_misalignment must lie in [0, 0.5], got 0.6"),
    (ProtocolParams, (3, 0.1, 13, 1.16, (0.01, 0.0, 0.001)),
     "decoy intensities must be positive (trailing 0 allowed)"),
    (ProtocolParams, (3, 0.1, 13, 1.16, (0.01, 0.02)),
     "decoy intensities must be strictly decreasing, got (0.01, 0.02)"),
    (ChannelParams, (-0.1, 50.0, 0.65, 0.0), "loss_rate must be >= 0, got -0.1"),
    (ChannelParams, (0.2, -1.0, 0.65, 0.0), "distance must be >= 0, got -1.0"),
    (ChannelParams, (0.2, 50.0, 0.0, 0.0), "detector_efficiency must lie in (0, 1], got 0.0"),
    (ChannelParams, (0.2, 50.0, 0.65, 1.0), "dark_count must lie in [0, 1), got 1.0"),
    (DecoyGains, ((0.02,), (), 0.0), "intensities and gains must align"),
    (DecoyGains, ((0.02, 0.0), (0.1, 0.1), 0.0),
     "decoy intensities must be positive; vacuum is separate"),
    (DecoyGains, ((0.01, 0.02), (0.1, 0.1), 0.0), "decoy intensities must be strictly decreasing"),
    (DecoyGains, ((0.02,), (1.5,), 0.0), "gains must lie in [0, 1]"),
    (DecoyGains, ((0.02,), (0.5,), -0.1), "gains must lie in [0, 1]"),
    (SimConfig, (0, 1), "rounds must be a positive integer, got 0"),
    (SimConfig, (10, -1), "seed must be a 64-bit nonnegative integer"),
    (SimConfig, (10, 2**64), "seed must be a 64-bit nonnegative integer"),
    (SimConfig, (10, 1, "bogus"),
     "mode must be one of ('full-random', 'forced-matching'), got 'bogus'"),
    (ChannelParams, (float("nan"), 50.0, 0.65, 0.0), "loss_rate must be >= 0, got nan"),
    (ChannelParams, (float("inf"), 0.0, 0.65, 0.0), "loss_rate must be finite, got inf"),
    (ChannelParams, (0.2, float("inf"), 0.65, 0.0), "distance must be finite, got inf"),
    (ProtocolParams, (3, float("inf"), 13), "signal_intensity must be finite, got inf"),
    (ProtocolParams, (3, 0.1, 13, float("inf")), "ec_efficiency must be finite, got inf"),
    (ProtocolParams, (3, 0.1, 13, 1.16, (float("inf"), 0.02, 0.001, 0.0)),
     "decoy intensities must be finite, got (inf, 0.02, 0.001, 0.0)"),
    (ProtocolParams, (3, 0.1, 13, 1.16, (0.05, float("nan"), 0.001, 0.0)),
     "decoy intensities must be finite, got (0.05, nan, 0.001, 0.0)"),
])
def test_validation_errors(cls, args, message):
    for build_case in (lambda: cls(*args), lambda: cls(**dict(zip(cls.__slots__, args)))):
        with pytest.raises(ParameterError) as info:
            build_case()
        assert str(info.value) == message


@pytest.mark.parametrize("name", FROZEN)
def test_frozen(name):
    record = build(name)
    field = next(iter(CASES[name][2]))
    before = repr(record)
    with pytest.raises(AttributeError):
        setattr(record, field, 1)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert repr(record) == before


def test_tally_is_unhashable():
    with pytest.raises(TypeError):
        hash(SimTally(3, 14))


def test_tallies_do_not_share_their_dicts():
    a, b = SimTally(3, 14), SimTally(3, 14)
    a.pattern_counts["LL"] = 1
    a.pair_errors[2] = 1
    assert (b.pattern_counts, b.pair_errors) == ({}, {})
    counts = {"LR": 3}
    assert SimTally(3, 14, pattern_counts=counts).pattern_counts is counts


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_equality(name):
    a, b = build(name), build(name)
    assert a is not b and a == b and not a != b
    assert a != CASES[name][1] and a != object()


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_follows_value(name):
    a, b = build(name), build(name, by_keyword=True)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_unequal_values():
    assert ProtocolParams(3, 0.1, 13) != ProtocolParams(3, 0.1, 14)
    assert ChannelParams(0.2, 50.0, 0.65, 0.0) != ChannelParams(0.2, 60.0, 0.65, 0.0)
    assert RateReport(1.0, 0.0, (), 0.0, 1.0) != RateReport(1.0, 0.0, (), 0.0, 1.0, True)
    # same values, different record: not equal
    assert OptimizationResult(None, 0.0, 1) != DecoyBounds(None, 0.0)
    assert SimTally(3, 14) != SimTally(3, 14, sent=1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_copies_and_pickles_by_value(name):
    record = build(name)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record and repr(clone) == repr(record)
