import math

import pytest
from hypothesis import given, strategies as st

from pmqcc import (
    ChannelParams,
    ParameterError,
    ProtocolParams,
    binary_entropy,
    intrinsic_misalignment,
    transmittance,
)
# the Poisson helpers serve only the enumeration reference and live with it
from tests.enumeration import parity_split, poisson_weight, truncation_order


class TestBinaryEntropy:
    def test_degenerate_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_uniform_bit(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_quarter(self):
        # frozen from a 30-digit evaluation of the closed form
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328, rel=1e-14)

    @pytest.mark.parametrize("x", [-0.1, 1.1, 2.0])
    def test_domain(self, x):
        with pytest.raises(ParameterError):
            binary_entropy(x)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


class TestTransmittance:
    def test_50km(self):
        ch = ChannelParams(0.2, 50.0, 0.65, 0.0)
        assert transmittance(ch) == pytest.approx(0.065, rel=1e-14)

    def test_zero_length(self):
        ch = ChannelParams(0.2, 0.0, 0.93, 0.0)
        assert transmittance(ch) == 0.93

    def test_100km(self):
        ch = ChannelParams(0.2, 100.0, 0.65, 0.0)
        assert transmittance(ch) == pytest.approx(0.0065, rel=1e-14)


class TestParitySplit:
    def test_vacuum(self):
        ps = parity_split(0.0)
        assert ps.p_even == 1.0 and ps.p_odd == 0.0

    def test_example_value(self):
        # independent evaluation of e^-t sinh t
        ps = parity_split(0.2666)
        assert ps.p_odd == pytest.approx(0.20663777788958437, rel=1e-13)
        assert ps.p_odd == pytest.approx(0.2066, abs=5e-5)

    @given(st.floats(min_value=0.0, max_value=100.0))
    def test_sums_to_one_and_ordered(self, t):
        ps = parity_split(t)
        assert ps.p_even + ps.p_odd == 1.0  # exact by construction
        assert ps.p_even >= ps.p_odd

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            parity_split(-1e-9)


class TestPoissonWeight:
    def test_vacuum_source(self):
        assert poisson_weight(0.0, 0) == 1.0
        assert poisson_weight(0.0, 1) == 0.0
        assert poisson_weight(0.0, 7) == 0.0

    def test_example_value(self):
        assert poisson_weight(0.2666, 2) == pytest.approx(0.027221207471242966, rel=1e-13)

    def test_matches_direct_formula(self):
        for t in (0.05, 0.5, 3.0):
            for k in (0, 1, 5, 20):
                direct = math.exp(-t) * t**k / math.factorial(k)
                assert poisson_weight(t, k) == pytest.approx(direct, rel=1e-12)

    def test_large_k_stays_finite(self):
        assert 0.0 <= poisson_weight(5.0, 400) < 1e-300 or poisson_weight(5.0, 400) == 0.0

    def test_domain(self):
        with pytest.raises(ParameterError):
            poisson_weight(-0.1, 0)
        with pytest.raises(ParameterError):
            poisson_weight(1.0, -1)

    @pytest.mark.parametrize("t", [0.01, 0.2666, 1.0, 5.0, 30.0])
    def test_truncation_rule_tail(self, t):
        k_max = truncation_order(t)
        assert k_max >= t + 12.0 * math.sqrt(t) + 30.0 - 1.0
        total = sum(poisson_weight(t, k) for k in range(k_max + 1))
        assert total > 1.0 - 1e-12


class TestIntrinsicMisalignment:
    def test_m13(self):
        assert intrinsic_misalignment(13) == pytest.approx(0.006967864729711867, rel=1e-13)
        assert intrinsic_misalignment(13) == pytest.approx(6.95e-3, abs=5e-5)

    def test_large_m_limit(self):
        assert intrinsic_misalignment(10**6) < 1e-11

    def test_monotone_examples(self):
        assert intrinsic_misalignment(17) < intrinsic_misalignment(13)

    def test_strictly_decreasing_4_to_1024(self):
        values = [intrinsic_misalignment(m) for m in range(4, 1025)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_domain(self):
        with pytest.raises(ParameterError):
            intrinsic_misalignment(1)

    def test_two_slices_rejected(self):
        # e_delta(2) = 1.166 is no probability; from M = 3 on it is <= 1/2,
        # which keeps the closed-form branch QBER <= 1/2
        with pytest.raises(ParameterError, match="slice_count >= 3"):
            intrinsic_misalignment(2)
        assert intrinsic_misalignment(3) < 0.5


class TestParams:
    def test_protocol_validation(self):
        with pytest.raises(ParameterError):
            ProtocolParams(n_parties=1, signal_intensity=0.1, slice_count=13)
        with pytest.raises(ParameterError):
            ProtocolParams(n_parties=3, signal_intensity=0.0, slice_count=13)
        with pytest.raises(ParameterError):
            ProtocolParams(n_parties=3, signal_intensity=0.1, slice_count=13, ec_efficiency=0.9)
        with pytest.raises(ParameterError):
            ProtocolParams(
                n_parties=3, signal_intensity=0.1, slice_count=13, signal_phase_misalignment=0.6
            )

    def test_decoy_ordering(self):
        pp = ProtocolParams(
            n_parties=3, signal_intensity=0.1, slice_count=13,
            decoy_intensities=(0.02, 0.01, 1e-4, 0.0),
        )
        assert pp.nonzero_decoys == (0.02, 0.01, 1e-4)
        assert pp.has_vacuum_decoy
        with pytest.raises(ParameterError):
            ProtocolParams(
                n_parties=3, signal_intensity=0.1, slice_count=13,
                decoy_intensities=(0.01, 0.02),
            )
        with pytest.raises(ParameterError):
            ProtocolParams(
                n_parties=3, signal_intensity=0.1, slice_count=13,
                decoy_intensities=(0.01, 0.0, 1e-4),
            )

    def test_odd_slice_count_accepted(self):
        # the analytic pipeline takes any M >= 2; only the simulator is even-only
        ProtocolParams(n_parties=3, signal_intensity=0.1, slice_count=13)

    def test_channel_validation(self):
        with pytest.raises(ParameterError):
            ChannelParams(-0.1, 50.0, 0.65, 0.0)
        with pytest.raises(ParameterError):
            ChannelParams(0.2, -1.0, 0.65, 0.0)
        with pytest.raises(ParameterError):
            ChannelParams(0.2, 50.0, 0.0, 0.0)
        with pytest.raises(ParameterError):
            ChannelParams(0.2, 50.0, 0.65, 1.0)
        # NaN fails every comparison, so the range checks must not pass it
        with pytest.raises(ParameterError, match="loss_rate"):
            ChannelParams(math.nan, 50.0, 0.65, 0.0)
        with pytest.raises(ParameterError, match="distance"):
            ChannelParams(0.2, math.nan, 0.65, 0.0)
