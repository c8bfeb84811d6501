import pytest

from pmqcc import (
    BranchSpec,
    BranchTopology,
    EnumerationLimitError,
    ParameterError,
    branch_gain_avg,
    phase_error_rate,
    yield_probability,
)
from tests.enumeration import (
    branchwise_phase_error,
    enumerated_gain,
    enumerated_phase_error,
    enumerated_yields,
    parity_split,
    poisson_weight,
    truncation_order,
)


def sym3(eta=0.065, pd=7.2e-8, mu=0.1333):
    return BranchTopology.symmetric(3, mu, eta, pd)


class TestBranchSpec:
    def test_from_arms_balanced(self):
        b = BranchSpec.from_arms(0.05, 0.1, 0.05, 0.1)
        assert b.virtual_intensity == pytest.approx(0.1)
        assert b.survival == pytest.approx(0.1)
        assert b.arrival_intensity == pytest.approx(0.01)

    def test_from_arms_unbalanced_rejected(self):
        with pytest.raises(ParameterError):
            BranchSpec.from_arms(0.05, 0.1, 0.05, 0.2)

    def test_reduced_arm_matches_symmetric_arrival(self):
        # boundary arm (mu at eta/2) against interior arm (mu/2 at eta)
        mu, eta = 0.1059, 0.065
        reduced = BranchSpec.from_arms(mu, eta / 2.0, mu / 2.0, eta)
        symmetric = BranchSpec(virtual_intensity=mu, survival=eta)
        assert reduced.arrival_intensity == pytest.approx(symmetric.arrival_intensity, rel=1e-12)
        # same arrival -> same branch gain
        assert branch_gain_avg(reduced.arrival_intensity, 1e-7) == pytest.approx(
            branch_gain_avg(symmetric.arrival_intensity, 1e-7), rel=1e-12
        )
        # but a larger virtual source
        assert reduced.virtual_intensity == pytest.approx(1.5 * mu)


class TestYieldProbability:
    def test_no_photons_no_darks(self):
        topo = BranchTopology.symmetric(3, 0.1, 0.065, 0.0)
        assert yield_probability(topo, 0) == 0.0

    def test_single_photon_cannot_fire_two_branches(self):
        topo = BranchTopology.symmetric(3, 0.1, 0.065, 0.0)
        assert yield_probability(topo, 1) == pytest.approx(0.0, abs=1e-16)

    def test_two_photons_split_assignment(self):
        topo = BranchTopology.symmetric(3, 0.1, 0.065, 0.0)
        assert yield_probability(topo, 2) == pytest.approx(0.5 * 0.065**2, rel=1e-12)

    def test_three_photons_frozen(self):
        assert yield_probability(sym3(), 3) == pytest.approx(0.006131555778478324, rel=1e-12)
        assert yield_probability(sym3(), 3) == pytest.approx(6.13e-3, rel=1e-3)

    def test_enumeration_cap(self):
        topo = BranchTopology.symmetric(6, 0.1, 0.065, 0.0)
        with pytest.raises(EnumerationLimitError):
            yield_probability(topo, 100, term_cap=1000)

    def test_domain(self):
        with pytest.raises(ParameterError):
            yield_probability(sym3(), -1)


class TestClosedFormAgainstEnumeration:
    @pytest.mark.parametrize("pd", [0.0, 1e-7, 1e-3])
    @pytest.mark.parametrize("n,eta", [(2, 0.3), (3, 0.065), (4, 0.01)])
    def test_symmetric_topologies(self, n, eta, pd):
        topo = BranchTopology.symmetric(n, 0.12, eta, pd)
        assert phase_error_rate(topo) == pytest.approx(
            enumerated_phase_error(topo), rel=1e-9, abs=5e-14
        )

    def test_reduced_topology(self):
        topo = BranchTopology.chain(3, 0.1059, 0.065, 7.2e-8, (False, True))
        assert phase_error_rate(topo) == pytest.approx(
            enumerated_phase_error(topo), rel=1e-9, abs=5e-14
        )

    def test_two_party_closed_form(self):
        # single branch, no darks: Y_k = 1 - (1-s)^k exactly
        s, t = 0.21, 0.2
        topo = BranchTopology.symmetric(2, t, s, 0.0)
        odd = even = 0.0
        for k in range(31):
            expected = 1.0 - (1.0 - s) ** k
            assert yield_probability(topo, k) == pytest.approx(expected, rel=1e-12, abs=1e-15)
            if k % 2:
                odd += poisson_weight(t, k) * expected
            else:
                even += poisson_weight(t, k) * expected
        assert phase_error_rate(topo) == pytest.approx(odd / (odd + even), rel=1e-12, abs=1e-15)

    def test_monotone_in_k_without_darks(self):
        for topo in (
            BranchTopology.symmetric(3, 0.1333, 0.065, 0.0),
            BranchTopology.chain(4, 0.2, 0.1, 0.0, (True, False)),
        ):
            ys = enumerated_yields(topo)
            assert all(b - a >= -1e-12 for a, b in zip(ys, ys[1:]))


class TestYieldTable:
    """The enumeration reference's photon-number cutoff."""

    def test_truncation_rule(self):
        topo = sym3()
        t = topo.total_virtual_intensity
        assert t == pytest.approx(0.2666)
        k_max = len(enumerated_yields(topo)) - 1
        assert k_max == truncation_order(t)
        assert k_max >= 30
        assert 1.0 - sum(poisson_weight(t, k) for k in range(k_max + 1)) < 1e-12

    def test_yields_within_unit_interval(self):
        assert all(0.0 <= y <= 1.0 for y in enumerated_yields(sym3()))


class TestGainFromYields:
    def test_all_zero_yields(self):
        # nothing arrives and nothing fires in the dark: every Y_k is 0
        topo = BranchTopology.symmetric(3, 0.1333, 0.0, 0.0)
        assert enumerated_gain(topo) == 0.0

    def test_symmetric_matches_branch_product(self):
        gain = enumerated_gain(sym3())
        assert gain == pytest.approx(7.442881336925948e-05, rel=1e-12)
        analytic = branch_gain_avg(0.065 * 0.1333, 7.2e-8) ** 2
        assert gain == pytest.approx(analytic, rel=2e-3)

    def test_reduced_topology_value(self):
        topo = BranchTopology.chain(3, 0.1059, 0.065, 7.2e-8, (False, True))
        gain = enumerated_gain(topo)
        assert gain == pytest.approx(4.7059675437706726e-05, rel=1e-12)
        assert gain == pytest.approx(4.71e-5, rel=1e-3)

    @pytest.mark.parametrize("mu", [0.05, 0.1333, 0.3])
    @pytest.mark.parametrize("eta", [0.0065, 0.065, 0.5])
    @pytest.mark.parametrize("pd", [0.0, 1e-7])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_oracle_analytic_equivalence(self, mu, eta, pd, n):
        topo = BranchTopology.symmetric(n, mu, eta, pd)
        analytic = branch_gain_avg(eta * mu, pd) ** (n - 1)
        assert enumerated_gain(topo) == pytest.approx(analytic, rel=5e-3)


class TestPhaseErrorRate:
    def test_symmetric_value(self):
        e_x = phase_error_rate(sym3())
        assert e_x == pytest.approx(0.20152964345524804, rel=1e-12)
        assert e_x == pytest.approx(0.202, abs=1e-3)

    def test_single_branch_low_intensity_limit(self):
        # N=2, p_d=0, mu -> 0: the single-photon term dominates both sums
        topo = BranchTopology.symmetric(2, 1e-6, 0.3, 0.0)
        assert phase_error_rate(topo) > 0.999

    def test_dark_count_floor_is_parity_mass(self):
        # survivals ~ 0 with darks on: every Y_k collapses to Y_0
        topo = BranchTopology.symmetric(3, 0.1333, 1e-9, 1e-5)
        assert phase_error_rate(topo) == pytest.approx(parity_split(0.2666).p_odd, rel=1e-3)

    @pytest.mark.parametrize("boundaries", [(False, False), (False, True), (True, True)])
    def test_zero_survival_is_exact_parity_mass(self, boundaries):
        # survival 0: only dark counts fire, at the chain's own virtual intensity
        topo = BranchTopology.chain(4, 0.1333, 0.0, 1e-5, boundaries)
        expected = parity_split(topo.total_virtual_intensity).p_odd
        assert phase_error_rate(topo) == pytest.approx(expected, rel=1e-12)

    def test_zero_denominator_rejected(self):
        topo = BranchTopology.symmetric(3, 0.1333, 0.0, 0.0)
        with pytest.raises(ParameterError):
            phase_error_rate(topo)

    def test_reduced_value(self):
        topo = BranchTopology.chain(3, 0.1059, 0.065, 7.2e-8, (False, True))
        assert phase_error_rate(topo) == pytest.approx(0.201493586093893, rel=1e-12)


def bench_eta(distance):
    return 0.65 * 10.0 ** (-0.02 * distance)


class TestPhaseErrorAcrossDomain:
    """The closed form against sums of nonnegative terms where an
    alternating-sign evaluation cancels: many branches, long distances,
    vanishing dark counts."""

    LAYOUTS = [None, (False, True), (True, True)]

    @staticmethod
    def topology(n, distance, pd, layout, mu=0.13):
        if layout is None:
            return BranchTopology.symmetric(n, mu, bench_eta(distance), pd)
        return BranchTopology.chain(n, mu, bench_eta(distance), pd, layout)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("distance", [100.0, 150.0, 200.0, 300.0])
    @pytest.mark.parametrize("n", [5, 7, 12])
    def test_many_branches_long_distance(self, n, distance, layout):
        topo = self.topology(n, distance, 7.2e-8, layout)
        assert phase_error_rate(topo) == pytest.approx(branchwise_phase_error(topo), rel=1e-9)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("distance", [120.0, 200.0])
    def test_five_party_against_composition_enumeration(self, distance, layout):
        topo = self.topology(5, distance, 7.2e-8, layout)
        assert phase_error_rate(topo) == pytest.approx(enumerated_phase_error(topo), rel=1e-9)

    @pytest.mark.parametrize("distance", [200.0, 250.0, 300.0])
    @pytest.mark.parametrize("n", [3, 5])
    def test_composition_enumeration_keeps_every_digit(self, n, distance):
        # the enumerated branch factor 1 - (1-2p_d)(1-s)^n must not cancel
        # at small survival s: both references are sums of nonnegative terms
        topo = self.topology(n, distance, 7.2e-8, None)
        assert enumerated_phase_error(topo) == pytest.approx(branchwise_phase_error(topo), rel=1e-14)

    @pytest.mark.parametrize("pd", [1e-10, 1e-13, 1e-16, 0.0])
    @pytest.mark.parametrize("n,distance", [(3, 200.0), (5, 150.0), (7, 120.0)])
    def test_vanishing_dark_counts(self, n, distance, pd):
        topo = self.topology(n, distance, pd, (False, True))
        assert phase_error_rate(topo) == pytest.approx(branchwise_phase_error(topo), rel=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reference_oracles_agree(self, n):
        topo = self.topology(n, 150.0, 1e-7, (True, False))
        assert branchwise_phase_error(topo) == pytest.approx(enumerated_phase_error(topo), rel=1e-9)

    def test_hundreds_of_branches(self):
        topo = self.topology(200, 50.0, 7.2e-8, (True, True))
        assert phase_error_rate(topo) == pytest.approx(branchwise_phase_error(topo), rel=1e-9)
