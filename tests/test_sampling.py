"""Tests for outcome distributions, multinomial sampling, and probability estimation."""

import numpy as np
import pytest

from directwf import (
    DimensionMismatchError,
    InvalidDistributionError,
    SystemState,
    UnknownLabelError,
    joint_probabilities,
    make_system_state,
    measure_probsets,
    momentum_zero_state,
)
from directwf.protocol import postselection
from directwf.sampling import (
    BASES,
    BASIS_OUTCOMES,
    CountTable,
    MeasurementSetting,
    derive_seed,
    estimate_probset,
    outcome_distribution,
    plan_settings,
    sample_counts,
    setting_distributions,
    split_budget,
)
from directwf.states import OUTCOMES, POINTER_KETS
from oracles import brute_outcome_distribution, dense_joint, random_system

BASIS_KETS = {
    basis: tuple(POINTER_KETS[OUTCOMES.index(label)] for label in labels)
    for basis, labels in BASIS_OUTCOMES.items()
}


def coupled(psi: SystemState, x: int, theta: float) -> np.ndarray:
    """(d, 2) joint state after coupling at x, from the dense oracle."""
    return dense_joint(psi.amplitudes, x, theta).reshape(-1, 2)


def column(label: str) -> int:
    return OUTCOMES.index(label)


class TestOutcomeDistribution:
    def test_basis_state_x_basis(self):
        joint = coupled(make_system_state([1, 0]), 0, np.pi / 2)
        dist = outcome_distribution(joint, "X")
        assert dist[0] == pytest.approx(0.25, abs=1e-14)
        assert dist[1] == pytest.approx(0.25, abs=1e-14)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_keeps_pointer_down(self):
        rng = np.random.default_rng(19)
        psi = SystemState(random_system(rng, 5))
        dist = outcome_distribution(coupled(psi, 2, 0.0), "Z")
        assert dist[1::2].sum() == pytest.approx(0.0, abs=1e-14)
        assert dist[0::2].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("basis", BASES)
    def test_completeness(self, basis):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(2, 33))
            psi = SystemState(random_system(rng, d))
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            dist = outcome_distribution(coupled(psi, x, theta), basis)
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert (dist >= 0.0).all()

    def test_momentum_zero_cells_match_joint_probabilities(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            psi = SystemState(random_system(rng, d))
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            joint = coupled(psi, x, theta)
            probs = joint_probabilities(psi, theta)[x]
            for basis in BASES:
                first, second = (column(label) for label in BASIS_OUTCOMES[basis])
                dist = outcome_distribution(joint, basis)
                assert dist[0] == pytest.approx(probs[first], abs=1e-14)
                assert dist[1] == pytest.approx(probs[second], abs=1e-14)

    @pytest.mark.parametrize("basis", BASES)
    def test_matches_brute_force_projection(self, basis):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            psi = SystemState(random_system(rng, d))
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            joint = coupled(psi, x, theta)
            np.testing.assert_allclose(
                outcome_distribution(joint, basis),
                brute_outcome_distribution(joint.ravel(), d, BASIS_KETS[basis]),
                atol=1e-13,
            )

    def test_unknown_basis(self):
        joint = coupled(momentum_zero_state(2), 0, 0.5)
        with pytest.raises(UnknownLabelError):
            outcome_distribution(joint, "W")
        with pytest.raises(DimensionMismatchError):
            outcome_distribution(joint.ravel(), "X")

    def test_setting_distributions_match_per_setting(self):
        rng = np.random.default_rng(39)
        psi = SystemState(random_system(rng, 6))
        dists = setting_distributions(psi, 0.8)
        for x, per_x in enumerate(dists):
            for basis in BASES:
                np.testing.assert_allclose(
                    per_x[basis], outcome_distribution(coupled(psi, x, 0.8), basis), atol=1e-15
                )


class TestSampleCounts:
    def test_degenerate_distribution(self):
        dist = np.zeros(8)
        dist[0] = 1.0
        table = sample_counts(dist, 500, seed=9)
        assert table.counts[0, 0] == 500
        assert table.counts.sum() == 500

    def test_deterministic_for_fixed_seed(self):
        dist = np.full(8, 0.125)
        a = sample_counts(dist, 1000, seed=42)
        b = sample_counts(dist, 1000, seed=42)
        assert np.array_equal(a.counts, b.counts)
        c = sample_counts(dist, 1000, seed=43)
        assert not np.array_equal(a.counts, c.counts)

    def test_uniform_cells_within_five_sigma(self):
        n = 10**6
        dist = np.full(4, 0.25)
        table = sample_counts(dist, n, seed=7)
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(table.counts.ravel() - n * 0.25) < 5 * sigma)

    def test_total_matches_shots(self):
        table = sample_counts(np.full(6, 1 / 6), 1234, seed=0)
        assert table.total == 1234
        assert int(table.counts.sum()) == 1234

    def test_invalid_distribution_rejected(self):
        with pytest.raises(InvalidDistributionError):
            sample_counts(np.array([0.5, 0.6, -0.1, 0.0]), 10, seed=1)
        with pytest.raises(InvalidDistributionError):
            sample_counts(np.array([0.3, 0.3, 0.3, 0.3]), 10, seed=1)

    def test_bad_shots(self):
        with pytest.raises(ValueError):
            sample_counts(np.full(4, 0.25), 0, seed=1)


class TestEstimateProbset:
    def _tables(self, d, counts_by_basis, totals):
        tables = []
        for basis in BASES:
            counts = np.zeros((d, 2), dtype=np.int64)
            counts[0, 0], counts[0, 1] = counts_by_basis[basis]
            counts[1, 0] = totals[basis] - counts[0, 0] - counts[0, 1]
            tables.append(CountTable(counts, total=totals[basis]))
        return tables

    def test_frequency_definition(self):
        totals = {"X": 1000, "Y": 1000, "Z": 1000}
        counts = {"X": (250, 100), "Y": (50, 75), "Z": (300, 200)}
        p = estimate_probset(*self._tables(3, counts, totals))
        np.testing.assert_allclose(p, [0.25, 0.10, 0.30, 0.20, 0.05, 0.075])

    def test_zero_momentum_cells_give_zero_set(self):
        totals = {"X": 100, "Y": 100, "Z": 100}
        counts = {"X": (0, 0), "Y": (0, 0), "Z": (0, 0)}
        p = estimate_probset(*self._tables(2, counts, totals))
        assert postselection(p) == 0.0

    def test_dimension_mismatch(self):
        a = CountTable(np.array([[5, 5], [0, 0]]), total=10)
        b = CountTable(np.array([[5, 5], [0, 0], [0, 0]]), total=10)
        with pytest.raises(DimensionMismatchError):
            estimate_probset(a, a, b)

    def test_large_sample_convergence(self):
        n = 10**7
        rng = np.random.default_rng(59)
        psi = SystemState(random_system(rng, 3, min_amp_sum=0.3))
        theta = 1.0
        joint = coupled(psi, 1, theta)
        exact = joint_probabilities(psi, theta)[1]
        tables = [
            sample_counts(outcome_distribution(joint, basis), n, seed=derive_seed(59, bi))
            for bi, basis in enumerate(BASES)
        ]
        estimated = estimate_probset(*tables)
        bound = 5 * np.sqrt(np.maximum(exact, 1e-12) / n)
        assert (np.abs(estimated - exact) < bound).all()


class TestSeedsAndBudgets:
    def test_derive_seed_is_stable(self):
        # frozen value documents the cross-run stability contract
        assert derive_seed(0, 0, 0, 0) == derive_seed(0, 0, 0, 0)
        assert derive_seed(1, 2, 3) != derive_seed(1, 2, 4)
        assert 0 <= derive_seed(123, "trial", 7) < 2**64

    def test_split_budget_even(self):
        assert split_budget(12, 6) == [2, 2, 2, 2, 2, 2]

    def test_split_budget_remainder_to_lowest(self):
        assert split_budget(14, 6) == [3, 3, 2, 2, 2, 2]

    def test_split_budget_too_small(self):
        with pytest.raises(ValueError):
            split_budget(5, 6)

    def test_plan_settings_order_and_totals(self):
        settings = plan_settings(2, 100)
        assert [(s.x, s.basis) for s in settings] == [
            (0, "X"), (0, "Y"), (0, "Z"), (1, "X"), (1, "Y"), (1, "Z"),
        ]
        assert sum(s.shots for s in settings) == 100
        assert all(s.shots >= 1 for s in settings)

    def test_measurement_setting_validation(self):
        with pytest.raises(UnknownLabelError):
            MeasurementSetting(0, "Q", 10)
        with pytest.raises(ValueError):
            MeasurementSetting(0, "X", 0)


class TestMeasureProbsets:
    def test_shapes_and_reproducibility(self):
        psi = momentum_zero_state(4)
        first, settings = measure_probsets(psi, np.pi / 2, 1200, seed=5)
        second, _ = measure_probsets(psi, np.pi / 2, 1200, seed=5)
        assert first.shape == (4, 6)
        assert len(settings) == 12
        np.testing.assert_array_equal(first, second)
        different, _ = measure_probsets(psi, np.pi / 2, 1200, seed=6)
        assert not np.array_equal(first, different)

    def test_trials_use_disjoint_streams(self):
        psi = momentum_zero_state(4)
        t0, _ = measure_probsets(psi, np.pi / 2, 1200, seed=5, trial=0)
        t1, _ = measure_probsets(psi, np.pi / 2, 1200, seed=5, trial=1)
        assert (t0 != t1).any()


class TestStatisticalProperties:
    def test_unbiasedness(self):
        # mean over many repetitions stays within five standard errors
        reps = 1000
        n = 10**4
        rng_seed = 97
        psi = momentum_zero_state(4)
        theta = np.pi / 2
        exact = joint_probabilities(psi, theta)[0]
        dist = outcome_distribution(coupled(psi, 0, theta), "X")
        estimates = np.empty(reps)
        for r in range(reps):
            table = sample_counts(dist, n, seed=derive_seed(rng_seed, r))
            estimates[r] = table.counts[0, 0] / n
        p = exact[column("plus")]
        se = np.sqrt(p * (1 - p) / n / reps)
        assert abs(estimates.mean() - p) < 5 * se

    def test_shot_noise_scaling(self):
        # std of the estimated probability must follow 1/sqrt(N)
        reps = 400
        psi = momentum_zero_state(4)
        theta = np.pi / 2
        dist = outcome_distribution(coupled(psi, 0, theta), "X")
        stds = []
        shots = [10**3, 10**4, 10**5]
        for n in shots:
            vals = np.empty(reps)
            for r in range(reps):
                table = sample_counts(dist, n, seed=derive_seed(101, n, r))
                vals[r] = table.counts[0, 0] / n
            stds.append(vals.std())
        slope = np.polyfit(np.log(shots), np.log(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
        for n, std in zip(shots, stds):
            p = dist[0]
            assert std == pytest.approx(np.sqrt(p * (1 - p) / n), rel=0.2)
