"""Tests for fidelity, phase-aligned distance, and the Monte Carlo harnesses."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from directwf import (
    DimensionMismatchError,
    SystemState,
    VanishingTildePsiError,
    fidelity,
    make_system_state,
    momentum_zero_state,
    phase_aligned_l2,
    reconstruct_exact,
    run_trials,
    sampled_reconstruction,
    theta_sweep,
)
from oracles import random_system, trial_statistics_loop


class TestFidelity:
    def test_self(self):
        s = make_system_state([0.3, 0.4j, -0.5])
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        s = SystemState(random_system(rng, 6))
        for alpha in (0.3, 1.7, -2.2):
            rotated = SystemState(s.amplitudes * np.exp(1j * alpha))
            assert fidelity(s, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(make_system_state([1, 0]), make_system_state([0, 1])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity(momentum_zero_state(2), momentum_zero_state(3))


class TestPhaseAlignedL2:
    def test_identical(self):
        s = momentum_zero_state(4)
        assert phase_aligned_l2(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        a = make_system_state([1, 0])
        b = make_system_state([0, 1])
        assert phase_aligned_l2(a, b) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_half_overlap(self):
        a = make_system_state([1, 0])
        b = make_system_state([0.5, np.sqrt(0.75)])
        assert phase_aligned_l2(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            a = SystemState(random_system(rng, d))
            b = SystemState(random_system(rng, d))
            l2 = phase_aligned_l2(a, b)
            f = fidelity(a, b)
            assert l2 == pytest.approx(np.sqrt(2 - 2 * np.sqrt(f)), abs=1e-12)

    def test_is_minimum_over_phases(self):
        rng = np.random.default_rng(7)
        a = SystemState(random_system(rng, 5))
        b = SystemState(random_system(rng, 5))
        closed = phase_aligned_l2(a, b)
        grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        brute = min(
            np.linalg.norm(a.amplitudes - np.exp(1j * alpha) * b.amplitudes)
            for alpha in grid
        )
        assert closed <= brute + 1e-9
        assert closed == pytest.approx(brute, abs=1e-4)


class TestRunTrialsExact:
    def test_no_noise(self):
        psi = momentum_zero_state(4)
        stats = run_trials(psi, np.pi / 2, "exact", trials=10, seed=1)
        assert stats.rmse_l2 < 1e-9
        assert stats.std_l2 == 0.0
        assert stats.failed_trials == 0
        assert stats.shots_total == "exact"

    def test_matches_reconstruct_exact(self):
        rng = np.random.default_rng(13)
        psi = SystemState(random_system(rng, 6, min_amp_sum=0.3))
        stats = run_trials(psi, 0.7, "exact", trials=5, seed=1)
        direct = reconstruct_exact(psi, 0.7)
        assert stats.mean_fidelity == fidelity(direct.estimate, psi)

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            run_trials(momentum_zero_state(2), 0.5, "exact", trials=1, seed=0)


class TestRunTrialsSampled:
    def test_uniform_budget_and_fidelity(self):
        psi = momentum_zero_state(4)
        stats = run_trials(psi, np.pi / 2, 300000, trials=100, seed=11)
        assert stats.mean_fidelity > 0.999
        assert stats.failed_trials == 0
        assert stats.trials == 100
        assert stats.shots_total == 300000

    def test_determinism(self):
        psi = momentum_zero_state(3)
        a = run_trials(psi, 1.0, 9000, trials=50, seed=17)
        b = run_trials(psi, 1.0, 9000, trials=50, seed=17)
        assert a == b
        c = run_trials(psi, 1.0, 9000, trials=50, seed=18)
        assert a != c

    def test_bias_variance_decomposition(self):
        rng = np.random.default_rng(19)
        psi = SystemState(random_system(rng, 5, min_amp_sum=0.5))
        stats = run_trials(psi, 1.2, 30000, trials=80, seed=23)
        assert stats.rmse_l2**2 == pytest.approx(
            stats.bias_l2**2 + stats.std_l2**2, abs=1e-9
        )

    def test_failed_trials_reported_and_excluded(self):
        # amplitude sum sits near the sampled raw-norm floor, so a fraction
        # of trials must trip VanishingTildePsi while the rest survive
        psi = make_system_state([1.0, -0.45])
        stats = run_trials(psi, np.pi / 2, 300, trials=60, seed=29)
        assert 0 < stats.failed_trials < 60

    def test_all_trials_failing_raises(self):
        psi = make_system_state([1.0, -0.999])
        with pytest.raises(VanishingTildePsiError):
            run_trials(psi, np.pi / 2, 300, trials=10, seed=31)


class TestRunTrialsMemory:
    @pytest.mark.parametrize("d, trials", [(1024, 256), (64, 4096), (16384, 16)])
    def test_peak_per_trial_position(self, d, trials):
        # below 96 B per (trial, position), cli.MAX_TRIAL_POSITIONS = 2**23
        # stays under 1 GiB; a (trials, d, 3, 3) counts stack would need 72 B more
        rng = np.random.default_rng(d)
        psi = SystemState(random_system(rng, d, min_amp_sum=0.5))
        tracemalloc.start()
        try:
            stats = run_trials(psi, np.pi / 2, 100 * 3 * d, trials, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.failed_trials == 0
        assert peak < 96 * d * trials


class TestRunTrialsMatchesLoop:
    """The one-pass run_trials against the per-trial loop in tests/oracles.py."""

    @staticmethod
    def assert_matches(psi, theta, shots_total, trials, seed):
        stats = dataclasses.asdict(run_trials(psi, theta, shots_total, trials, seed))
        reference = trial_statistics_loop(psi, theta, shots_total, trials, seed)
        assert stats.keys() == reference.keys()
        for name, expected in reference.items():
            if isinstance(expected, float):
                assert stats[name] == pytest.approx(expected, rel=0, abs=1e-12), name
            else:
                assert stats[name] == expected, name
        return stats

    @pytest.mark.parametrize("theta", [0.3, 0.7, np.pi / 2])
    def test_exact(self, theta):
        rng = np.random.default_rng(47)
        psi = SystemState(random_system(rng, 6, min_amp_sum=0.3))
        self.assert_matches(psi, theta, "exact", 5, 1)
        self.assert_matches(momentum_zero_state(4), theta, "exact", 2, 0)

    @pytest.mark.parametrize("d", [2, 4, 32])
    def test_sampled(self, d):
        rng = np.random.default_rng(53 + d)
        psi = SystemState(random_system(rng, d, min_amp_sum=0.5))
        for theta in (0.4, np.pi / 2):
            self.assert_matches(psi, theta, 3000 * d, 25, 59)

    def test_some_trials_failing(self):
        stats = self.assert_matches(make_system_state([1.0, -0.45]), np.pi / 2, 300, 60, 29)
        assert 0 < stats["failed_trials"] < 60

    def test_all_trials_failing(self):
        psi = make_system_state([1.0, -0.999])
        with pytest.raises(VanishingTildePsiError):
            run_trials(psi, np.pi / 2, 300, trials=10, seed=31)
        with pytest.raises(VanishingTildePsiError):
            trial_statistics_loop(psi, np.pi / 2, 300, 10, 31)


class TestSampledReconstruction:
    def test_shots_used_metadata(self):
        psi = momentum_zero_state(4)
        result = sampled_reconstruction(psi, np.pi / 2, 1202, seed=1)
        assert isinstance(result.shots_used, tuple)
        assert len(result.shots_used) == 12
        assert sum(result.shots_used) == 1202

    def test_reproducible(self):
        psi = momentum_zero_state(4)
        a = sampled_reconstruction(psi, np.pi / 2, 6000, seed=3)
        b = sampled_reconstruction(psi, np.pi / 2, 6000, seed=3)
        np.testing.assert_array_equal(a.estimate.amplitudes, b.estimate.amplitudes)


class TestThetaSweep:
    def test_single_angle_matches_run_trials(self):
        psi = momentum_zero_state(4)
        swept = theta_sweep(psi, [1.0], 12000, trials=20, seed=37)
        direct = run_trials(psi, 1.0, 12000, trials=20, seed=37)
        assert len(swept) == 1
        assert swept[0] == direct

    def test_exact_mode_all_noiseless(self):
        psi = momentum_zero_state(4)
        for stats in theta_sweep(psi, [0.1, 1.0, np.pi / 2], "exact", trials=5, seed=0):
            assert stats.rmse_l2 < 1e-9

    def test_strong_beats_weak(self):
        psi = momentum_zero_state(4)
        weak, strong = theta_sweep(psi, [0.1, np.pi / 2], 300000, trials=50, seed=41)
        assert strong.rmse_l2 < weak.rmse_l2

    def test_monotone_precision_in_theta(self):
        # rmse nonincreasing across increasing theta, up to 2 standard errors
        psi = momentum_zero_state(4)
        stats = theta_sweep(psi, [0.1, 0.5, 1.0, np.pi / 2], 60000, trials=200, seed=43)
        for lo, hi in zip(stats, stats[1:]):
            slack = 2 * np.hypot(lo.rmse_se, hi.rmse_se)
            assert hi.rmse_l2 <= lo.rmse_l2 + slack
