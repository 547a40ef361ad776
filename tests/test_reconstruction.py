"""Tests for the probability-to-amplitude inversion."""

import math

import numpy as np
import pytest

from directwf import (
    CouplingStrength,
    DegenerateAngleError,
    DimensionMismatchError,
    InvalidParameterError,
    SystemState,
    VanishingTildePsiError,
    fidelity,
    joint_probabilities,
    make_system_state,
    momentum_zero_state,
    phase_convention,
    reconstruct,
    reconstruct_exact,
)
from directwf.reconstruction import (
    RAW_NORM_FLOOR,
    normalize_rows,
    raw_amplitude,
    raw_norm_floor,
)
from directwf.sampling import measure_probsets, split_budget
from oracles import random_system


class TestRawAmplitude:
    def test_occupied_position(self):
        p = [0.25, 0.25, 0.0, 0.5, 0.25, 0.25]
        assert raw_amplitude(p, np.pi / 2) == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_empty_position(self):
        p = [0.25, 0.25, 0.5, 0.0, 0.25, 0.25]
        assert raw_amplitude(p, np.pi / 2) == pytest.approx(0.0 + 0j, abs=1e-14)

    def test_balanced_set_yields_zero(self):
        p = [0.2, 0.2, 0.4, 0.0, 0.2, 0.2]
        assert raw_amplitude(p, 1.0) == 0j

    @pytest.mark.parametrize("theta", [0.0, 1e-12, np.pi, np.pi - 1e-12])
    def test_degenerate_angle(self, theta):
        p = [0.25, 0.25, 0.0, 0.5, 0.25, 0.25]
        with pytest.raises(DegenerateAngleError):
            raw_amplitude(p, theta)

    def test_scaling_all_entries_scales_output(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            base = rng.uniform(0.0, 1.0 / 6.0, size=6)
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            reference = raw_amplitude(base, theta)
            for lam in (0.25, 0.5, 1.0):
                scaled = raw_amplitude(lam * base, theta)
                np.testing.assert_allclose(scaled, lam * reference, rtol=1e-12, atol=1e-15)

    def test_affine_in_each_entry(self):
        # the increment from bumping one entry must not depend on the base set
        rng = np.random.default_rng(67)
        theta = 0.9
        delta = 0.05
        for idx in range(6):
            base_a = rng.uniform(0.0, 0.1, size=6)
            base_b = rng.uniform(0.0, 0.1, size=6)
            bumped_a = base_a.copy()
            bumped_a[idx] += delta
            bumped_b = base_b.copy()
            bumped_b[idx] += delta
            inc_a = raw_amplitude(bumped_a, theta) - raw_amplitude(base_a, theta)
            inc_b = raw_amplitude(bumped_b, theta) - raw_amplitude(base_b, theta)
            np.testing.assert_allclose(inc_a, inc_b, atol=1e-14)

    def test_table_matches_row_by_row(self):
        rng = np.random.default_rng(69)
        table = rng.uniform(0.0, 0.2, size=(7, 6))
        per_row = [raw_amplitude(row, 0.7) for row in table]
        np.testing.assert_array_equal(raw_amplitude(table, 0.7), per_row)


class TestReconstruct:
    def test_basis_state(self):
        psi = make_system_state([1, 0])
        result = reconstruct(joint_probabilities(psi, np.pi / 2), np.pi / 2)
        np.testing.assert_allclose(result.estimate.amplitudes, [1, 0], atol=1e-12)
        assert result.tilde_psi_magnitude == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 1.1, np.pi / 2])
    def test_uniform_state(self, theta):
        psi = momentum_zero_state(4)
        result = reconstruct(joint_probabilities(psi, theta), theta)
        np.testing.assert_allclose(result.estimate.amplitudes, np.full(4, 0.5), atol=1e-12)
        assert result.tilde_psi_magnitude == pytest.approx(2.0, abs=1e-12)

    def test_vanishing_amplitude_sum(self):
        psi = make_system_state([1, -1])
        with pytest.raises(VanishingTildePsiError):
            reconstruct(joint_probabilities(psi, np.pi / 2), np.pi / 2)

    def test_scaling_invariance_of_estimate(self):
        # joint probabilities enter only up to a common factor
        rng = np.random.default_rng(71)
        psi = SystemState(random_system(rng, 5, min_amp_sum=0.3))
        theta = 0.8
        table = joint_probabilities(psi, theta)
        reference = reconstruct(table, theta).estimate.amplitudes
        scaled = reconstruct(0.37 * table, theta).estimate.amplitudes
        np.testing.assert_allclose(scaled, reference, atol=1e-12)

    def test_raw_field_records_bracket_values(self):
        psi = make_system_state([1, 0])
        result = reconstruct(joint_probabilities(psi, np.pi / 2), np.pi / 2)
        np.testing.assert_allclose(result.raw.per_x, [1.0, 0.0], atol=1e-14)
        assert result.raw.dim == 2
        assert result.shots_used == "exact"


class TestRawNormFloor:
    def test_exact_table_uses_constant(self):
        assert raw_norm_floor() == RAW_NORM_FLOOR

    @pytest.mark.parametrize("d", [2, 5, 1024])
    @pytest.mark.parametrize("extra", [0, 1, 997, 10**6 + 7, 2**40 + 3, None])
    def test_matches_mean_shots_formula(self, d, extra):
        # the floor from the budget alone: three sigma at shots_total / (3 d)
        # shots per setting, never below the exact-table floor
        shots_total = 2**63 - 1 if extra is None else 3 * d + extra
        shots = np.array(split_budget(shots_total, 3 * d)).reshape(d, 3)
        mean_shots = shots_total / (3 * d)
        expected = max(RAW_NORM_FLOOR, 3.0 * math.sqrt(6.0 / (mean_shots * d)))
        assert raw_norm_floor(shots) == expected

    def test_sampled_table_rejected_at_floor(self):
        # raw norm (2/d)|S| sin(theta) ~ 0.03, far below the 300-shot floor of ~0.73
        psi = make_system_state([1.0, -0.96])
        (table,), shots = measure_probsets(psi, np.pi / 2, 300, seed=5)
        with pytest.raises(VanishingTildePsiError):
            reconstruct(table, np.pi / 2, shots)
        assert reconstruct(table, np.pi / 2).shots_used == "exact"

    def test_shots_shape_checked(self):
        psi = momentum_zero_state(4)
        (table,), shots = measure_probsets(psi, np.pi / 2, 1200, seed=1)
        with pytest.raises(DimensionMismatchError):
            reconstruct(table, np.pi / 2, shots[:3])
        assert sum(reconstruct(table, np.pi / 2, shots).shots_used) == 1200

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((4, 3), dtype=np.int64), np.full((4, 3), -100), np.full((4, 3), 0.5)],
        ids=["zero", "negative", "fractional"],
    )
    def test_invalid_shots_rejected(self, bad):
        table = joint_probabilities(momentum_zero_state(4), np.pi / 2)
        with pytest.raises(InvalidParameterError, match="shots"):
            reconstruct(table, np.pi / 2, bad)


class TestNormalizeRows:
    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(71)
        raw = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        raw[2] *= 1e-3
        units, norms, ok = normalize_rows(raw, 1e-2)
        np.testing.assert_array_equal(ok, [True, True, False, True, True])
        assert units.shape == (4, 7)
        for unit, row, row_norm in zip(units, raw[ok], norms[ok]):
            one, norm, _ = normalize_rows(row[None], 1e-2)
            assert np.array_equal(one[0], unit)
            assert norm[0] == row_norm
        np.testing.assert_allclose(norms, np.linalg.norm(raw, axis=-1), rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(units, axis=-1), 1.0, atol=1e-15)
        assert (np.abs(units.sum(axis=-1).imag) < 1e-15).all()

    def test_no_row_clears_floor(self):
        with pytest.raises(VanishingTildePsiError, match="floor"):
            normalize_rows(np.full((3, 4), 1e-3 + 0j), 1e-2)


class TestPhaseConvention:
    def test_sum_real_and_nonnegative(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            vec = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            total = phase_convention(vec).sum()
            assert abs(total.imag) < 1e-12
            assert total.real > 0
            assert abs(np.vdot(phase_convention(vec), vec)) == pytest.approx(
                np.vdot(vec, vec).real
            )

    def test_zero_sum_unchanged(self):
        vec = np.array([1.0, -1.0j, -1.0, 1.0j])
        assert phase_convention(vec) is vec

    def test_rows_match_vectors(self):
        rng = np.random.default_rng(107)
        rows = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        rows[2] = [1.0, -1.0j, -1.0, 1.0j, 0.0]
        stacked = phase_convention(rows)
        for row, rotated in zip(rows, stacked):
            np.testing.assert_array_equal(rotated, phase_convention(row))


class TestReconstructExact:
    def test_complex_pair(self):
        psi = make_system_state([0.6, 0.8j])
        result = reconstruct_exact(psi, np.pi / 2)
        assert fidelity(result.estimate, psi) == pytest.approx(1.0, abs=1e-10)

    def test_random_d8(self):
        rng = np.random.default_rng(73)
        psi = SystemState(random_system(rng, 8, min_amp_sum=0.5))
        result = reconstruct_exact(psi, 0.3)
        assert fidelity(result.estimate, psi) == pytest.approx(1.0, abs=1e-10)

    def test_zero_angle_rejected(self):
        with pytest.raises(DegenerateAngleError):
            reconstruct_exact(make_system_state([1, 0]), 0.0)

    def test_round_trip_property(self):
        rng = np.random.default_rng(79)
        dims = (2, 3, 4, 8, 16)
        for i in range(200):
            d = dims[i % len(dims)]
            psi = SystemState(random_system(rng, d, min_amp_sum=0.1))
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            result = reconstruct_exact(psi, theta)
            assert fidelity(result.estimate, psi) >= 1.0 - 1e-10

    def test_theta_independence(self):
        # explicit alignment instead of the closed form, whose sqrt hits a
        # ~1e-8 floating floor for near-identical states
        rng = np.random.default_rng(83)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            psi = SystemState(random_system(rng, d, min_amp_sum=0.2))
            weak = reconstruct_exact(psi, 0.1).estimate.amplitudes
            strong = reconstruct_exact(psi, np.pi / 2).estimate.amplitudes
            overlap = np.vdot(weak, strong)
            aligned_weak = weak * (overlap / abs(overlap))
            assert np.linalg.norm(aligned_weak - strong) < 1e-9

    def test_prefactor_recovers_amplitude_sum(self):
        rng = np.random.default_rng(89)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            psi = random_system(rng, d, min_amp_sum=0.1)
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            result = reconstruct_exact(SystemState(psi), theta)
            assert result.tilde_psi_magnitude == pytest.approx(
                abs(psi.sum()), abs=1e-9
            )

    def test_phase_convention(self):
        rng = np.random.default_rng(97)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            psi = SystemState(random_system(rng, d, min_amp_sum=0.1))
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            total = reconstruct_exact(psi, theta).estimate.amplitudes.sum()
            assert abs(total.imag) < 1e-9
            assert total.real >= -1e-9

    def test_postselection_diagnostic_is_mean_over_positions(self):
        psi = momentum_zero_state(4)
        theta = np.pi / 2
        result = reconstruct_exact(psi, theta)
        table = joint_probabilities(psi, theta)
        assert result.postselection_probability == pytest.approx(
            np.mean(table[:, 0] + table[:, 1]), abs=1e-14
        )

    def test_coupling_strength_instances_accepted(self):
        psi = momentum_zero_state(3)
        result = reconstruct_exact(psi, CouplingStrength(1.0))
        assert fidelity(result.estimate, psi) == pytest.approx(1.0, abs=1e-12)
