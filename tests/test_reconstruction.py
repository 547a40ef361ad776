"""Tests for the probability-to-amplitude inversion."""

import math

import numpy as np
import pytest

from directwf import (
    CouplingStrength,
    DegenerateAngleError,
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
    setting_variances,
)
from directwf.cli import build_state
from directwf.sampling import measure_probsets, split_budget
from directwf.states import BASES
from oracles import random_system, setting_variance_loop, trial_draw


class TestRawAmplitude:
    def test_occupied_position(self):
        p = [0.25, 0.25, 0.0, 0.5, 0.25, 0.25]
        assert raw_amplitude(p, math.tan(np.pi / 4)) == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_empty_position(self):
        p = [0.25, 0.25, 0.5, 0.0, 0.25, 0.25]
        assert raw_amplitude(p, math.tan(np.pi / 4)) == pytest.approx(0.0 + 0j, abs=1e-14)

    def test_balanced_set_yields_zero(self):
        p = [0.2, 0.2, 0.4, 0.0, 0.2, 0.2]
        assert raw_amplitude(p, math.tan(0.5)) == 0j

    def test_scaling_all_entries_scales_output(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            base = rng.uniform(0.0, 1.0 / 6.0, size=6)
            tan_half = math.tan(float(rng.uniform(0.05, np.pi - 0.05)) / 2)
            reference = raw_amplitude(base, tan_half)
            for lam in (0.25, 0.5, 1.0):
                scaled = raw_amplitude(lam * base, tan_half)
                np.testing.assert_allclose(scaled, lam * reference, rtol=1e-12, atol=1e-15)

    def test_affine_in_each_entry(self):
        # the increment from bumping one entry must not depend on the base set
        rng = np.random.default_rng(67)
        tan_half = math.tan(0.9 / 2)
        delta = 0.05
        for idx in range(6):
            base_a = rng.uniform(0.0, 0.1, size=6)
            base_b = rng.uniform(0.0, 0.1, size=6)
            bumped_a = base_a.copy()
            bumped_a[idx] += delta
            bumped_b = base_b.copy()
            bumped_b[idx] += delta
            inc_a = raw_amplitude(bumped_a, tan_half) - raw_amplitude(base_a, tan_half)
            inc_b = raw_amplitude(bumped_b, tan_half) - raw_amplitude(base_b, tan_half)
            np.testing.assert_allclose(inc_a, inc_b, atol=1e-14)

    def test_table_matches_row_by_row(self):
        rng = np.random.default_rng(69)
        table = rng.uniform(0.0, 0.2, size=(7, 6))
        tan_half = math.tan(0.7 / 2)
        per_row = [raw_amplitude(row, tan_half) for row in table]
        np.testing.assert_array_equal(raw_amplitude(table, tan_half), per_row)

    @pytest.mark.parametrize("as_sequence", [list, tuple])
    def test_angle_stack_matches_angle_by_angle(self, as_sequence):
        rng = np.random.default_rng(70)
        stack = rng.uniform(0.0, 0.2, size=(3, 4, 5, 6))
        tan_halves = as_sequence(CouplingStrength(t).tan_half for t in (0.3, 1.1, 2.9))
        per_angle = [raw_amplitude(tables, t) for tables, t in zip(stack, tan_halves)]
        column = np.reshape(tan_halves, (-1, 1, 1))
        assert np.array_equal(raw_amplitude(stack, column), per_angle)


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
        shots = split_budget(shots_total, d)
        mean_shots = shots_total / (3 * d)
        expected = max(RAW_NORM_FLOOR, 3.0 * math.sqrt(6.0 / (mean_shots * d)))
        assert raw_norm_floor(shots) == expected

    def test_sampled_table_rejected_at_floor(self):
        # raw norm (2/d)|S| sin(theta) ~ 0.03, far below the 300-shot floor of ~0.73
        psi = make_system_state([1.0, -0.96])
        table, shots = measure_probsets(psi, np.pi / 2, 300, seed=5)
        with pytest.raises(VanishingTildePsiError):
            reconstruct(table, np.pi / 2, shots)
        assert reconstruct(table, np.pi / 2).shots_used == "exact"

    def test_shots_shape_checked(self):
        psi = momentum_zero_state(4)
        table, shots = measure_probsets(psi, np.pi / 2, 1200, seed=1)
        with pytest.raises(InvalidParameterError, match=r"expected \(4, 3\) shots"):
            reconstruct(table, np.pi / 2, shots[:3])
        assert sum(reconstruct(table, np.pi / 2, shots).shots_used) == 1200

    def test_result_types(self):
        psi = momentum_zero_state(4)
        table, shots = measure_probsets(psi, np.pi / 2, 1200, seed=1)
        result = reconstruct(table, np.pi / 2, shots.astype(np.int32))
        assert result.shots_used.shape == (12,)
        assert result.shots_used.dtype == np.int64
        assert not result.shots_used.flags.writeable
        np.testing.assert_array_equal(result.shots_used, shots.ravel())
        assert type(result.tilde_psi_magnitude) is float
        assert type(result.postselection_probability) is float

    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((4, 3), dtype=np.int64),
            np.full((4, 3), -100),
            np.full((4, 3), 0.5),
            # the total wraps around to 0 in uint64
            np.full((4, 3), 2**63, dtype=np.uint64),
        ],
        ids=["zero", "negative", "fractional", "total_above_int64"],
    )
    def test_invalid_shots_rejected(self, bad):
        table = joint_probabilities(momentum_zero_state(4), np.pi / 2)
        with pytest.raises(InvalidParameterError, match="shots"):
            reconstruct(table, np.pi / 2, bad)

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    @pytest.mark.parametrize("total", [2**63 - 1, 2**63])
    def test_shots_total_limit(self, total, dtype):
        # spread evenly, so the low 32-bit halves carry into the high ones
        base, extra = divmod(total, 12)
        shots = np.array([base + 1] * extra + [base] * (12 - extra), dtype=dtype).reshape(4, 3)
        table = joint_probabilities(momentum_zero_state(4), np.pi / 2)
        if total < 2**63:
            assert sum(reconstruct(table, np.pi / 2, shots).shots_used.tolist()) == total
        else:
            with pytest.raises(InvalidParameterError, match=f"below 2\\*\\*63, got {total}"):
                reconstruct(table, np.pi / 2, shots)


class TestNormalizeRows:
    def test_rows_match_one_row_calls(self):
        rng = np.random.default_rng(71)
        raw = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        raw[2] *= 1e-3
        units, norms, ok = normalize_rows(raw, 1e-2)
        np.testing.assert_array_equal(ok, [True, True, False, True, True])
        assert units.shape == raw.shape
        # a dropped row stays in its place, as zeros
        assert np.array_equal(units[2], np.zeros(7))
        for unit, row, row_norm in zip(units[ok], raw[ok], norms[ok]):
            one, norm, _ = normalize_rows(row[None], 1e-2)
            assert np.array_equal(one[0], unit)
            assert norm[0] == row_norm
        np.testing.assert_allclose(norms, np.linalg.norm(raw, axis=-1), rtol=1e-15)
        np.testing.assert_allclose(np.linalg.norm(units[ok], axis=-1), 1.0, atol=1e-15)
        assert (np.abs(units.sum(axis=-1).imag) < 1e-15).all()

    def test_no_row_clears_floor(self):
        with pytest.raises(VanishingTildePsiError, match="floor"):
            normalize_rows(np.full((3, 4), 1e-3 + 0j), 1e-2)

    def test_angle_axis_matches_angle_by_angle(self):
        rng = np.random.default_rng(72)
        raw = rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7))
        raw[0, 1] *= 1e-3
        raw[2, 3:] *= 1e-3
        units, norms, ok = normalize_rows(raw, 1e-2)
        per_angle = [normalize_rows(r, 1e-2) for r in raw]
        assert units.shape == raw.shape
        assert np.array_equal(units, [u for u, _, _ in per_angle])
        assert np.array_equal(norms, [n for _, n, _ in per_angle])
        assert np.array_equal(ok, [k for _, _, k in per_angle])
        assert ok.sum(axis=-1).tolist() == [4, 5, 3]

    def test_first_stack_with_no_row_names_its_norm_and_floor(self):
        raw = np.ones((3, 2, 4), dtype=complex)
        raw[1] *= 1e-3  # norm 2e-3, the first stack below the floor
        raw[2] *= 1e-4  # norm 2e-4, also below
        with pytest.raises(VanishingTildePsiError, match=r"norm 2\.000e-03 at or below floor 1\.000e-02"):
            normalize_rows(raw, 1e-2)


class TestSettingVariances:
    """The per-setting variance kernel against the full multinomial covariance and Monte Carlo."""

    # no state or angle is picked for its outcome; 4 tan^2(theta/2) is 0.26, 4 and 36 at the
    # three angles, never near the 1 that would hide a dropped factor
    CASES = [(4, "uniform"), (4, "gaussian:1.0"), (8, "random:1"), (8, "random:3")]
    THETAS = (0.5, np.pi / 2, 2.5)

    @pytest.mark.parametrize("dim, state", CASES)
    def test_matches_the_covariance_oracle(self, dim, state):
        # one call on an (angles, tables, d, 6) stack, tan(theta/2) broadcast as an
        # (angles, 1, 1) column, checked table by table: the exact table, then drawn ones
        psi = build_state(dim, state)
        stack = np.stack(
            [[joint_probabilities(psi, t), *trial_draw(psi, t, 300 * dim, 11, 3)[0]]
             for t in self.THETAS]
        )
        column = np.reshape([math.tan(t / 2) for t in self.THETAS], (-1, 1, 1))
        variances = setting_variances(stack, column)
        assert variances.shape == (len(self.THETAS), 4, dim, len(BASES))
        for theta, tables, per_table in zip(self.THETAS, stack, variances):
            for table, got in zip(tables, per_table):
                want = setting_variance_loop(table, theta)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim, state", CASES)
    def test_predicts_the_variance_of_raw_amplitude(self, dim, state):
        """Var Re r_x = c_X/N_X + c_Z/N_Z and Var Im r_x = c_Y/N_Y, against 20000 drawn trials.

        Each empirical variance s^2 is z-scored against its sampling standard
        error sqrt((m4 - s^4 (n - 3)/(n - 1)) / n), m4 the fourth central
        moment of the n trials. Each of the 6 d statistics per angle is a
        mean over 2000 shots per setting, near normal, so it exceeds |z| = 5
        with probability about 5.7e-7, and the 144 statistics of the four
        cases false-fail for at most 8.3e-5 of seeds (union bound). The seed
        is fixed before any run.
        """
        psi, trials = build_state(dim, state), 20000
        x, y, z = (BASES.index(basis) for basis in ("X", "Y", "Z"))
        for theta in self.THETAS:
            tan_half = math.tan(theta / 2)
            tables, shots = trial_draw(psi, theta, 3 * dim * 2000, 5, trials)
            raw = raw_amplitude(tables, tan_half)
            per_setting = setting_variances(joint_probabilities(psi, theta), tan_half) / shots
            predicted = {
                "real": per_setting[:, x] + per_setting[:, z],
                "imag": per_setting[:, y],
            }
            for part, values in (("real", raw.real), ("imag", raw.imag)):
                dev = values - values.mean(axis=0)
                var = (dev**2).sum(axis=0) / (trials - 1)
                m4 = (dev**4).mean(axis=0)
                se = np.sqrt((m4 - var**2 * (trials - 3) / (trials - 1)) / trials)
                score = (var - predicted[part]) / se
                assert np.abs(score).max() < 5, (theta, part, score)


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
