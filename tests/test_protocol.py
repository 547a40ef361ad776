"""Tests for the closed-form coupling probabilities.

The (d, 6) table and the closed-form pointer amplitudes are checked against
dense-matrix and explicit-loop oracles for small d, and against hand-frozen
values from worked examples.
"""

import numpy as np
import pytest

from directwf import (
    CouplingStrength,
    DegenerateAngleError,
    SystemState,
    joint_probabilities,
    make_system_state,
    momentum_zero_state,
)
from directwf.protocol import pointer_amplitudes, postselection
from directwf.states import OUTCOMES, POINTER_KETS
from oracles import (
    collapse_by_sum,
    conditional_probabilities,
    dense_joint,
    outcome_distribution,
    postselection_by_partial_trace,
    random_system,
)

PLUS, MINUS, ZERO, ONE, L, R = range(len(OUTCOMES))


def random_coupling(rng):
    """Random (d, psi, x, theta) with 2 <= d <= 16, in the draw order of the other tests."""
    d = int(rng.integers(2, 17))
    psi = random_system(rng, d)
    return d, psi, int(rng.integers(0, d)), float(rng.uniform(0, np.pi))


class TestCouplingStrength:
    @pytest.mark.parametrize("theta", [-0.1, np.pi + 0.1, float("nan")])
    def test_out_of_range_rejected(self, theta):
        with pytest.raises(ValueError):
            CouplingStrength(theta)

    @pytest.mark.parametrize("theta", [0.0, 1e-12, np.pi, np.pi - 1e-12])
    def test_degenerate_angles_flagged(self, theta):
        with pytest.raises(DegenerateAngleError):
            CouplingStrength(theta).require_invertible()

    @pytest.mark.parametrize("theta", [0.05, 1.0, np.pi / 2, np.pi - 0.05])
    def test_valid_angles_pass(self, theta):
        CouplingStrength(theta).require_invertible()

    def test_coerce_accepts_floats_and_instances(self):
        s = CouplingStrength(0.3)
        assert CouplingStrength.coerce(s) is s
        assert CouplingStrength.coerce(0.3) == s

    @pytest.mark.parametrize("theta", [1, np.int64(1), np.float32(0.5), np.float64(0.5)])
    def test_numpy_and_int_angles_stored_as_python_float(self, theta):
        stored = CouplingStrength.coerce(theta).theta
        assert type(stored) is float and stored == float(theta)


class TestApplyCoupling:
    """The coupling at x, seen through the closed-form pointer amplitudes."""

    def test_basis_state_full_rotation(self):
        # hand value cross-checked against the dense 4x4 unitary
        np.testing.assert_allclose(dense_joint([1, 0], 0, np.pi / 2), [0, 1, 0, 0], atol=1e-15)
        phi = pointer_amplitudes(make_system_state([1, 0]), np.pi / 2)
        np.testing.assert_allclose(phi[0], [0, 1 / np.sqrt(2)], atol=1e-15)
        np.testing.assert_allclose(
            phi[0], collapse_by_sum(dense_joint([1, 0], 0, np.pi / 2), 2), atol=1e-15
        )

    def test_zero_angle_is_identity(self):
        # without rotation every position leaves the same pointer, (S/sqrt(d), 0)
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            psi = random_system(rng, d)
            phi = pointer_amplitudes(SystemState(psi), 0.0)
            expected = np.zeros((d, 2), dtype=complex)
            expected[:, 0] = psi.sum() / np.sqrt(d)
            np.testing.assert_allclose(phi, expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    def test_unitarity(self, d):
        # the coupled state keeps unit norm, so each full outcome grid sums to one
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            psi = SystemState(random_system(rng, d))
            theta = float(rng.uniform(0, np.pi))
            for x in range(d):
                joint = dense_joint(psi.amplitudes, x, theta).reshape(d, 2)
                # OUTCOMES lists the two kets of each basis next to each other
                for kets in POINTER_KETS.reshape(3, 2, 2):
                    assert abs(outcome_distribution(joint, kets).sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_matches_dense_unitary(self, d):
        rng = np.random.default_rng(200 + d)
        for _ in range(20):
            psi = random_system(rng, d)
            theta = float(rng.uniform(0, np.pi))
            phi = pointer_amplitudes(SystemState(psi), theta)
            for x in range(d):
                np.testing.assert_allclose(
                    phi[x], collapse_by_sum(dense_joint(psi, x, theta), d), atol=1e-14
                )


class TestPointerCollapse:
    def test_basis_state_full_rotation(self):
        phi = pointer_amplitudes(make_system_state([1, 0]), np.pi / 2)
        np.testing.assert_allclose(phi[0], [0, 1 / np.sqrt(2)], atol=1e-15)

    def test_zero_angle_leaves_pointer_down(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            psi = random_system(rng, d)
            phi = pointer_amplitudes(SystemState(psi), 0.0)
            np.testing.assert_allclose(phi[0], [psi.sum() / np.sqrt(d), 0.0], atol=1e-14)

    def test_uniform_d4(self):
        # oracle-evaluated: phi = (3/4, 1/4), squared norm 5/8 < 1
        psi = momentum_zero_state(4)
        phi = pointer_amplitudes(psi, np.pi / 2)
        np.testing.assert_allclose(phi[0], [0.75, 0.25], atol=1e-14)
        post = postselection(joint_probabilities(psi, np.pi / 2))
        assert post[0] == pytest.approx(0.625, abs=1e-14)
        assert post[0] < 1.0

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_matches_sum_oracle(self, d):
        rng = np.random.default_rng(300 + d)
        for _ in range(20):
            psi = random_system(rng, d)
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            np.testing.assert_allclose(
                pointer_amplitudes(SystemState(psi), theta)[x],
                collapse_by_sum(dense_joint(psi, x, theta), d),
                atol=1e-14,
            )


class TestJointProbabilities:
    def test_basis_state_coupled_position(self):
        p = joint_probabilities(make_system_state([1, 0]), np.pi / 2)[0]
        assert p[PLUS] == pytest.approx(0.25, abs=1e-14)
        assert p[MINUS] == pytest.approx(0.25, abs=1e-14)
        assert p[ONE] == pytest.approx(0.5, abs=1e-14)
        assert p[L] == pytest.approx(0.25, abs=1e-14)
        assert p[R] == pytest.approx(0.25, abs=1e-14)

    def test_basis_state_empty_position(self):
        p = joint_probabilities(make_system_state([1, 0]), np.pi / 2)[1]
        assert p[PLUS] == pytest.approx(0.25, abs=1e-14)
        assert p[MINUS] == pytest.approx(0.25, abs=1e-14)
        assert p[ONE] == pytest.approx(0.0, abs=1e-14)
        assert p[L] == pytest.approx(0.25, abs=1e-14)
        assert p[R] == pytest.approx(0.25, abs=1e-14)

    def test_zero_angle_probabilities(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            psi = random_system(rng, d)
            table = joint_probabilities(SystemState(psi), 0.0)
            expected = abs(psi.sum()) ** 2 / (2 * d)
            np.testing.assert_allclose(table[:, ONE], 0.0, atol=1e-14)
            np.testing.assert_allclose(table[:, [PLUS, MINUS, L, R]], expected, atol=1e-12)

    def test_basis_pair_sums_consistent(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            d, psi, x, theta = random_coupling(rng)
            p = joint_probabilities(SystemState(psi), theta)[x]
            post = postselection_by_partial_trace(dense_joint(psi, x, theta), d)
            assert p[PLUS] + p[MINUS] == pytest.approx(post, abs=1e-12)
            assert p[ZERO] + p[ONE] == pytest.approx(post, abs=1e-12)
            assert p[L] + p[R] == pytest.approx(post, abs=1e-12)


class TestConditionalProbabilities:
    def test_divides_by_postselection(self):
        c = conditional_probabilities([0.25, 0.25, 0.0, 0.5, 0.25, 0.25])
        assert c[PLUS] == pytest.approx(0.5)
        assert c[MINUS] == pytest.approx(0.5)
        assert c[ONE] == pytest.approx(1.0)
        assert c[L] == pytest.approx(0.5)
        assert c[R] == pytest.approx(0.5)
        assert c[PLUS] + c[MINUS] == pytest.approx(1.0, abs=1e-12)

    def test_identity_when_already_normalized(self):
        p = np.array([0.7, 0.3, 0.6, 0.4, 0.5, 0.5])
        np.testing.assert_allclose(conditional_probabilities(p), p, atol=1e-15)

    def test_bayes_consistency(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            psi = random_system(rng, d, min_amp_sum=0.05)
            theta = float(rng.uniform(0.05, np.pi - 0.05))
            table = joint_probabilities(SystemState(psi), theta)
            cond = conditional_probabilities(table)
            for x in range(d):
                post = postselection_by_partial_trace(dense_joint(psi, x, theta), d)
                np.testing.assert_allclose(cond[x] * post, table[x], atol=1e-12)


class TestPostselectionProbability:
    def test_basis_state_half(self):
        table = joint_probabilities(make_system_state([1, 0]), np.pi / 2)
        assert postselection(table)[0] == pytest.approx(0.5, abs=1e-14)

    def test_uniform_state_zero_angle_is_certain(self):
        table = joint_probabilities(momentum_zero_state(5), 0.0)
        np.testing.assert_allclose(postselection(table), 1.0, atol=1e-12)

    def test_bounded_and_matches_oracles(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            d, psi, x, theta = random_coupling(rng)
            post = postselection(joint_probabilities(SystemState(psi), theta))[x]
            assert -1e-14 <= post <= 1.0 + 1e-14
            phi = pointer_amplitudes(SystemState(psi), theta)[x]
            assert post == pytest.approx(np.vdot(phi, phi).real, abs=1e-14)
            assert post == pytest.approx(
                postselection_by_partial_trace(dense_joint(psi, x, theta), d), abs=1e-14
            )


class TestProbabilitySetType:
    def test_postselection_property(self):
        assert postselection([0.3, 0.2, 0.25, 0.25, 0.1, 0.4]) == pytest.approx(0.5)
        np.testing.assert_allclose(
            postselection([[0.3, 0.2, 0, 0, 0, 0], [0.1, 0.05, 0, 0, 0, 0]]), [0.5, 0.15]
        )
