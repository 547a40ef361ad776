"""Tests for state construction, basis vectors, and inner products."""

import numpy as np
import pytest

from directwf import (
    DimensionMismatchError,
    DimensionTooSmallError,
    NonFiniteAmplitudeError,
    SystemState,
    ZeroVectorError,
    make_system_state,
    momentum_zero_state,
)
from directwf.protocol import pointer_amplitudes
from directwf.states import OUTCOMES, POINTER_KETS, inner
from oracles import dense_joint, fourier_basis, outcome_distribution, random_system


def ket(label):
    return POINTER_KETS[OUTCOMES.index(label)]


class TestMakeSystemState:
    def test_already_normalized(self):
        state = make_system_state([1, 0])
        np.testing.assert_allclose(state.amplitudes, [1, 0])

    def test_uniform_pair(self):
        state = make_system_state([1, 1])
        np.testing.assert_allclose(state.amplitudes, np.full(2, 1 / np.sqrt(2)))

    def test_three_four_five(self):
        state = make_system_state([3, 4j])
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8j])

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            make_system_state([0.0, 0.0, 0.0])

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            make_system_state([1.0])

    def test_non_finite_rejected(self):
        for raw in ([np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]):
            with pytest.raises(NonFiniteAmplitudeError):
                make_system_state(raw)

    def test_scale_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            d = int(rng.integers(2, 17))
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            reference = make_system_state(vec).amplitudes
            for scale in (1e-200, 1e-300, 1e200, 1e300):
                np.testing.assert_allclose(
                    make_system_state(scale * vec).amplitudes, reference, atol=1e-15
                )

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 33))
            vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            once = make_system_state(vec).amplitudes
            twice = make_system_state(once).amplitudes
            np.testing.assert_allclose(twice, once, atol=1e-15)


class TestMomentumZero:
    def test_d4_amplitudes(self):
        np.testing.assert_allclose(momentum_zero_state(4).amplitudes, np.full(4, 0.5))

    def test_d2_amplitudes(self):
        np.testing.assert_allclose(
            momentum_zero_state(2).amplitudes, np.full(2, 1 / np.sqrt(2))
        )

    @pytest.mark.parametrize("d", [2, 3, 7, 64])
    def test_unit_norm(self, d):
        assert abs(np.linalg.norm(momentum_zero_state(d).amplitudes) - 1) < 1e-12

    def test_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            momentum_zero_state(1)


class TestFourierBasis:
    def test_d2_second_vector(self):
        states = fourier_basis(2)
        np.testing.assert_allclose(
            states[1], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-15
        )

    def test_d3_first_vector(self):
        omega = np.exp(2j * np.pi / 3)
        np.testing.assert_allclose(
            fourier_basis(3)[1],
            np.array([1, omega, omega**2]) / np.sqrt(3),
            atol=1e-15,
        )

    def test_k0_is_momentum_zero(self):
        for d in (2, 5, 16):
            np.testing.assert_allclose(
                fourier_basis(d)[0],
                momentum_zero_state(d).amplitudes,
                atol=1e-15,
            )

    @pytest.mark.parametrize("d", [2, 4, 16, 64, 1024])
    def test_orthonormal(self, d):
        mat = fourier_basis(d)
        gram = mat @ mat.conj().T
        assert np.max(np.abs(gram - np.eye(d))) < 1e-12

    def test_too_small(self):
        with pytest.raises(ValueError):
            fourier_basis(1)


class TestPointerBasis:
    def test_plus(self):
        np.testing.assert_allclose(ket("plus"), np.full(2, 1 / np.sqrt(2)))

    def test_R(self):
        np.testing.assert_allclose(ket("R"), [1 / np.sqrt(2), -1j / np.sqrt(2)])

    def test_zero(self):
        np.testing.assert_allclose(ket("zero"), [1, 0])

    def test_pairs_orthogonal(self):
        assert abs(inner(ket("plus"), ket("minus"))) < 1e-15
        assert abs(inner(ket("L"), ket("R"))) < 1e-15

    @pytest.mark.parametrize("label", ["plus", "minus", "zero", "one", "L", "R"])
    def test_unit_norm(self, label):
        assert abs(np.linalg.norm(ket(label)) - 1) < 1e-15


class TestInner:
    def test_self_overlap(self):
        state = make_system_state([0.3, -0.4, 0.5j, 1.0])
        assert inner(state, state) == pytest.approx(1.0, abs=1e-14)

    def test_orthogonal(self):
        assert inner((1, 0), (0, 1)) == 0

    def test_circular_pair(self):
        a = np.array([1, 1j]) / np.sqrt(2)
        b = np.array([1, -1j]) / np.sqrt(2)
        assert abs(inner(a, b)) < 1e-15

    def test_conjugate_linear_first_argument(self):
        assert inner((1j, 0), (1, 0)) == pytest.approx(-1j)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner((1, 0), (1, 0, 0))


class TestStateTypes:
    def test_system_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            SystemState(np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            SystemState(np.array([np.nan, 1.0]))

    def test_joint_state_dim(self):
        # each coupled joint state is (d, 2), and its full outcome grid has 2d cells
        psi = momentum_zero_state(4).amplitudes
        for x in range(4):
            joint = dense_joint(psi, x, 0.5)
            assert joint.shape == (8,)
            assert outcome_distribution(joint.reshape(4, 2), POINTER_KETS[:2]).shape == (8,)

    def test_unnormalized_pointer_caps_at_one(self):
        # the collapsed pointer is sub-normalized: its squared norm is a probability
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            phi = pointer_amplitudes(SystemState(random_system(rng, d)), rng.uniform(0, np.pi))
            assert (np.sum(np.abs(phi) ** 2, axis=1) <= 1.0 + 1e-12).all()
        phi = pointer_amplitudes(momentum_zero_state(5), 0.0)
        np.testing.assert_allclose(np.sum(np.abs(phi) ** 2, axis=1), 1.0, atol=1e-12)

    def test_amplitudes_read_only(self):
        state = make_system_state([1, 1j])
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_states_are_frozen(self):
        state = make_system_state([1, 1j])
        with pytest.raises(AttributeError):
            state.amplitudes = np.array([1.0, 0.0])
