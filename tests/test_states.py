"""Tests for state construction and basis vectors."""

import itertools

import numpy as np
import pytest

from directwf import (
    InvalidParameterError,
    SystemState,
    make_system_state,
    momentum_zero_state,
)
from directwf.protocol import joint_probabilities, pointer_amplitudes
from directwf.states import (
    BASES,
    BASIS_OUTCOMES,
    OUTCOMES,
    PAIR_COLUMNS,
    POINTER_KETS,
    basis_pair,
)
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
        with pytest.raises(InvalidParameterError, match="all-zero"):
            make_system_state([0.0, 0.0, 0.0])

    def test_dimension_too_small(self):
        with pytest.raises(InvalidParameterError, match="need d >= 2 positions"):
            make_system_state([1.0])

    def test_non_finite_rejected(self):
        for raw in ([np.nan, 1.0], [np.inf, 1.0], [1.0, complex(0.0, -np.inf)]):
            with pytest.raises(InvalidParameterError, match="must be finite"):
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

    def test_subnormal_input(self):
        # 1 / max|a| overflows for subnormal entries; no warning, a unit vector
        for raw, mags in (
            ([1e-320, 1e-320], [2**-0.5, 2**-0.5]),
            ([5e-324, 5e-324], [2**-0.5, 2**-0.5]),
            ([1e-310, 3e-310j], [10**-0.5, 3 * 10**-0.5]),
        ):
            amps = make_system_state(raw).amplitudes
            np.testing.assert_allclose(np.abs(amps), mags, rtol=1e-12)
            assert abs(np.linalg.norm(amps) - 1.0) <= 1e-12

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
        with pytest.raises(InvalidParameterError, match="d must be an integer >= 2"):
            momentum_zero_state(1)

    def test_numpy_integer_dim(self):
        np.testing.assert_array_equal(
            momentum_zero_state(np.int64(4)).amplitudes, momentum_zero_state(4).amplitudes
        )


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
        assert abs(np.vdot(ket("plus"), ket("minus"))) < 1e-15
        assert abs(np.vdot(ket("L"), ket("R"))) < 1e-15

    @pytest.mark.parametrize("label", ["plus", "minus", "zero", "one", "L", "R"])
    def test_unit_norm(self, label):
        assert abs(np.linalg.norm(ket(label)) - 1) < 1e-15


PAULI = {"X": [[0, 1], [1, 0]], "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}


def layout_faults(basis_outcomes) -> list[str]:
    """What breaks the meaning of a basis-to-outcome map; empty when nothing does.

    Each basis's two outcomes (a, b) must be orthonormal rows of POINTER_KETS
    whose projectors sum to the identity, |a><a| - |b><b| must be the
    basis's Pauli matrix (the sign raw_amplitude gives each pair), and the
    three pair sums of an exact table, each the post-selection probability
    of its row, must agree to 1e-12.
    """
    faults = []
    for basis, pair in basis_outcomes.items():
        kets = np.array([ket(label) for label in pair])
        projectors = [np.outer(k, k.conj()) for k in kets]
        if not np.allclose(kets.conj() @ kets.T, np.eye(2), rtol=0, atol=1e-12):
            faults.append(f"{basis}: {pair} are not orthonormal")
        if not np.allclose(projectors[0] + projectors[1], np.eye(2), rtol=0, atol=1e-12):
            faults.append(f"{basis}: the projectors of {pair} do not sum to the identity")
        if not np.allclose(projectors[0] - projectors[1], PAULI[basis], rtol=0, atol=1e-12):
            faults.append(f"{basis}: |a><a| - |b><b| of {pair} is not its Pauli matrix")
    rng = np.random.default_rng(83)
    for d, theta in ((2, 0.3), (5, np.pi / 2), (16, 2.5)):
        table = joint_probabilities(SystemState(random_system(rng, d)), theta)
        sums = [table[:, OUTCOMES.index(a)] + table[:, OUTCOMES.index(b)]
                for a, b in basis_outcomes.values()]
        if np.ptp(sums, axis=0).max() > 1e-12:
            faults.append(f"the pair sums of a d = {d} table differ")
    return faults


class TestPerSettingLayout:
    """The basis-to-outcome map, the draw order and the pair columns, defined once in states."""

    def test_map_order_and_columns_are_one_definition(self):
        assert BASES == tuple(BASIS_OUTCOMES) == ("X", "Y", "Z")
        for basis, columns in zip(BASES, PAIR_COLUMNS):
            assert tuple(OUTCOMES[c] for c in columns) == BASIS_OUTCOMES[basis]
        table = np.arange(4 * 6, dtype=float).reshape(4, 6)
        for basis in BASES:
            pair = basis_pair(table, basis)
            assert all(np.shares_memory(view, table) for view in pair)
            columns = PAIR_COLUMNS[BASES.index(basis)]
            assert np.array_equal(np.stack(pair, axis=-1), table[:, columns])

    def test_map_means_what_the_inversion_needs(self):
        assert layout_faults(BASIS_OUTCOMES) == []

    @pytest.mark.parametrize("first, second", list(itertools.combinations(OUTCOMES, 2)))
    def test_swapping_two_labels_breaks_the_map(self, first, second):
        swap = {first: second, second: first}
        swapped = {basis: tuple(swap.get(label, label) for label in pair)
                   for basis, pair in BASIS_OUTCOMES.items()}
        assert layout_faults(swapped)


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
