"""Property tests of the core invariants, drawn by hypothesis.

derandomize=True fixes the examples, so every run checks the same cases and
CI stays deterministic; max_examples stays small to keep the suite fast.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from directwf import (
    DirectMeasurementError,
    SystemState,
    VanishingTildePsiError,
    fidelity,
    joint_probabilities,
    make_system_state,
    momentum_zero_state,
    phase_convention,
    reconstruct,
    reconstruct_exact,
    theta_sweep,
)
from directwf.sampling import split_budget

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)

amplitude_lists = st.lists(st.complex_numbers(max_magnitude=1.0), min_size=2, max_size=8)
angles = st.floats(0.05, math.pi - 0.05)


def state(amps) -> SystemState:
    """A unit state from amps, skipping draws whose amplitude sum is near zero."""
    assume(max(abs(a) for a in amps) > 1e-3)
    psi = make_system_state(amps)
    assume(abs(psi.amplitudes.sum()) > 0.2)
    return psi


@PROPERTY
@given(amps=amplitude_lists, theta=angles)
def test_reconstruct_exact_round_trip(amps, theta):
    psi = state(amps)
    result = reconstruct_exact(psi, theta)
    assert fidelity(result.estimate, psi) == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(
        result.estimate.amplitudes, phase_convention(psi.amplitudes), atol=1e-9
    )


@PROPERTY
@given(amps=amplitude_lists)
def test_phase_convention_idempotent(amps):
    vec = np.array(amps, dtype=np.complex128)
    once = phase_convention(vec)
    total = once.sum()
    if abs(total) > 1e-9:
        assert abs(total.imag) <= 1e-12 * max(1.0, abs(total))
        assert total.real > 0
    np.testing.assert_allclose(phase_convention(once), once, rtol=0, atol=1e-12)


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(
    amps=amplitude_lists.filter(lambda a: len(a) <= 4),
    theta=angles,
    shots_per_setting=st.integers(50, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_rmse_squared_is_bias_squared_plus_std_squared(amps, theta, shots_per_setting, seed):
    psi = state(amps)
    shots = 3 * psi.dim * shots_per_setting
    try:
        stats = theta_sweep(psi, [theta], shots, trials=8, seed=seed)[0]
    except VanishingTildePsiError:  # every trial below the floor: nothing to check
        return
    assert stats.rmse_l2**2 == pytest.approx(stats.bias_l2**2 + stats.std_l2**2, rel=1e-12)


@PROPERTY
@given(dim=st.integers(1, 67), extra=st.integers(0, 2**63 - 1 - 201))
def test_split_budget_sums_and_spread(dim, extra):
    total = 3 * dim + extra
    shots = split_budget(total, dim)
    assert shots.shape == (dim, 3)
    settings = shots.ravel().tolist()
    assert sum(settings) == total
    assert max(settings) - min(settings) <= 1
    assert min(settings) >= 1
    # lower (position, basis) settings take the remainder
    assert settings == sorted(settings, reverse=True)


@PROPERTY
@given(
    amps=amplitude_lists,
    log_scale=st.floats(-200.0, 200.0),
    alpha=st.floats(-math.pi, math.pi),
)
def test_make_system_state_scale_invariant(amps, log_scale, alpha):
    assume(max(abs(a) for a in amps) > 1e-3)
    c = 10.0**log_scale * complex(math.cos(alpha), math.sin(alpha))
    reference = make_system_state(amps).amplitudes
    scaled = make_system_state([c * a for a in amps]).amplitudes
    np.testing.assert_allclose(scaled, reference * (c / abs(c)), rtol=0, atol=1e-12)


# what a caller might pass where an array belongs: numbers of every kind (NaN
# and infinities included), strings, None and dicts, nested into lists that
# come out ragged or not
_kinds = (
    st.integers(), st.integers(0, 3), st.floats(), st.floats(0.0, 1.0),
    st.complex_numbers(), st.booleans(),
)
_leaves = st.one_of(
    *_kinds, st.text(max_size=3), st.none(),
    st.dictionaries(st.integers(), st.integers(), max_size=2),
)
array_inputs = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=7), max_leaves=24)


def grids(shape):
    """Nested lists of one shape whose entries are all of one kind, or mixed.

    Drawn at the shape a boundary takes, they get past its form and dtype
    checks often enough to reach the checks that follow, and the return.
    """
    def nest(entries):
        for n in reversed(shape):
            entries = st.lists(entries, min_size=n, max_size=n)
        return entries

    return st.sampled_from([*_kinds, st.one_of(*_kinds)]).flatmap(nest)


def _result_numbers(result):
    return [
        *result.estimate.amplitudes, *result.raw.per_x,
        result.tilde_psi_magnitude, result.postselection_probability,
    ]


_TABLE = joint_probabilities(momentum_zero_state(2), 1.0)

# each array boundary: the shape it takes, and a call returning every number
# it computed from its input
BOUNDARIES = {
    "make_system_state": ((4,), lambda value: make_system_state(value).amplitudes),
    "SystemState": ((2,), lambda value: SystemState(value).amplitudes),
    "reconstruct_table": ((2, 6), lambda value: _result_numbers(reconstruct(value, 1.0))),
    "reconstruct_shots": (
        (2, 3), lambda value: _result_numbers(reconstruct(_TABLE, 1.0, value))
    ),
}


@pytest.mark.parametrize("boundary", sorted(BOUNDARIES))
@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_array_boundary_returns_finite_values_or_a_package_error(boundary, data):
    shape, call = BOUNDARIES[boundary]
    value = data.draw(st.one_of(array_inputs, grids(shape)))
    try:
        returned = call(value)
    except DirectMeasurementError:
        return
    assert np.isfinite(returned).all()
