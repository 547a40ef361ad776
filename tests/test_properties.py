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
    SystemState,
    VanishingTildePsiError,
    fidelity,
    make_system_state,
    phase_convention,
    reconstruct_exact,
    run_trials,
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
        stats = run_trials(psi, theta, shots, trials=8, seed=seed)
    except VanishingTildePsiError:  # every trial below the floor: nothing to check
        return
    assert stats.rmse_l2**2 == pytest.approx(stats.bias_l2**2 + stats.std_l2**2, rel=1e-12)


@PROPERTY
@given(n_settings=st.integers(1, 200), extra=st.integers(0, 2**63 - 1 - 200))
def test_split_budget_sums_and_spread(n_settings, extra):
    total = n_settings + extra
    shots = split_budget(total, n_settings)
    assert len(shots) == n_settings
    assert sum(shots) == total
    assert max(shots) - min(shots) <= 1
    assert min(shots) >= 1


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
