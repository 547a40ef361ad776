"""Library input errors are package errors that still read as ValueError."""

import numpy as np
import pytest

from directwf import (
    CouplingStrength,
    DegenerateAngleError,
    DirectMeasurementError,
    InvalidParameterError,
    SystemState,
    fidelity,
    joint_probabilities,
    make_system_state,
    measure_probsets,
    momentum_zero_state,
    reconstruct,
    run_trials,
    theta_sweep,
)
from directwf.sampling import split_budget

# each case: a pattern of the message that names the check, and a call failing it
CASES = {
    "theta_out_of_range": (r"theta must lie in \[0, pi\]", lambda: CouplingStrength(4.0)),
    "theta_nan": (r"theta must lie in \[0, pi\]", lambda: CouplingStrength(float("nan"))),
    "no_settings": ("at least one setting", lambda: split_budget(10, 0)),
    "budget_below_settings": ("budget", lambda: split_budget(2, 3)),
    # budgets int64 shots cannot hold: drawn, a float would be truncated, a bool
    # taken as one shot, and a total of 2**63 or more would wrap the int64 shot
    # sum behind the raw-norm floor, fail in math.sqrt or overflow
    "budget_float": (
        "must be an integer",
        lambda: run_trials(momentum_zero_state(4), 1.0, 3000.5, trials=3, seed=1),
    ),
    "budget_bool": (
        "must be an integer",
        lambda: measure_probsets(momentum_zero_state(2), 0.5, True, seed=0),
    ),
    "budget_string": (
        "must be an integer",
        lambda: theta_sweep(momentum_zero_state(2), [0.5, 1.0], "EXACT", trials=2, seed=0),
    ),
    "budget_wraps_shot_sum": (
        r"below 2\*\*63",
        lambda: run_trials(make_system_state([1, 0.5, 0.2, 0.1]), 1.0, 2**64 + 360, 50, 1),
    ),
    "budget_at_2_63": (
        r"below 2\*\*63",
        lambda: run_trials(momentum_zero_state(4), 0.5, 2**63, trials=3, seed=1),
    ),
    "budget_far_above_int64": (
        r"below 2\*\*63",
        lambda: theta_sweep(momentum_zero_state(4), [0.5, 1.0], 2**70, trials=3, seed=1),
    ),
    "budget_above_int64_one_scan": (
        r"below 2\*\*63",
        lambda: measure_probsets(momentum_zero_state(4), 0.5, 2**64 + 12000, seed=1),
    ),
    "one_trial": (
        "at least 2 trials",
        lambda: run_trials(momentum_zero_state(2), 0.5, "exact", trials=1, seed=0),
    ),
    "no_angles": (
        "at least one angle",
        lambda: theta_sweep(momentum_zero_state(2), [], "exact", trials=2, seed=0),
    ),
    "not_unit_norm": ("unit norm", lambda: SystemState(np.array([1.0, 1.0]))),
    "no_trials": (
        "at least one trial",
        lambda: measure_probsets(momentum_zero_state(2), 0.5, 60, seed=0, trials=0),
    ),
    "negative_trials": (
        "at least one trial",
        lambda: measure_probsets(momentum_zero_state(2), 0.5, 60, seed=0, trials=-1),
    ),
    "state_not_1d": ("1-d sequence", lambda: SystemState(np.eye(2))),
    "state_too_small": ("need d >= 2 positions", lambda: SystemState(np.array([1.0]))),
    "raw_not_1d": ("1-d amplitude sequence", lambda: make_system_state([[1.0, 0.0]])),
    "raw_too_small": ("need d >= 2 positions", lambda: make_system_state([1.0])),
    "raw_non_finite": ("must be finite", lambda: make_system_state([np.nan, 1.0])),
    "raw_all_zero": ("all-zero", lambda: make_system_state([0.0, 0.0])),
    "uniform_too_small": ("need d >= 2", lambda: momentum_zero_state(1)),
    "inner_shape_mismatch": (
        "shape mismatch",
        lambda: fidelity(momentum_zero_state(2), momentum_zero_state(3)),
    ),
    "table_shape": (r"\(d, 6\) probability table", lambda: reconstruct(np.zeros((2, 5)), 1.0)),
    "table_too_small": ("d >= 2 positions", lambda: reconstruct(np.zeros((1, 6)), 1.0)),
    "table_out_of_range": (
        r"must lie in \[0, 1\]",
        lambda: reconstruct(np.full((2, 6), 2.0), 1.0),
    ),
    "shots_shape": (
        r"expected \(2, 3\) shots",
        lambda: reconstruct(
            joint_probabilities(momentum_zero_state(2), 1.0), 1.0, np.ones((3, 3), dtype=int)
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_raises_invalid_parameter(case):
    pattern, call = CASES[case]
    with pytest.raises(InvalidParameterError, match=pattern) as info:
        call()
    assert isinstance(info.value, DirectMeasurementError)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("shots_total", [2**63, "EXACT"])
def test_sweep_refuses_a_singular_angle_before_the_budget(shots_total):
    with pytest.raises(DegenerateAngleError):
        theta_sweep(momentum_zero_state(4), [1.0, 0.0], shots_total, trials=3, seed=1)
