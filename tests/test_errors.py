"""Library input errors are package errors that still read as ValueError."""

import numpy as np
import pytest

from directwf import (
    CouplingStrength,
    DirectMeasurementError,
    InvalidParameterError,
    SystemState,
    measure_probsets,
    momentum_zero_state,
    run_trials,
    theta_sweep,
)
from directwf.reconstruction import RawEstimate
from directwf.sampling import split_budget

CASES = {
    "theta_out_of_range": lambda: CouplingStrength(4.0),
    "theta_nan": lambda: CouplingStrength(float("nan")),
    "no_settings": lambda: split_budget(10, 0),
    "budget_below_settings": lambda: split_budget(2, 3),
    "one_trial": lambda: run_trials(momentum_zero_state(2), 0.5, "exact", trials=1, seed=0),
    "no_angles": lambda: theta_sweep(momentum_zero_state(2), [], "exact", trials=2, seed=0),
    "not_unit_norm": lambda: SystemState(np.array([1.0, 1.0])),
    "no_trials": lambda: measure_probsets(momentum_zero_state(2), 0.5, 60, seed=0, trials=0),
    "negative_trials": lambda: measure_probsets(
        momentum_zero_state(2), 0.5, 60, seed=0, trials=-1
    ),
    "raw_estimate_shape": lambda: RawEstimate(np.zeros(3), CouplingStrength(1.0), dim=2),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_raises_invalid_parameter(case):
    with pytest.raises(InvalidParameterError) as info:
        CASES[case]()
    assert isinstance(info.value, DirectMeasurementError)
    assert isinstance(info.value, ValueError)
