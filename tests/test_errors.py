"""Library input errors are package errors that still read as ValueError, and the public names."""

import numpy as np
import pytest

import directwf
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
    theta_sweep,
)
from directwf.sampling import split_budget

# each case: a pattern of the message that names the check, and a call failing it
CASES = {
    "theta_out_of_range": (r"theta must lie in \[0, pi\]", lambda: CouplingStrength(4.0)),
    "theta_nan": (r"theta must lie in \[0, pi\]", lambda: CouplingStrength(float("nan"))),
    # an angle is a Python or numpy int or float: float() would take the rest
    "theta_string_reconstruct": (
        "theta must be a real number",
        lambda: reconstruct(joint_probabilities(momentum_zero_state(2), 1.0), "1.0"),
    ),
    "theta_string_one_scan": (
        "theta must be a real number",
        lambda: measure_probsets(momentum_zero_state(4), "1.0", 3000, 1),
    ),
    "theta_bool": ("theta must be a real number", lambda: CouplingStrength(True)),
    "theta_none": ("theta must be a real number", lambda: CouplingStrength(None)),
    "theta_complex": ("theta must be a real number", lambda: CouplingStrength(0.5 + 0j)),
    "theta_not_a_number": ("theta must be a real number", lambda: CouplingStrength("abc")),
    # a sweep iterates its angles: a string would sweep its characters
    "thetas_string": (
        "thetas must be a sequence",
        lambda: theta_sweep(momentum_zero_state(4), "12", 3000, 3, 1),
    ),
    "thetas_bytes": (
        "thetas must be a sequence",
        lambda: theta_sweep(momentum_zero_state(4), b"12", 3000, 3, 1),
    ),
    "thetas_float": (
        "thetas must be a sequence",
        lambda: theta_sweep(momentum_zero_state(4), 0.5, 3000, 3, 1),
    ),
    "thetas_numpy_float": (
        "thetas must be a sequence",
        lambda: theta_sweep(momentum_zero_state(4), np.float64(0.5), 3000, 3, 1),
    ),
    # only a 1-D array is a sequence of angles: a 0-d one cannot be iterated,
    # and a 2-D one would hand rows of angles over as angles
    "thetas_zero_d_array": (
        "thetas must be a sequence",
        lambda: theta_sweep(momentum_zero_state(4), np.array(0.5), 3000, 3, 1),
    ),
    "thetas_2d_array": (
        "thetas must be a sequence",
        lambda: theta_sweep(momentum_zero_state(4), np.array([[0.5, 1.0]]), 3000, 3, 1),
    ),
    "no_settings": ("at least one setting", lambda: split_budget(10, 0)),
    "budget_below_settings": ("budget for 3 settings", lambda: split_budget(2, 1)),
    # budgets int64 shots cannot hold: drawn, a float would be truncated, a bool
    # taken as one shot, and a total of 2**63 or more would wrap the int64 shot
    # sum behind the raw-norm floor, fail in math.sqrt or overflow
    "budget_float": (
        "must be an integer",
        lambda: theta_sweep(momentum_zero_state(4), [1.0], 3000.5, trials=3, seed=1)[0],
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
        lambda: theta_sweep(
            make_system_state([1, 0.5, 0.2, 0.1]), [1.0], 2**64 + 360, 50, 1
        )[0],
    ),
    "budget_at_2_63": (
        r"below 2\*\*63",
        lambda: theta_sweep(momentum_zero_state(4), [0.5], 2**63, trials=3, seed=1)[0],
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
        "trials must be an integer >= 2",
        lambda: theta_sweep(momentum_zero_state(2), [0.5], "exact", trials=1, seed=0)[0],
    ),
    "no_angles": (
        "at least one angle",
        lambda: theta_sweep(momentum_zero_state(2), [], "exact", trials=2, seed=0),
    ),
    "not_unit_norm": ("unit norm", lambda: SystemState(np.array([1.0, 1.0]))),
    # a trial count that is not an integer would reach np.empty as a shape
    "trials_float": (
        "trials must be an integer",
        lambda: theta_sweep(momentum_zero_state(4), [1.0], 12000, 2.5, 1)[0],
    ),
    "trials_numpy_float": (
        "trials must be an integer",
        lambda: theta_sweep(momentum_zero_state(4), [1.0], 12000, np.float64(3.0), 1)[0],
    ),
    "trials_bool": (
        "trials must be an integer",
        lambda: theta_sweep(momentum_zero_state(4), [1.0], 12000, True, 1)[0],
    ),
    "trials_float_exact_sweep": (
        "trials must be an integer",
        lambda: theta_sweep(momentum_zero_state(2), [0.5, 1.0], "exact", trials=2.0, seed=0),
    ),
    # budgets below one shot per setting, as `--shots -5` or `--shots 0` passes them
    "budget_negative": (
        r"budget for 12 settings must be an integer >= 12, got -5",
        lambda: measure_probsets(momentum_zero_state(4), 0.5, -5, seed=1),
    ),
    "budget_zero": (
        r"budget for 6 settings must be an integer >= 6, got 0",
        lambda: theta_sweep(momentum_zero_state(2), [0.5, 1.0], 0, trials=2, seed=1),
    ),
    "state_not_1d": ("1-d sequence", lambda: SystemState(np.eye(2))),
    "state_too_small": ("need d >= 2 positions", lambda: SystemState(np.array([1.0]))),
    "raw_not_1d": ("1-d sequence", lambda: make_system_state([[1.0, 0.0]])),
    "raw_too_small": ("need d >= 2 positions", lambda: make_system_state([1.0])),
    "raw_non_finite": ("must be finite", lambda: make_system_state([np.nan, 1.0])),
    "raw_all_zero": ("all-zero", lambda: make_system_state([0.0, 0.0])),
    "uniform_too_small": ("d must be an integer >= 2", lambda: momentum_zero_state(1)),
    "uniform_float_dim": ("d must be an integer >= 2", lambda: momentum_zero_state(4.0)),
    "uniform_bool_dim": ("d must be an integer >= 2", lambda: momentum_zero_state(True)),
    "inner_shape_mismatch": (
        "shape mismatch",
        lambda: fidelity(momentum_zero_state(2), momentum_zero_state(3)),
    ),
    "table_shape": (r"\(d, 6\) probability table", lambda: reconstruct(np.zeros((2, 5)), 1.0)),
    "table_three_d": (
        r"expected a \(d, 6\) probability table, got shape \(2, 2, 6\)",
        lambda: reconstruct(np.full((2, 2, 6), 0.1), 1.0),
    ),
    "table_too_small": ("d >= 2 positions", lambda: reconstruct(np.zeros((1, 6)), 1.0)),
    "table_out_of_range": (
        r"must lie in \[0, 1\]",
        lambda: reconstruct(np.full((2, 6), 2.0), 1.0),
    ),
    "table_nan": (
        r"must lie in \[0, 1\]",
        lambda: reconstruct([[0.1, np.nan, 0.1, 0.1, 0.1, 0.1], [0.1] * 6], 1.0),
    ),
    "table_negative": (
        r"must lie in \[0, 1\]",
        lambda: reconstruct([[-0.5, 1, 0, 0, 0, 0], [0.1] * 6], 1.0),
    ),
    # a table or amplitude list that is not an array of numbers is refused
    # before numpy converts it: an imaginary part would be dropped with only a
    # warning, a string parsed as a number, and a ragged nesting or a dict
    # would escape as numpy's ValueError or TypeError
    "table_complex": (
        "must be real numbers, got dtype complex128",
        lambda: reconstruct(joint_probabilities(momentum_zero_state(2), 1.0) + 0.3j, 1.0),
    ),
    "table_strings": (
        "must be real numbers",
        lambda: reconstruct(np.full((2, 6), "0.1"), 1.0),
    ),
    "table_ragged": (
        "joint probabilities must form an array",
        lambda: reconstruct([[0.1] * 6, [0.1] * 5], 1.0),
    ),
    "raw_strings": ("amplitudes must be numbers", lambda: make_system_state(["a", "b"])),
    "raw_dict": ("amplitudes must be numbers", lambda: make_system_state({1: 2})),
    "raw_ragged": ("amplitudes must form an array", lambda: make_system_state([[1], [1, 2]])),
    # SystemState and the shots of reconstruct pass the same array rules as
    # make_system_state and the table of reconstruct
    "state_strings": ("amplitudes must be numbers", lambda: SystemState(["a", "b"])),
    "state_dict": ("amplitudes must be numbers", lambda: SystemState({1: 2})),
    "state_ragged": ("amplitudes must form an array", lambda: SystemState([[1, 0], [0]])),
    "shots_ragged": (
        "shots must form an array",
        lambda: reconstruct(
            joint_probabilities(momentum_zero_state(2), 1.0), 1.0, [[1, 1, 1], [1, 1]]
        ),
    ),
    # the norm of this vector overflows to infinity, which numpy would warn about
    "state_norm_overflow": ("unit norm", lambda: SystemState(np.array([1e200, 1e200]))),
    "shots_shape": (
        r"expected \(2, 3\) shots",
        lambda: reconstruct(
            joint_probabilities(momentum_zero_state(2), 1.0), 1.0, np.ones((3, 3), dtype=int)
        ),
    ),
}

# a seed must be a nonnegative integer wherever a stream is derived: "7" would
# reuse seed 7's stream, and -1, 2.5, True and None would each hash to a stream
for label, bad_seed in {"negative": -1, "float": 2.5, "bool": True, "none": None,
                        "string": "7"}.items():
    CASES[f"seed_{label}_one_scan"] = (
        "seed must be an integer >= 0",
        lambda bad_seed=bad_seed: measure_probsets(momentum_zero_state(2), 0.5, 60, bad_seed),
    )
    CASES[f"seed_{label}_trials"] = (
        "seed must be an integer >= 0",
        lambda bad_seed=bad_seed: theta_sweep(
            momentum_zero_state(4), [1.0], 12000, 3, bad_seed
        )[0],
    )
    # an exact sweep draws nothing, but it checks its seed all the same
    CASES[f"seed_{label}_exact_sweep"] = (
        "seed must be an integer >= 0",
        lambda bad_seed=bad_seed: theta_sweep(
            momentum_zero_state(4), [0.5, 1.0], "exact", 3, bad_seed
        ),
    )
CASES["seed_string_sweep"] = (
    "seed must be an integer >= 0",
    lambda: theta_sweep(momentum_zero_state(2), [0.5, 1.0], 60, trials=2, seed="7"),
)


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


def test_sweep_refuses_trials_before_the_budget_and_the_budget_before_the_seed():
    psi = momentum_zero_state(4)
    with pytest.raises(InvalidParameterError, match="trials"):
        theta_sweep(psi, [0.5, 1.0], 5, trials=1, seed=-1)
    with pytest.raises(InvalidParameterError, match="budget"):
        theta_sweep(psi, [0.5, 1.0], 5, trials=3, seed=-1)


def test_public_surface():
    # a change to the package's public names has to edit this literal on purpose
    assert directwf.__all__ == [
        "CouplingStrength",
        "DegenerateAngleError",
        "DirectMeasurementError",
        "InvalidParameterError",
        "SystemState",
        "VanishingTildePsiError",
        "fidelity",
        "joint_probabilities",
        "make_system_state",
        "measure_probsets",
        "momentum_zero_state",
        "phase_aligned_l2",
        "phase_convention",
        "reconstruct",
        "reconstruct_exact",
        "sampled_reconstruction",
        "theta_sweep",
        "__version__",
    ]
