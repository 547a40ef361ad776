"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from directwf import (
    DegenerateAngleError,
    SystemState,
    VanishingTildePsiError,
    fidelity,
    joint_probabilities,
    make_system_state,
    momentum_zero_state,
    reconstruct_exact,
    theta_sweep,
)
from directwf.cli import build_state, main
from directwf.protocol import postselection
from oracles import (
    conditional_probabilities,
    dense_joint,
    postselection_by_partial_trace,
    project_probability,
    random_system,
)

# table columns in order: plus, minus, zero, one, L, R
ORACLE_KETS = (
    np.array([1, 1]) / np.sqrt(2),
    np.array([1, -1]) / np.sqrt(2),
    np.array([1, 0], dtype=complex),
    np.array([0, 1], dtype=complex),
    np.array([1, 1j]) / np.sqrt(2),
    np.array([1, -1j]) / np.sqrt(2),
)


@contextmanager
def criterion(number: int, label: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{label}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s > {budget_s}s"
    print(f"ACCEPTANCE {number} [{label}]: PASS ({elapsed:.2f}s)")


def random_cases(seed: int, count: int, dims, min_amp_sum=None, theta_lo=0.0, theta_hi=np.pi):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        d = int(rng.choice(dims))
        psi = random_system(rng, d, min_amp_sum=min_amp_sum)
        x = int(rng.integers(0, d))
        theta = float(rng.uniform(theta_lo, theta_hi))
        yield d, psi, x, theta


def test_criterion_1_joint_vs_conditional_identity():
    with criterion(1, "joint-vs-conditional identity", budget_s=1.0):
        for d, psi, x, theta in random_cases(1001, 100, dims=range(2, 17)):
            row = joint_probabilities(SystemState(psi), theta)[x]
            joint = dense_joint(psi, x, theta)
            # the closed-form table must equal the direct projections of the
            # full joint state built by the dense coupling unitary
            for col, ket in enumerate(ORACLE_KETS):
                direct = project_probability(joint, d, 0, ket)
                assert abs(row[col] - direct) < 1e-14
            # conditional = joint / post-selection
            post = postselection_by_partial_trace(joint, d)
            if post > 1e-12:
                cond = conditional_probabilities(row)
                assert np.all(np.abs(cond * post - row) < 1e-12)


def test_criterion_2_exact_round_trip():
    with criterion(2, "exact round-trip", budget_s=5.0):
        for d, psi, _, theta in random_cases(
            1002, 200, dims=range(2, 17), min_amp_sum=0.1,
            theta_lo=0.05, theta_hi=np.pi - 0.05,
        ):
            result = reconstruct_exact(SystemState(psi), theta)
            assert fidelity(result.estimate, SystemState(psi)) >= 1.0 - 1e-10


def test_criterion_3_postselection_identity():
    with criterion(3, "post-selection identity"):
        for d, psi, x, theta in random_cases(1003, 100, dims=range(2, 17)):
            row = joint_probabilities(SystemState(psi), theta)[x]
            trace_route = postselection_by_partial_trace(dense_joint(psi, x, theta), d)
            assert abs(postselection(row) - trace_route) < 1e-12
            # every basis pair sums to the same post-selection probability
            for first in (0, 2, 4):
                assert abs(row[first] + row[first + 1] - trace_route) < 1e-12


def test_criterion_4_sampled_convergence():
    with criterion(4, "sampled-reconstruction convergence", budget_s=60.0):
        psi = momentum_zero_state(4)
        stats = theta_sweep(psi, [np.pi / 2], 300000, trials=100, seed=4001)[0]
        assert stats.mean_fidelity > 0.999

        per_setting = [10**3, 10**4, 10**5]
        rmses = []
        for n in per_setting:
            s = theta_sweep(psi, [np.pi / 2], n * 12, trials=300, seed=4002)[0]
            rmses.append(s.rmse_l2)
        slope = float(np.polyfit(np.log(per_setting), np.log(rmses), 1)[0])
        assert abs(slope - (-0.5)) <= 0.05


def test_criterion_5_strong_beats_weak():
    with criterion(5, "strong beats weak", budget_s=120.0):
        psi = build_state(4, "gaussian:1.0")
        weak, strong = theta_sweep(psi, [0.1, np.pi / 2], 300000, trials=200, seed=5001)
        assert strong.rmse_l2 < weak.rmse_l2
        separation = weak.rmse_l2 - strong.rmse_l2
        combined_se = np.hypot(weak.rmse_se, strong.rmse_se)
        assert separation >= 3 * combined_se


def test_criterion_6_degenerate_handling(tmp_path, capsys):
    with criterion(6, "degenerate handling"):
        psi = make_system_state([1, 0])
        for theta in (0.0, np.pi):
            with pytest.raises(DegenerateAngleError):
                reconstruct_exact(psi, theta)
        with pytest.raises(VanishingTildePsiError):
            reconstruct_exact(make_system_state([1, -1]), np.pi / 2)

        out = tmp_path / "out.json"
        assert main(["reconstruct", "--dim", "2", "--theta", "0", "--out", str(out)]) == 3
        assert main(["reconstruct", "--dim", "2", "--theta", "pi", "--out", str(out)]) == 3
        assert main([
            "reconstruct", "--dim", "2", "--state", "1,-1", "--theta", "pi/2",
            "--out", str(out),
        ]) == 3
        err = capsys.readouterr().err
        assert "DegenerateAngle" in err
        assert "VanishingTildePsi" in err


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "determinism"):
        out = tmp_path / "payload.json"
        args = [
            "reconstruct", "--dim", "4", "--state", "gaussian:1.0", "--theta", "pi/2",
            "--shots", "120000", "--seed", "99", "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

        sweep_out = tmp_path / "sweep.csv"
        sweep_args = [
            "sweep", "--dim", "3", "--state", "random:5", "--theta", "0.4,1.2",
            "--shots", "18000", "--trials", "25", "--seed", "7",
            "--out", str(sweep_out), "--format", "csv",
        ]
        assert main(sweep_args) == 0
        first_sweep = sweep_out.read_bytes()
        assert main(sweep_args) == 0
        assert sweep_out.read_bytes() == first_sweep
