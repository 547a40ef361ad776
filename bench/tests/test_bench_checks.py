"""Each correctness check passes a genuine CLI output and rejects a corrupted copy.

The corruption is applied to the file the checker reads, never to the program.
"""

import csv
import io
import json
import math

import numpy as np
import pytest
from checks import (
    CheckFailed,
    check_exact_reconstruct_json,
    check_exact_simulate_csv,
    check_sampled_reconstruct_json,
    check_sweep_csv,
    state_vector,
)
from directwf.cli import build_state, main

THETAS = (0.1, 0.5, 1.0, math.pi / 2)


def run(tmp_path, name, *argv):
    out = tmp_path / name
    assert main([*argv, "--out", str(out)]) == 0
    return out


def edit_csv(path, edit):
    rows = list(csv.DictReader(io.StringIO(path.read_text())))
    edit(rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    path.write_text(buf.getvalue())


def edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("spec", ["uniform", "gaussian:2.5", "random:7"])
def test_truth_states_match_the_cli_presets(spec):
    assert np.max(np.abs(state_vector(spec, 16) - build_state(16, spec).amplitudes)) < 1e-15


@pytest.mark.parametrize("theta_arg, theta", [("pi/2", math.pi / 2), ("0.7", 0.7)])
def test_exact_simulate_check(tmp_path, theta_arg, theta):
    out = run(tmp_path, "p.csv", "simulate", "--dim", "16", "--state", "random:7",
              "--theta", theta_arg, "--shots", "exact", "--format", "csv")
    psi = state_vector("random:7", 16)
    check_exact_simulate_csv(out, psi, theta)

    def nudge(rows):
        rows[5]["p_one"] = repr(float(rows[5]["p_one"]) + 1e-11)

    edit_csv(out, nudge)
    with pytest.raises(CheckFailed):
        check_exact_simulate_csv(out, psi, theta)


def test_exact_simulate_check_rejects_a_missing_row(tmp_path):
    out = run(tmp_path, "p.csv", "simulate", "--dim", "16", "--state", "random:7",
              "--theta", "pi/2", "--shots", "exact", "--format", "csv")
    edit_csv(out, lambda rows: rows.pop())
    with pytest.raises(CheckFailed):
        check_exact_simulate_csv(out, state_vector("random:7", 16), math.pi / 2)


def test_exact_reconstruct_check(tmp_path):
    out = run(tmp_path, "r.json", "reconstruct", "--dim", "16", "--state", "random:7",
              "--theta", "pi/2", "--shots", "exact")
    psi = state_vector("random:7", 16)
    check_exact_reconstruct_json(out, psi)

    def nudge(doc):
        doc["estimate"][3][1] += 1e-11

    edit_json(out, nudge)
    with pytest.raises(CheckFailed):
        check_exact_reconstruct_json(out, psi)


def test_sampled_reconstruct_check(tmp_path):
    out = run(tmp_path, "r.json", "reconstruct", "--dim", "16", "--state", "gaussian:4",
              "--theta", "pi/2", "--shots", "300000000", "--seed", "3")
    psi = state_vector("gaussian:4", 16)
    check_sampled_reconstruct_json(out, psi)

    def to_basis_state(doc):
        doc["estimate"] = [[1.0, 0.0]] + [[0.0, 0.0]] * 15

    edit_json(out, to_basis_state)
    with pytest.raises(CheckFailed):
        check_sampled_reconstruct_json(out, psi)


def sweep(tmp_path):
    return run(tmp_path, "s.csv", "sweep", "--dim", "4", "--state", "uniform",
               "--theta", "0.1,0.5,1.0,pi/2", "--shots", "300000", "--trials", "20",
               "--seed", "1", "--format", "csv")


def test_sweep_check_passes_a_genuine_sweep(tmp_path):
    check_sweep_csv(sweep(tmp_path), THETAS, 20)


def test_sweep_check_rejects_failed_trials(tmp_path):
    out = sweep(tmp_path)
    edit_csv(out, lambda rows: rows[2].update(failed_trials="1"))
    with pytest.raises(CheckFailed):
        check_sweep_csv(out, THETAS, 20)


def test_sweep_check_rejects_weak_coupling_winning(tmp_path):
    out = sweep(tmp_path)

    def swap(rows):
        rows[0]["rmse_l2"], rows[-1]["rmse_l2"] = rows[-1]["rmse_l2"], rows[0]["rmse_l2"]

    edit_csv(out, swap)
    with pytest.raises(CheckFailed):
        check_sweep_csv(out, THETAS, 20)


def test_sweep_check_rejects_a_missing_angle(tmp_path):
    out = sweep(tmp_path)
    edit_csv(out, lambda rows: rows.pop(1))
    with pytest.raises(CheckFailed):
        check_sweep_csv(out, THETAS, 20)
