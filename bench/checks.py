"""Correctness checks on the CLI's output files, computed without the program.

The truth states and the exact joint probabilities are rebuilt here from
their definitions (the state presets and the closed form of the coupled,
momentum-zero-projected pointer state), so a check never trusts a value the
program computed. No check depends on how sampled runs derive their seeds.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

EXACT_TOL = 1e-12
MIN_SAMPLED_FIDELITY = 0.98

PROBABILITY_COLUMNS = ("p_plus", "p_minus", "p_zero", "p_one", "p_L", "p_R", "p_postselect")


class CheckFailed(Exception):
    """An output file disagrees with the expected result."""


def state_vector(spec: str, dim: int) -> np.ndarray:
    """Unit-norm amplitudes of a CLI state preset: uniform, gaussian:s, random:s."""
    kind, _, arg = spec.partition(":")
    if kind == "uniform":
        vec = np.ones(dim, dtype=np.complex128)
    elif kind == "gaussian":
        sigma = float(arg)
        xs = np.arange(dim, dtype=np.float64)
        vec = np.exp(-((xs - 0.5 * (dim - 1)) ** 2) / (4.0 * sigma * sigma)).astype(np.complex128)
    elif kind == "random":
        # The preset redraws until the amplitude sum clears 0.1.
        rng = np.random.default_rng(int(arg))
        for _ in range(1000):
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec = vec / np.linalg.norm(vec)
            if abs(vec.sum()) > 0.1:
                break
        else:
            raise ValueError(f"{spec!r}: no draw cleared the amplitude-sum floor")
    else:
        raise ValueError(f"unsupported state spec {spec!r}")
    return vec / np.linalg.norm(vec)


def phase_conventioned(psi: np.ndarray) -> np.ndarray:
    """psi rotated so that its amplitude sum is real and nonnegative."""
    total = psi.sum()
    return psi * (total.conjugate() / abs(total))


def closed_form_probabilities(psi: np.ndarray, theta: float) -> np.ndarray:
    """(d, 7) exact joint probabilities in PROBABILITY_COLUMNS order.

    After coupling at x and projecting onto momentum zero the pointer is
    phi_x = (S - (1 - cos theta) psi_x, sin theta psi_x) / sqrt(d), S = sum psi.
    """
    d = psi.size
    phi0 = (psi.sum() - (1.0 - math.cos(theta)) * psi) / math.sqrt(d)
    phi1 = math.sin(theta) * psi / math.sqrt(d)
    plus, minus = (phi0 + phi1) / math.sqrt(2), (phi0 - phi1) / math.sqrt(2)
    left, right = (phi0 - 1j * phi1) / math.sqrt(2), (phi0 + 1j * phi1) / math.sqrt(2)
    table = np.abs(np.stack([plus, minus, phi0, phi1, left, right], axis=1)) ** 2
    return np.column_stack([table, table[:, 0] + table[:, 1]])


def _read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _complex_vector(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise CheckFailed("expected a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def check_exact_simulate_csv(path, psi: np.ndarray, theta: float) -> None:
    rows = _read_csv(path)
    if len(rows) != psi.size:
        raise CheckFailed(f"{len(rows)} rows, expected {psi.size}")
    if [int(r["x"]) for r in rows] != list(range(psi.size)):
        raise CheckFailed("positions out of order")
    got = np.array([[float(r[c]) for c in PROBABILITY_COLUMNS] for r in rows])
    err = float(np.max(np.abs(got - closed_form_probabilities(psi, theta))))
    if not err <= EXACT_TOL:
        raise CheckFailed(f"probabilities off the closed form by {err:.3e}")


def check_exact_reconstruct_json(path, psi: np.ndarray) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    estimate = _complex_vector(doc["estimate"])
    if estimate.size != psi.size:
        raise CheckFailed(f"estimate has {estimate.size} entries, expected {psi.size}")
    err = float(np.max(np.abs(estimate - phase_conventioned(psi))))
    if not err <= EXACT_TOL:
        raise CheckFailed(f"estimate off the phase-conventioned truth by {err:.3e}")


def check_sampled_reconstruct_json(path, psi: np.ndarray) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    estimate = _complex_vector(doc["estimate"])
    if estimate.size != psi.size:
        raise CheckFailed(f"estimate has {estimate.size} entries, expected {psi.size}")
    norm = float(np.linalg.norm(estimate))
    fid = abs(np.vdot(estimate, psi)) ** 2 / (norm * norm) if norm > 0 else 0.0
    if not fid >= MIN_SAMPLED_FIDELITY:
        raise CheckFailed(f"fidelity {fid:.4f} below {MIN_SAMPLED_FIDELITY}")


def check_sweep_csv(path, thetas, trials: int) -> None:
    """Every angle present, no failed trial, and the strongest angle beats the weakest."""
    rows = _read_csv(path)
    got = [float(r["theta"]) for r in rows]
    if len(got) != len(thetas) or any(abs(a - b) > 1e-15 for a, b in zip(got, thetas)):
        raise CheckFailed(f"angles {got}, expected {list(thetas)}")
    for r in rows:
        if int(r["trials"]) != trials or int(r["failed_trials"]) != 0:
            raise CheckFailed(f"theta={r['theta']}: {r['failed_trials']} of {r['trials']} trials failed")
    rmse = {float(r["theta"]): float(r["rmse_l2"]) for r in rows}
    strong, weak = rmse[max(thetas)], rmse[min(thetas)]
    if not strong < weak:
        raise CheckFailed(f"rmse_l2 {strong} at the strongest angle is not below {weak}")
