"""Reconstruction quality metrics and Monte Carlo trial harnesses.

Error statistics are phase-aware: each estimate is rotated to best match the
true state before differencing, so a physically irrelevant global phase never
inflates the error. rmse/bias/std use population normalization over trials,
which makes the decomposition rmse^2 = bias^2 + std^2 exact.

run_trials draws every trial in one sampling.measure_probsets call, inverts
the (trials, d, 6) stack (a one-row stack, the exact table, for an exact run)
with raw_amplitude and reconstruction.normalize_rows, the step reconstruct
applies to its one row, and phase-aligns the rows to the truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .protocol import CouplingStrength, joint_probabilities
from .reconstruction import (
    ReconstructionResult,
    normalize_rows,
    raw_amplitude,
    raw_norm_floor,
    reconstruct,
)
from .sampling import measure_probsets
from .states import SystemState, inner


def fidelity(a: SystemState, b: SystemState) -> float:
    """Squared overlap |<a|b>|^2, invariant under global phases; clamped to 1 against rounding."""
    overlap = inner(a, b)
    return min(overlap.real * overlap.real + overlap.imag * overlap.imag, 1.0)


def phase_aligned_l2(a: SystemState, b: SystemState) -> float:
    """Minimum L2 distance over a global phase: sqrt(2 - 2|<a|b>|)."""
    overlap = abs(inner(a, b))
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


@dataclass(frozen=True)
class TrialStatistics:
    """Aggregate quality of repeated reconstructions at one angle and budget.

    rmse_se is a delta-method standard error of rmse_l2 across trials;
    failed_trials counts reconstructions rejected by the raw-norm floor,
    which are excluded from every statistic. run_trials, the one producer,
    sets theta and the five statistics as Python floats, trials and
    failed_trials as Python ints, and shots_total as a Python int or "exact".
    """

    theta: float
    shots_total: int | str
    trials: int
    mean_fidelity: float
    rmse_l2: float
    bias_l2: float
    std_l2: float
    rmse_se: float
    failed_trials: int


def sampled_reconstruction(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int,
    seed: int,
) -> ReconstructionResult:
    """One finite-shot experiment scan, trial 0 of seed, and its reconstruction."""
    tables, shots = measure_probsets(psi, strength, shots_total, seed)
    return reconstruct(tables[0], strength, shots)


def run_trials(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int | str,
    trials: int,
    seed: int,
) -> TrialStatistics:
    """Repeat sampled reconstructions and aggregate error statistics.

    shots_total may be the string "exact", in which case every trial is the
    same noiseless reconstruction and the spread collapses to zero. Trials
    rejected by the raw-norm floor are counted in failed_trials and excluded;
    if every trial fails, VanishingTildePsiError propagates.

    Deterministic in all arguments: the trials are drawn consecutively from
    the one stream of seed, so the first T' of them do not depend on trials,
    and aggregation reduces in trial order. Inversion shares
    normalize_rows with reconstruct and overlaps reduce along the last axis,
    as states.inner does, so an exact run reproduces reconstruct_exact bit for bit.
    """
    strength = CouplingStrength.coerce(strength)
    strength.require_invertible()
    if trials < 2:
        raise InvalidParameterError(f"need at least 2 trials, got {trials}")
    truth = psi.amplitudes

    if shots_total == "exact":
        tables, shots = joint_probabilities(psi, strength)[None], None
    else:
        tables, shots = measure_probsets(psi, strength, shots_total, seed, trials)
    raw = raw_amplitude(tables, strength)
    del tables  # three times the size of raw; freed before the stacks that follow
    estimates, _, ok = normalize_rows(raw, raw_norm_floor(shots))
    overlaps = (estimates.conj() * truth).sum(axis=-1)
    mags = np.abs(overlaps)
    aligned = estimates * np.divide(
        overlaps, mags, out=np.ones_like(overlaps), where=mags > 0
    )[:, None]

    per_trial_sq = (np.abs(aligned - truth) ** 2).sum(axis=1)
    rmse = math.sqrt(float(per_trial_sq.mean()))
    mean_estimate = aligned.mean(axis=0)
    bias = float(np.linalg.norm(mean_estimate - truth))
    std = math.sqrt(float((np.abs(aligned - mean_estimate) ** 2).sum(axis=1).mean()))
    n_ok = len(aligned)
    if n_ok > 1 and rmse > 0.0:
        rmse_se = float(per_trial_sq.std(ddof=1)) / math.sqrt(n_ok) / (2.0 * rmse)
    else:
        rmse_se = 0.0
    return TrialStatistics(
        theta=strength.theta,
        shots_total=shots_total if shots_total == "exact" else int(shots_total),
        trials=int(trials),
        mean_fidelity=float(np.mean(np.minimum(overlaps.real**2 + overlaps.imag**2, 1.0))),
        rmse_l2=rmse,
        bias_l2=bias,
        std_l2=std,
        rmse_se=rmse_se,
        failed_trials=len(ok) - n_ok,
    )


def theta_sweep(
    psi: SystemState,
    thetas,
    shots_total: int | str,
    trials: int,
    seed: int,
) -> list[TrialStatistics]:
    """run_trials at each angle with an identical budget and master seed.

    Every angle restarts the one stream of the master seed, so a one-angle
    sweep equals the corresponding run_trials call and the angles draw from
    common random numbers. Only trial 0 starts from the same stream state at
    every angle: how much of the stream a draw uses depends on its
    probabilities, so later trials need not line up.
    """
    strengths = [CouplingStrength.coerce(t) for t in thetas]
    if not strengths:
        raise InvalidParameterError("need at least one angle")
    for strength in strengths:
        strength.require_invertible()
    return [run_trials(psi, strength, shots_total, trials, seed) for strength in strengths]
