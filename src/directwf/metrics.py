"""Reconstruction quality metrics and Monte Carlo trial harnesses.

Error statistics are phase-aware: each estimate is rotated to best match the
true state before differencing, so a physically irrelevant global phase never
inflates the error. rmse/bias/std use population normalization over trials,
which makes the decomposition rmse^2 = bias^2 + std^2 exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import VanishingTildePsiError
from .protocol import CouplingStrength
from .reconstruction import (
    RAW_NORM_FLOOR,
    ReconstructionResult,
    reconstruct,
    reconstruct_exact,
    sampled_raw_norm_floor,
)
from .sampling import measure_probsets
from .states import SystemState, inner


def fidelity(a: SystemState, b: SystemState) -> float:
    """Squared overlap |<a|b>|^2; invariant under global phases of either state."""
    overlap = inner(a, b)
    return overlap.real * overlap.real + overlap.imag * overlap.imag


def phase_aligned_l2(a: SystemState, b: SystemState) -> float:
    """Minimum L2 distance over a global phase: sqrt(2 - 2|<a|b>|)."""
    overlap = abs(inner(a, b))
    return math.sqrt(max(0.0, 2.0 - 2.0 * overlap))


def _aligned_to(truth: SystemState, estimate: SystemState) -> np.ndarray:
    """Estimate amplitudes rotated by the phase that best matches the truth."""
    overlap = inner(estimate, truth)
    mag = abs(overlap)
    if mag == 0.0:
        return estimate.amplitudes.copy()
    return estimate.amplitudes * (overlap / mag)


@dataclass(frozen=True)
class TrialStatistics:
    """Aggregate quality of repeated reconstructions at one angle and budget.

    rmse_se is a delta-method standard error of rmse_l2 across trials;
    failed_trials counts reconstructions rejected by the raw-norm floor,
    which are excluded from every statistic.
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", float(self.theta))
        if self.shots_total != "exact":
            object.__setattr__(self, "shots_total", int(self.shots_total))
        object.__setattr__(self, "trials", int(self.trials))
        for name in ("mean_fidelity", "rmse_l2", "bias_l2", "std_l2", "rmse_se"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "failed_trials", int(self.failed_trials))


def sampled_reconstruction(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int,
    seed: int,
    *,
    trial: int = 0,
) -> ReconstructionResult:
    """One finite-shot experiment scan and its reconstruction.

    The raw-norm floor is widened to three sigma of the propagated shot noise
    so that a vanishing amplitude sum is distinguished from noise.
    """
    strength = CouplingStrength.coerce(strength)
    probsets, shots = measure_probsets(psi, strength, shots_total, seed, trial=trial)
    mean_shots = shots_total / (3 * psi.dim)
    floor = max(RAW_NORM_FLOOR, sampled_raw_norm_floor(mean_shots, psi.dim))
    result = reconstruct(probsets, strength, raw_norm_floor=floor)
    return replace(result, shots_used=tuple(shots.ravel().tolist()))


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

    Deterministic in all arguments: trial t draws from the one stream of
    (seed, t), and aggregation reduces in trial order.
    """
    strength = CouplingStrength.coerce(strength)
    strength.require_invertible()
    if trials < 2:
        raise ValueError(f"need at least 2 trials, got {trials}")
    truth = psi.amplitudes

    if shots_total == "exact":
        result = reconstruct_exact(psi, strength)
        err = float(np.linalg.norm(_aligned_to(psi, result.estimate) - truth))
        return TrialStatistics(
            theta=strength.theta,
            shots_total="exact",
            trials=trials,
            mean_fidelity=fidelity(result.estimate, psi),
            rmse_l2=err,
            bias_l2=err,
            std_l2=0.0,
            rmse_se=0.0,
            failed_trials=0,
        )

    aligned_rows = []
    fidelities = []
    failed = 0
    for t in range(trials):
        try:
            result = sampled_reconstruction(psi, strength, shots_total, seed, trial=t)
        except VanishingTildePsiError:
            failed += 1
            continue
        aligned_rows.append(_aligned_to(psi, result.estimate))
        fidelities.append(fidelity(result.estimate, psi))
    if not aligned_rows:
        raise VanishingTildePsiError(f"all {trials} trials fell below the raw-norm floor")

    aligned = np.array(aligned_rows)
    per_trial_sq = (np.abs(aligned - truth) ** 2).sum(axis=1)
    rmse = math.sqrt(float(per_trial_sq.mean()))
    mean_estimate = aligned.mean(axis=0)
    bias = float(np.linalg.norm(mean_estimate - truth))
    std = math.sqrt(float((np.abs(aligned - mean_estimate) ** 2).sum(axis=1).mean()))
    n_ok = len(aligned_rows)
    if n_ok > 1 and rmse > 0.0:
        rmse_se = float(per_trial_sq.std(ddof=1)) / math.sqrt(n_ok) / (2.0 * rmse)
    else:
        rmse_se = 0.0
    return TrialStatistics(
        theta=strength.theta,
        shots_total=int(shots_total),
        trials=trials,
        mean_fidelity=float(np.mean(fidelities)),
        rmse_l2=rmse,
        bias_l2=bias,
        std_l2=std,
        rmse_se=rmse_se,
        failed_trials=failed,
    )


def theta_sweep(
    psi: SystemState,
    thetas,
    shots_total: int | str,
    trials: int,
    seed: int,
) -> list[TrialStatistics]:
    """run_trials at each angle with an identical budget and master seed.

    Reusing the master seed across angles means a one-angle sweep equals the
    corresponding run_trials call, and angle comparisons share random draws.
    """
    strengths = [CouplingStrength.coerce(t) for t in thetas]
    if not strengths:
        raise ValueError("need at least one angle")
    for strength in strengths:
        strength.require_invertible()
    return [run_trials(psi, strength, shots_total, trials, seed) for strength in strengths]
