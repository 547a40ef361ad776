"""Reconstruction quality metrics and the Monte Carlo trial harness.

Error statistics are phase-aware: each estimate is rotated to best match the
true state before differencing, so a physically irrelevant global phase never
inflates the error. rmse/bias/std use population normalization over trials,
which makes the decomposition rmse^2 = bias^2 + std^2 exact.

One scorer, _score, holds every scoring decision: the overlap with the
truth, the fidelity and its clamp to 1, the phase alignment and the squared
error of each row. It scores an (..., d) stack of unit rows; fidelity and
phase_aligned_l2 pass it a one-row stack, so a single pair and a trial of a
sweep are scored by the same arithmetic.

theta_sweep is the one trial harness; a one-angle run is
theta_sweep(psi, [theta], ...)[0]. It checks the angles and the seed, and
derives the seed's stream seed once; sampling.draw_trials draws each angle's
trials from its own restart of that stream. The (angles, trials, d, 6)
stack (one exact table per angle for an exact run) is inverted with
raw_amplitude, given an (angles, 1, 1) column of tan(theta/2), and
reconstruction.normalize_rows, the step reconstruct applies to its one row,
then scored at once. The unit rows, the kept mask and the scores all keep
the (angles, trials) layout of the draw, a failed trial's row in its place,
so each angle is then reduced over the kept rows of its own slice. A group
of angles holds at most _GROUP_ROWS (angle, trial, position) rows, or one
angle, so it never outgrows that budget or a one-angle run.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, require_integer
from .protocol import CouplingStrength, joint_probabilities
from .reconstruction import (
    ReconstructionResult,
    normalize_rows,
    raw_amplitude,
    raw_norm_floor,
    reconstruct,
)
from .sampling import derive_seed, draw_trials, measure_probsets, split_budget
from .states import SystemState

# (angle, trial, position) rows held by one group of angles; a group holds at least one angle
_GROUP_ROWS = 2**18


def _score(estimates: np.ndarray, truth: np.ndarray):
    """Fidelities, phase-aligned rows and squared errors of an (..., d) stack of unit rows.

    Each row is rotated by the global phase that best matches it to truth
    before differencing; a row orthogonal to truth is left as it is. The
    fidelity |<row|truth>|^2 is clamped to 1 against rounding.
    """
    if estimates.shape[-1:] != truth.shape:
        raise InvalidParameterError(f"shape mismatch: {estimates.shape[-1:]} vs {truth.shape}")
    overlaps = (estimates.conj() * truth).sum(axis=-1)
    mags = np.abs(overlaps)
    phases = np.divide(overlaps, mags, out=np.ones_like(overlaps), where=mags > 0)
    aligned = estimates * phases[..., None]
    squared_errors = (np.abs(aligned - truth) ** 2).sum(axis=-1)
    fidelities = np.minimum(overlaps.real**2 + overlaps.imag**2, 1.0)
    return fidelities, aligned, squared_errors


def fidelity(a: SystemState, b: SystemState) -> float:
    """Squared overlap |<a|b>|^2, invariant under global phases; clamped to 1 against rounding."""
    return float(_score(a.amplitudes[None], b.amplitudes)[0][0])


def phase_aligned_l2(a: SystemState, b: SystemState) -> float:
    """Minimum L2 distance between a and b over a global phase of a.

    This is the per-trial error whose mean square theta_sweep reports as rmse_l2.
    """
    return math.sqrt(float(_score(a.amplitudes[None], b.amplitudes)[2][0]))


class TrialStatistics(NamedTuple):
    """One row of the sweep table: quality of repeated reconstructions at one angle and budget.

    The fields are the table's columns, in column order: serialize.sweep_csv
    writes them as its header and cells, and the sweep's JSON results hold
    _asdict() of each row. rmse_se is a delta-method standard error of rmse_l2
    across trials; failed_trials counts reconstructions rejected by the
    raw-norm floor, which are excluded from every statistic. theta_sweep, the
    one producer, sets theta and the five statistics as Python floats, trials
    and failed_trials as Python ints, and shots_total as a Python int or
    "exact".
    """

    theta: float
    shots_total: int | str
    trials: int
    failed_trials: int
    mean_fidelity: float
    rmse_l2: float
    bias_l2: float
    std_l2: float
    rmse_se: float


def sampled_reconstruction(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int,
    seed: int,
) -> ReconstructionResult:
    """One finite-shot scan (measure_probsets) and its reconstruction; trials are theta_sweep's."""
    table, shots = measure_probsets(psi, strength, shots_total, seed)
    return reconstruct(table, strength, shots)


def theta_sweep(
    psi: SystemState,
    thetas,
    shots_total: int | str,
    trials: int,
    seed: int,
) -> list[TrialStatistics]:
    """Trial statistics at each angle with one budget and master seed, in one stacked pass.

    A budget of "exact" makes every trial the same noiseless reconstruction,
    so the spread collapses to zero and the estimate is reconstruct_exact's
    bit for bit. Every angle restarts the one stream of the master seed, so
    the angles draw from common random numbers; only trial 0 starts from the
    same stream state at every angle, because how much of the stream a draw
    uses depends on its probabilities. Angles go in groups of at most
    _GROUP_ROWS (angle, trial, position) rows, and at least one angle; the
    grouping moves no byte. thetas that are a string, bytes, not iterable
    or a numpy array that is not 1-D are refused first, then an angle that
    is not a real number in [0, pi], then a singular angle
    (DegenerateAngleError), then trials that are not an integer of at least
    2, then the budget (split_budget), then the seed (derive_seed, for an
    exact budget too); then the first angle whose trials all fail raises
    VanishingTildePsiError.
    """
    not_1d = isinstance(thetas, np.ndarray) and thetas.ndim != 1
    if not_1d or isinstance(thetas, (str, bytes)) or not isinstance(thetas, Iterable):
        raise InvalidParameterError(f"thetas must be a sequence of angles, got {thetas!r}")
    strengths = [CouplingStrength.coerce(t) for t in thetas]
    if not strengths:
        raise InvalidParameterError("need at least one angle")
    for strength in strengths:
        strength.require_invertible()
    require_integer(trials, "trials", 2)
    shots = None if shots_total == "exact" else split_budget(shots_total, psi.dim)
    stream_seed = derive_seed(seed)
    per_group = max(1, _GROUP_ROWS // ((1 if shots is None else trials) * psi.dim))
    groups = [strengths[i : i + per_group] for i in range(0, len(strengths), per_group)]
    stats = (_group_statistics(psi, g, shots_total, shots, trials, stream_seed) for g in groups)
    return [s for group in stats for s in group]


def _group_statistics(psi, strengths, shots_total, shots, trials, stream_seed):
    """Yield the TrialStatistics of each angle of one group, scored as one stack."""
    truth = psi.amplitudes
    # each step rebinds stack, which frees the step before it: the (angles, trials, d, 6)
    # tables are three times the size of the raw rows, and those are freed before scoring
    stack = np.stack([joint_probabilities(psi, strength) for strength in strengths])
    stack = stack[:, None] if shots is None else draw_trials(stack, shots, stream_seed, trials)
    stack = raw_amplitude(stack, np.reshape([s.tan_half for s in strengths], (-1, 1, 1)))
    stack, _, ok = normalize_rows(stack, raw_norm_floor(shots))
    for strength, kept, scores in zip(strengths, ok, zip(*_score(stack, truth))):
        # each angle reduces the kept rows of its own slice, summed as a one-angle run sums them
        fidelities, aligned, per_trial_sq = (score[kept] for score in scores)
        rmse = math.sqrt(float(per_trial_sq.mean()))
        mean_estimate = aligned.mean(axis=0)
        std = math.sqrt(float((np.abs(aligned - mean_estimate) ** 2).sum(axis=1).mean()))
        rmse_se = 0.0
        if len(aligned) > 1 and rmse > 0.0:
            rmse_se = float(per_trial_sq.std(ddof=1)) / math.sqrt(len(aligned)) / (2.0 * rmse)
        yield TrialStatistics(
            theta=strength.theta,
            shots_total=shots_total if shots is None else int(shots_total),
            trials=int(trials),
            failed_trials=len(kept) - len(aligned),
            mean_fidelity=float(np.mean(fidelities)),
            rmse_l2=rmse,
            bias_l2=float(np.linalg.norm(mean_estimate - truth)),
            std_l2=std,
            rmse_se=rmse_se,
        )
