"""Inversion of joint probabilities into complex amplitudes.

Each position contributes one linear combination of its six joint
probabilities. That combination is proportional to the amplitude at the
coupled position with an x-independent prefactor, so the prefactor is fixed
afterwards by imposing unit norm, and the leftover global phase is fixed by
making the amplitude sum real and nonnegative (phase_convention); one
function, normalize_rows, does both for reconstruct and metrics.run_trials.
The map is the same for an exact table and for one estimated from shots; only
the raw-norm floor depends on the shots, and raw_norm_floor is its one rule.
The method is singular when the amplitude sum of the state vanishes; a raw
vector at or below the floor is reported as VanishingTildePsiError instead of
returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidDistributionError,
    InvalidParameterError,
    VanishingTildePsiError,
)
from .protocol import CouplingStrength, joint_probabilities, postselection
from .states import OUTCOMES, SystemState

RAW_NORM_FLOOR = 1e-9

_RANGE_TOL = 1e-12


def raw_norm_floor(shots=None) -> float:
    """Raw-vector norm at or below which an inversion is rejected.

    An exact table (shots None) gets RAW_NORM_FLOOR. A sampled table passes
    the (d, 3) shots of its settings, and the floor widens to three sigma of
    shot noise, 3 sqrt(6 / (N d)) with N the mean shots per setting.
    """
    if shots is None:
        return RAW_NORM_FLOOR
    shots = np.asarray(shots)
    mean_shots = int(shots.sum()) / shots.size
    return max(RAW_NORM_FLOOR, 3.0 * math.sqrt(6.0 / (mean_shots * len(shots))))


@dataclass(frozen=True, eq=False)
class RawEstimate:
    """Per-position inversion output before normalization."""

    per_x: np.ndarray
    theta: CouplingStrength
    dim: int

    def __post_init__(self) -> None:
        per_x = np.array(self.per_x, dtype=np.complex128)
        per_x.setflags(write=False)
        if per_x.ndim != 1 or per_x.size != self.dim:
            raise InvalidParameterError("raw estimate must hold one complex value per position")
        object.__setattr__(self, "per_x", per_x)
        object.__setattr__(self, "dim", int(self.dim))


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Reconstructed state plus diagnostics.

    shots_used is "exact" for noiseless pipelines, otherwise the per-setting
    shot counts ordered by (position, basis).
    """

    estimate: SystemState
    raw: RawEstimate
    tilde_psi_magnitude: float
    postselection_probability: float
    shots_used: tuple[int, ...] | str

    def __post_init__(self) -> None:
        object.__setattr__(self, "tilde_psi_magnitude", float(self.tilde_psi_magnitude))
        object.__setattr__(
            self, "postselection_probability", float(self.postselection_probability)
        )


def phase_convention(amps: np.ndarray) -> np.ndarray:
    """Rotate a vector by a global phase so its component sum is real and nonnegative.

    Estimates and the truth they are compared with both use this convention.
    A stack of vectors is rotated row by row along the last axis. A row whose
    components sum to zero is left as it is, and an input whose rows all sum
    to zero is returned unchanged.
    """
    total = amps.sum(axis=-1, keepdims=True)
    mag = np.abs(total)
    if not mag.any():
        return amps
    return amps * np.divide(total.conj(), mag, out=np.ones_like(total), where=mag > 0)


def normalize_rows(raw: np.ndarray, floor: float):
    """Unit rows in the phase convention, row norms and kept mask of an (n, d) raw stack.

    Rows at or below the floor are dropped; if all are, VanishingTildePsiError.
    """
    norms = np.linalg.norm(raw, axis=-1)
    ok = norms > floor
    if not ok.any():
        raise VanishingTildePsiError(
            f"raw estimate norm {norms.max():.3e} at or below floor {floor:.3e};"
            " the amplitude sum of the state is too close to zero to invert"
        )
    return phase_convention(raw[ok] / norms[ok, None]), norms, ok


def raw_amplitude(table, strength: CouplingStrength | float):
    """Linear combination of the joint probabilities of each row.

    Takes one row or a (d, 6) table, columns in states.OUTCOMES order, and
    returns one complex value per row. Affine in every entry; fed exact
    probabilities it is proportional to the amplitude at the coupled
    position, with a prefactor common to all x.
    """
    strength = CouplingStrength.coerce(strength)
    strength.require_invertible()
    plus, minus, _, one, left, right = np.moveaxis(np.asarray(table, dtype=np.float64), -1, 0)
    return (plus - minus + 2.0 * one * strength.tan_half) + 1j * (left - right)


def reconstruct(
    table,
    strength: CouplingStrength | float,
    shots=None,
) -> ReconstructionResult:
    """Invert a (d, 6) joint-probability table into a normalized state.

    Parameters
    ----------
    table : row x holds the joint probabilities of coupling position x,
        columns in states.OUTCOMES order
    strength : coupling angle used when the probabilities were produced
    shots : None for an exact table; for a sampled one, the (d, 3) integer
        shots, each at least 1, of its settings as sampling.measure_probsets
        returns them. They set the raw-norm floor (raw_norm_floor) and
        shots_used.

    The recovered magnitude of the amplitude sum comes from the prefactor
    identity: the raw vector norm equals (2/d) * |sum_x psi_x| * sin(theta).
    """
    strength = CouplingStrength.coerce(strength)
    strength.require_invertible()
    table = np.asarray(table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(OUTCOMES):
        raise DimensionMismatchError(
            f"expected a (d, {len(OUTCOMES)}) probability table, got shape {table.shape}"
        )
    d = table.shape[0]
    if d < 2:
        raise DimensionTooSmallError(f"need probabilities for d >= 2 positions, got {d}")
    if not ((table >= -_RANGE_TOL) & (table <= 1.0 + _RANGE_TOL)).all():
        raise InvalidDistributionError("joint probabilities must lie in [0, 1]")
    if shots is not None:
        shots = np.asarray(shots)
        if shots.shape != (d, 3):
            raise DimensionMismatchError(f"expected ({d}, 3) shots, got shape {shots.shape}")
        if not (np.issubdtype(shots.dtype, np.integer) and (shots >= 1).all()):
            raise InvalidParameterError("shots must be integers of at least 1 per setting")
    raw = raw_amplitude(table, strength)
    units, norms, _ = normalize_rows(raw[None], raw_norm_floor(shots))
    return ReconstructionResult(
        estimate=SystemState(units[0]),
        raw=RawEstimate(per_x=raw, theta=strength, dim=d),
        tilde_psi_magnitude=d * norms[0] / (2.0 * strength.sin),
        postselection_probability=float(postselection(table).mean()),
        shots_used="exact" if shots is None else tuple(shots.ravel().tolist()),
    )


def reconstruct_exact(
    psi: SystemState, strength: CouplingStrength | float
) -> ReconstructionResult:
    """Read off the exact joint-probability table of psi and invert it.

    Round-trips any state whose amplitude sum is well away from zero: the
    estimate matches the input up to global phase at double precision.
    """
    strength = CouplingStrength.coerce(strength)
    return reconstruct(joint_probabilities(psi, strength), strength)
