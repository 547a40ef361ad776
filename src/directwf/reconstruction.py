"""Inversion of joint probabilities into complex amplitudes.

Each position contributes one linear combination of its six joint
probabilities. That combination is proportional to the amplitude at the
coupled position with an x-independent prefactor, so the prefactor is fixed
afterwards by imposing unit norm, and the leftover global phase is fixed by
making the amplitude sum real and nonnegative (phase_convention). The method
is singular when the amplitude sum of the state vanishes; that case is
reported as VanishingTildePsiError instead of returning garbage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidDistributionError,
    VanishingTildePsiError,
)
from .protocol import CouplingStrength, joint_probabilities, postselection
from .states import OUTCOMES, SystemState

RAW_NORM_FLOOR = 1e-9

_RANGE_TOL = 1e-12


def sampled_raw_norm_floor(shots_per_setting: float, d: int) -> float:
    """Noise-aware floor for the raw-vector norm: three sigma of shot noise."""
    return 3.0 * math.sqrt(6.0 / (shots_per_setting * d))


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
            raise ValueError("raw estimate must hold one complex value per position")
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
    A vector whose components sum to zero is returned unchanged.
    """
    total = amps.sum()
    if total == 0:
        return amps
    return amps * (total.conjugate() / abs(total))


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
    *,
    raw_norm_floor: float = RAW_NORM_FLOOR,
) -> ReconstructionResult:
    """Invert a (d, 6) joint-probability table into a normalized state.

    Parameters
    ----------
    table : row x holds the joint probabilities of coupling position x,
        columns in states.OUTCOMES order
    strength : coupling angle used when the probabilities were produced
    raw_norm_floor : reject the inversion when the unnormalized estimate
        vector is this short; callers with shot noise should widen it
        (see sampled_raw_norm_floor).

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
    raw = raw_amplitude(table, strength)
    norm = float(np.linalg.norm(raw))
    if norm <= raw_norm_floor:
        raise VanishingTildePsiError(
            f"raw estimate norm {norm:.3e} at or below floor {raw_norm_floor:.3e};"
            " the amplitude sum of the state is too close to zero to invert"
        )
    return ReconstructionResult(
        estimate=SystemState(phase_convention(raw / norm)),
        raw=RawEstimate(per_x=raw, theta=strength, dim=d),
        tilde_psi_magnitude=d * norm / (2.0 * strength.sin),
        postselection_probability=float(postselection(table).mean()),
        shots_used="exact",
    )


def reconstruct_exact(
    psi: SystemState,
    strength: CouplingStrength | float,
    *,
    raw_norm_floor: float = RAW_NORM_FLOOR,
) -> ReconstructionResult:
    """Read off the exact joint-probability table of psi and invert it.

    Round-trips any state whose amplitude sum is well away from zero: the
    estimate matches the input up to global phase at double precision.
    """
    strength = CouplingStrength.coerce(strength)
    return reconstruct(
        joint_probabilities(psi, strength), strength, raw_norm_floor=raw_norm_floor
    )
