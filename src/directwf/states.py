"""State vectors for the d-level system and the reference kets of the qubit pointer.

Conventions:

* System amplitudes are indexed by position x in [0, d).
* Pointer amplitudes are pairs (component of |0>, component of |1>).
* Six reference pointer kets, one per measured outcome, are fixed in the
  order OUTCOMES; every per-position probability table uses that column
  order.
* State objects are immutable; their arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InvalidParameterError,
    NonFiniteAmplitudeError,
    ZeroVectorError,
)

NORM_TOL = 1e-12

OUTCOMES = ("plus", "minus", "zero", "one", "L", "R")

_SQRT2_INV = 1.0 / math.sqrt(2.0)

# (6, 2) pointer kets; row i is the ket of outcome OUTCOMES[i]
POINTER_KETS = np.array(
    [
        (_SQRT2_INV, _SQRT2_INV),
        (_SQRT2_INV, -_SQRT2_INV),
        (1.0, 0.0),
        (0.0, 1.0),
        (_SQRT2_INV, 1j * _SQRT2_INV),
        (_SQRT2_INV, -1j * _SQRT2_INV),
    ],
    dtype=np.complex128,
)
POINTER_KETS.setflags(write=False)


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SystemState:
    """Unit-norm complex amplitude vector over d >= 2 positions."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _readonly(self.amplitudes)
        if amps.ndim != 1:
            raise DimensionMismatchError("system amplitudes must form a 1-d sequence")
        if amps.size < 2:
            raise DimensionTooSmallError(f"need d >= 2 positions, got {amps.size}")
        # written so that a NaN norm fails too
        if not abs(np.linalg.norm(amps) - 1.0) <= NORM_TOL:
            raise InvalidParameterError("system state must have unit norm; use make_system_state")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def make_system_state(raw) -> SystemState:
    """Normalize a complex amplitude sequence into a SystemState.

    Raises DimensionTooSmallError for fewer than two entries,
    NonFiniteAmplitudeError for a NaN or infinite entry and ZeroVectorError
    when every entry is zero. The vector is scaled by its largest magnitude
    before the norm is taken, so tiny and huge inputs neither underflow nor
    overflow.
    """
    amps = np.asarray(raw, dtype=np.complex128)
    if amps.ndim != 1:
        raise DimensionMismatchError("expected a 1-d amplitude sequence")
    if amps.size < 2:
        raise DimensionTooSmallError(f"need d >= 2 positions, got {amps.size}")
    if not np.isfinite(amps).all():
        raise NonFiniteAmplitudeError("amplitudes must be finite, got NaN or infinity")
    scale = float(np.abs(amps).max())
    if scale == 0.0:
        raise ZeroVectorError("cannot normalize an all-zero amplitude vector")
    amps = amps / scale
    return SystemState(amps / np.linalg.norm(amps))


def momentum_zero_state(d: int) -> SystemState:
    """Uniform superposition over all d positions, amplitude 1/sqrt(d) each."""
    if d < 2:
        raise DimensionTooSmallError(f"need d >= 2, got {d}")
    return SystemState(np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128))


def inner(a, b) -> complex:
    """Inner product, conjugate-linear in the first argument.

    Accepts state objects or plain array-likes of equal shape.
    """
    av = np.asarray(getattr(a, "amplitudes", a))
    bv = np.asarray(getattr(b, "amplitudes", b))
    if av.shape != bv.shape:
        raise DimensionMismatchError(f"shape mismatch: {av.shape} vs {bv.shape}")
    # summed along the last axis like the (trials, d) overlaps of metrics.run_trials
    return complex((av.conj() * bv).sum(axis=-1))
