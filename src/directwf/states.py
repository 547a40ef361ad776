"""State vectors for the d-level system and the reference kets of the qubit pointer.

Conventions:

* System amplitudes are indexed by position x in [0, d).
* Pointer amplitudes are pairs (component of |0>, component of |1>).
* Six reference pointer kets, one per measured outcome, are fixed in the
  order OUTCOMES; every per-position probability table uses that column
  order.
* The per-setting layout is defined here and nowhere else: BASIS_OUTCOMES
  maps each pointer basis to its two outcomes (a, b), BASES lists the bases
  in draw order (the shots columns of sampling.split_budget), and
  PAIR_COLUMNS holds each basis's (a, b) table columns. basis_pair reads a
  basis's two columns of a table as views, so no caller copies the table to
  read a pair.
* State objects are immutable; their arrays are read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, require_array, require_integer

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

# each basis, in draw order, and its outcomes (a, b): |a><a| - |b><b| is the basis's Pauli matrix
BASIS_OUTCOMES = {"X": ("plus", "minus"), "Y": ("L", "R"), "Z": ("zero", "one")}
BASES = tuple(BASIS_OUTCOMES)

# table columns of each basis's (a, b), in BASES order; as an index, it selects a (3, 2) block
PAIR_COLUMNS = tuple(tuple(OUTCOMES.index(o) for o in BASIS_OUTCOMES[b]) for b in BASES)


def basis_pair(table, basis: str):
    """Views of the (a, b) columns of basis in an array whose last axis is in OUTCOMES order."""
    a, b = PAIR_COLUMNS[BASES.index(basis)]
    return table[..., a], table[..., b]


def _amplitudes(values) -> np.ndarray:
    """The amplitude rule of make_system_state and SystemState: numbers, 1-d, d >= 2.

    Returns a read-only complex copy, so that a state never shares its array
    with the caller that passed it.
    """
    amps = require_array(values, "amplitudes", "biufc").astype(np.complex128)
    if amps.ndim != 1:
        raise InvalidParameterError("system amplitudes must form a 1-d sequence")
    if amps.size < 2:
        raise InvalidParameterError(f"need d >= 2 positions, got {amps.size}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True, eq=False)
class SystemState:
    """Unit-norm complex amplitude vector over d >= 2 positions."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = _amplitudes(self.amplitudes)
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(amps)
        # written so that a NaN norm fails too
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvalidParameterError("system state must have unit norm; use make_system_state")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def make_system_state(raw) -> SystemState:
    """Normalize a complex amplitude sequence into a SystemState.

    Raises InvalidParameterError for entries that are not numbers or do not
    form an array, fewer than two entries, a NaN or infinite entry, or every
    entry zero. The vector is scaled by its largest magnitude before the norm
    is taken, so tiny and huge inputs neither underflow nor overflow.
    """
    amps = _amplitudes(raw)
    if not np.isfinite(amps).all():
        raise InvalidParameterError("amplitudes must be finite, got NaN or infinity")
    scale = float(np.abs(amps).max())
    if scale == 0.0:
        raise InvalidParameterError("cannot normalize an all-zero amplitude vector")
    if scale < np.finfo(np.float64).tiny:
        # numpy divides by a subnormal scale as a multiply by 1/scale, which
        # overflows; an exact power of two lifts the entries to normal range
        amps, scale = amps * 2.0**600, scale * 2.0**600
    amps = amps / scale
    return SystemState(amps / np.linalg.norm(amps))


def momentum_zero_state(d: int) -> SystemState:
    """Uniform superposition over all d positions, amplitude 1/sqrt(d) each."""
    require_integer(d, "d", 2)
    return SystemState(np.full(d, 1.0 / math.sqrt(d), dtype=np.complex128))

