"""Qubit-pointer coupling and the probabilities it induces, in closed form.

The interaction at position x rotates the pointer conditioned on the system
occupying |x>: pointer |0> goes to cos(theta)|0> + sin(theta)|1> and |1> to
-sin(theta)|0> + cos(theta)|1>, while every other position is untouched.
Projecting the coupled state onto the momentum-zero system state leaves the
sub-normalized pointer state

    phi_x = (S - (1 - cos(theta)) psi_x, sin(theta) psi_x) / sqrt(d),

where S is the amplitude sum of psi, so no joint state is ever built. The
squared overlaps of phi_x with the six reference pointer kets are joint
probabilities of (momentum-zero, pointer outcome) events and need no
renormalization. They form one (d, 6) table, row x for coupling position x
and columns in the order states.OUTCOMES. Dividing a row by its
post-selection probability gives the conditional probabilities seen inside
the post-selected ensemble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngleError, InvalidParameterError, ZeroPostSelectionError
from .states import POINTER_KETS, SystemState

SIN_THETA_FLOOR = 1e-9
POSTSELECTION_FLOOR = 1e-300


@dataclass(frozen=True)
class CouplingStrength:
    """Pointer rotation angle theta in radians, restricted to [0, pi].

    The endpoints are allowed for limit studies; operations that invert
    probabilities into amplitudes call require_invertible() first.
    """

    theta: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not (math.isfinite(theta) and 0.0 <= theta <= math.pi):
            raise InvalidParameterError(f"theta must lie in [0, pi], got {self.theta!r}")
        object.__setattr__(self, "theta", theta)

    @classmethod
    def coerce(cls, value: CouplingStrength | float) -> CouplingStrength:
        return value if isinstance(value, cls) else cls(float(value))

    @property
    def sin(self) -> float:
        return math.sin(self.theta)

    @property
    def cos(self) -> float:
        return math.cos(self.theta)

    @property
    def tan_half(self) -> float:
        return math.tan(0.5 * self.theta)

    def require_invertible(self) -> None:
        """Reject angles where the probability-to-amplitude map is singular."""
        if self.sin <= SIN_THETA_FLOOR or abs(self.theta - math.pi) <= SIN_THETA_FLOOR:
            raise DegenerateAngleError(
                f"theta={self.theta!r}: sin(theta) vanishes or theta sits at the"
                " tan(theta/2) pole"
            )


def pointer_amplitudes(psi: SystemState, strength: CouplingStrength | float) -> np.ndarray:
    """(d, 2) pointer amplitudes left by coupling at x and projecting on momentum zero.

    Row x is phi_x; its squared norm is the post-selection probability of
    coupling position x.
    """
    strength = CouplingStrength.coerce(strength)
    amps = psi.amplitudes
    phi = np.empty((amps.size, 2), dtype=np.complex128)
    phi[:, 0] = amps.sum() - (1.0 - strength.cos) * amps
    phi[:, 1] = strength.sin * amps
    return phi / math.sqrt(amps.size)


def joint_probabilities(psi: SystemState, strength: CouplingStrength | float) -> np.ndarray:
    """(d, 6) joint probabilities of momentum zero with each pointer outcome.

    Row x belongs to coupling position x; columns follow states.OUTCOMES.
    """
    overlaps = pointer_amplitudes(psi, strength) @ POINTER_KETS.conj().T
    return overlaps.real**2 + overlaps.imag**2


def postselection(table) -> np.ndarray:
    """Post-selection probability of each row, taken from the plus/minus pair sum.

    For exact rows the three basis pair sums agree; sampled rows estimate
    each basis from independent counts, so they agree only in expectation.
    """
    table = np.asarray(table, dtype=np.float64)
    return table[..., 0] + table[..., 1]


def conditional_probabilities(table) -> np.ndarray:
    """Divide every row by its post-selection probability (Bayes' rule)."""
    table = np.asarray(table, dtype=np.float64)
    total = postselection(table)
    if (total < POSTSELECTION_FLOOR).any():
        raise ZeroPostSelectionError(
            f"post-selection probability {np.min(total)!r} is numerically zero"
        )
    return table / total[..., None]
