"""Exception hierarchy for the direct-measurement simulator, and its integer rule.

Every invalid input raises InvalidParameterError; require_integer is the one
rule of every integer input, kept here so that every module can import it.
The two ways the method itself fails on valid input have their own classes:
a coupling angle at a singular point of the inversion (DegenerateAngleError)
and a state whose amplitude sum vanishes (VanishingTildePsiError).
"""

import numpy as np


class DirectMeasurementError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(DirectMeasurementError, ValueError):
    """An argument has a value or shape the operation does not accept."""


class ZeroPostSelectionError(DirectMeasurementError):
    """Post-selection probability is numerically zero; conditioning is undefined."""


class DegenerateAngleError(DirectMeasurementError):
    """Coupling angle with sin(theta) ~ 0 or theta ~ pi; inversion is singular there."""


class VanishingTildePsiError(DirectMeasurementError):
    """Raw estimate norm below threshold: the amplitude sum of the state is ~0."""


def require_integer(value, name: str, low: int = 0) -> None:
    """Refuse anything but a Python int or numpy integer >= low; a bool is refused too.

    This is the one rule of every seed (low 0), trial count, budget and dimension.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {value!r}")
