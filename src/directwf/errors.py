"""Exception hierarchy for the direct-measurement simulator, and its input rules.

Every invalid input raises InvalidParameterError. Two rules are kept here so
that every module can import them: require_integer, the one rule of every
integer input, and require_array, the one rule of every input array
(amplitudes, probability tables and shots). require_array refuses what numpy
cannot form into one array, such as a ragged nesting, and a dtype outside the
kinds its caller allows, such as strings, None, dicts or complex numbers where
real ones are needed, before anything is converted.
The two ways the method itself fails on valid input have their own classes:
a coupling angle at a singular point of the inversion (DegenerateAngleError)
and a raw estimate too small to invert (VanishingTildePsiError), whose norm
shrinks with the state's amplitude sum and with sin(theta)/d, and whose floor
grows as a sampled table's shots per setting fall. With the base class
DirectMeasurementError, these four are the package's exceptions.
"""

import numpy as np


class DirectMeasurementError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(DirectMeasurementError, ValueError):
    """An argument has a value or shape the operation does not accept."""


class DegenerateAngleError(DirectMeasurementError):
    """Coupling angle with sin(theta) ~ 0 or theta ~ pi; inversion is singular there."""


class VanishingTildePsiError(DirectMeasurementError):
    """Raw estimate norm at or below its floor, so the inversion is refused.

    A small amplitude sum |S|, a small sin(theta)/d or, for a sampled table, few
    shots per setting (which raise the floor) can each cause it.
    """


def require_integer(value, name: str, low: int = 0) -> None:
    """Refuse anything but a Python int or numpy integer >= low; a bool is refused too.

    This is the one rule of every seed (low 0), trial count, budget and dimension.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise InvalidParameterError(f"{name} must be an integer >= {low}, got {value!r}")


def require_array(value, name: str, kinds: str) -> np.ndarray:
    """Form value into an array whose dtype kind is one of kinds; it is returned unconverted.

    This is the one rule of every input array: amplitudes take kinds "biufc",
    probability tables "biuf" and shots "iu". Checking the kind before any
    conversion means that an imaginary part is never dropped and a string never
    parsed as a number.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:  # numpy refuses a ragged nesting
        raise InvalidParameterError(f"{name} must form an array: {exc}") from None
    if array.dtype.kind not in kinds:
        what = "numbers" if "c" in kinds else "real numbers" if "f" in kinds else "integers"
        raise InvalidParameterError(f"{name} must be {what}, got dtype {array.dtype}")
    return array
