"""Exception hierarchy for the direct-measurement simulator.

Every invalid input raises InvalidParameterError. The two ways the method
itself fails on valid input have their own classes: a coupling angle at a
singular point of the inversion (DegenerateAngleError) and a state whose
amplitude sum vanishes (VanishingTildePsiError).
"""


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
