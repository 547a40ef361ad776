"""Exception hierarchy for the direct-measurement simulator."""


class DirectMeasurementError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(DirectMeasurementError, ValueError):
    """An argument has a value or shape the operation does not accept."""


class DimensionTooSmallError(DirectMeasurementError):
    """Requested system dimension is below the minimum of 2."""


class DimensionMismatchError(DirectMeasurementError):
    """Operands describe spaces of different dimensions or shapes."""


class ZeroVectorError(DirectMeasurementError):
    """An all-zero amplitude vector cannot be normalized."""


class NonFiniteAmplitudeError(DirectMeasurementError):
    """An amplitude is NaN or infinite."""


class ZeroPostSelectionError(DirectMeasurementError):
    """Post-selection probability is numerically zero; conditioning is undefined."""


class DegenerateAngleError(DirectMeasurementError):
    """Coupling angle with sin(theta) ~ 0 or theta ~ pi; inversion is singular there."""


class VanishingTildePsiError(DirectMeasurementError):
    """Raw estimate norm below threshold: the amplitude sum of the state is ~0."""


class InvalidDistributionError(DirectMeasurementError):
    """Probability vector has negative entries or does not sum to one."""
