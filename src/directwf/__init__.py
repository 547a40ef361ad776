"""Direct measurement of a d-dimensional wavefunction with a qubit pointer.

The package simulates the protocol end to end: couple a pointer qubit to one
position at a time, read out joint (momentum-zero, pointer-outcome)
probabilities either exactly or with multinomial shot noise, invert them into
complex amplitudes, and quantify the reconstruction quality across coupling
strengths. Names not exported here live in their submodules.
"""

from .errors import (
    DegenerateAngleError,
    DirectMeasurementError,
    InvalidParameterError,
    VanishingTildePsiError,
)
from .metrics import (
    fidelity,
    phase_aligned_l2,
    sampled_reconstruction,
    theta_sweep,
)
from .protocol import CouplingStrength, joint_probabilities
from .reconstruction import phase_convention, reconstruct, reconstruct_exact
from .sampling import measure_probsets
from .states import SystemState, make_system_state, momentum_zero_state

__version__ = "0.1.0"

__all__ = [
    "CouplingStrength",
    "DegenerateAngleError",
    "DirectMeasurementError",
    "InvalidParameterError",
    "SystemState",
    "VanishingTildePsiError",
    "fidelity",
    "joint_probabilities",
    "make_system_state",
    "measure_probsets",
    "momentum_zero_state",
    "phase_aligned_l2",
    "phase_convention",
    "reconstruct",
    "reconstruct_exact",
    "sampled_reconstruction",
    "theta_sweep",
    "__version__",
]
