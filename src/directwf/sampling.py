"""Finite-statistics simulation of the measurement protocol.

Every (position, pointer-basis) pair is an independent experiment: couple at
x, then read the system momentum and the pointer in one basis. The estimator
reads only the two momentum-zero cells of each experiment, so the other
2d - 2 cells of its (momentum, outcome) grid are merged into one rest cell.
The counts it reads are then exactly a 3-cell multinomial over (k = 0 with
outcome a, k = 0 with outcome b, rest), whose first two probabilities are a
column pair of the (d, 6) table of protocol.joint_probabilities.

Seeding: measure_probsets draws trial t, all 3d settings in one multinomial
call, into row t of its stack from the single stream
default_rng(derive_seed(seed, t)). Runs at different coupling angles with the
same (seed, t) share that stream. The sampled bytes are reproducible for a
fixed numpy version; Generator streams may change between numpy releases.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameterError
from .protocol import CouplingStrength, joint_probabilities
from .states import OUTCOMES, SystemState

BASES = ("X", "Y", "Z")

BASIS_OUTCOMES = {"X": ("plus", "minus"), "Y": ("L", "R"), "Z": ("zero", "one")}

# (3, 2) table columns of the two outcomes of each basis, rows in BASES order
_PAIR_COLUMNS = np.array(
    [[OUTCOMES.index(label) for label in BASIS_OUTCOMES[basis]] for basis in BASES]
)


def derive_seed(root: int, *parts) -> int:
    """Stable 64-bit child seed from a master seed and stream indices.

    The rule is fixed: SHA-256 over the '::'-joined decimal forms of
    (root, *parts), first 8 bytes little-endian.
    """
    payload = "::".join(str(p) for p in (root, *parts)).encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def split_budget(shots_total: int, n_settings: int) -> list[int]:
    """Divide a total shot budget evenly; lower-indexed settings absorb the remainder."""
    if n_settings < 1:
        raise InvalidParameterError(f"need at least one setting, got {n_settings}")
    if shots_total < n_settings:
        raise InvalidParameterError(
            f"budget {shots_total} cannot give each of {n_settings} settings a shot"
        )
    base, extra = divmod(int(shots_total), n_settings)
    return [base + 1 if i < extra else base for i in range(n_settings)]


def _cell_probabilities(table: np.ndarray) -> np.ndarray:
    """(d, 3, 3) probabilities of the cells (k = 0 a, k = 0 b, rest) per setting.

    Row x, basis b holds the momentum-zero pair of basis BASES[b] at position
    x, then the probability of every other cell of that setting's grid.
    """
    pvals = np.empty((table.shape[0], len(BASES), 3))
    # rounding can carry a probability a few ulps past one, which numpy rejects
    pvals[..., :2] = np.minimum(table[:, _PAIR_COLUMNS], 1.0)
    pvals[..., 2] = np.maximum(1.0 - pvals[..., 0] - pvals[..., 1], 0.0)
    return pvals


def measure_probsets(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int,
    seed: int,
    trials: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every setting of each trial and estimate its (d, 6) joint-probability table.

    Returns the (trials, d, 6) estimated tables, rows in position order and
    columns in states.OUTCOMES order, plus the (d, 3) shots of each setting,
    columns in BASES order. Each entry of a table is the momentum-zero count
    of its outcome over the shots of its setting. Deterministic in (psi,
    strength, shots_total, seed); trial t does not depend on trials.
    """
    table = joint_probabilities(psi, strength)
    shots = np.array(split_budget(shots_total, 3 * psi.dim), dtype=np.int64)
    shots = shots.reshape(psi.dim, len(BASES))
    pvals = _cell_probabilities(table)
    estimates = np.empty((trials, *table.shape))
    for t, estimate in enumerate(estimates):
        counts = np.random.default_rng(derive_seed(seed, t)).multinomial(shots, pvals)
        estimate[:, _PAIR_COLUMNS] = counts[..., :2] / shots[..., None]
    return estimates, shots
