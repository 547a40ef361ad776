"""Finite-statistics simulation of the measurement protocol.

Every (position, pointer-basis) pair is an independent experiment: couple at
x, then read the system momentum and the pointer in one basis. The estimator
reads only the two momentum-zero cells of each experiment, so the other
2d - 2 cells of its (momentum, outcome) grid are merged into one rest cell.
The counts it reads are then exactly a 3-cell multinomial over (k = 0 with
outcome a, k = 0 with outcome b, rest), whose first two probabilities are a
column pair of the (d, 6) table of protocol.joint_probabilities. The layout
of the settings is states': a scan's settings are taken in BASES order at
each position, and basis BASES[b] reads the table columns PAIR_COLUMNS[b].

Seeding: every draw reads one stream, default_rng(derive_seed(seed)). The
seed is checked where it enters: measure_probsets and metrics.theta_sweep
each call derive_seed once and hand draw_trials the stream seed it returns.
draw_trials guarantees three things. Each angle restarts the stream. An
angle's trials are consecutive draws from it, settings in (trial, position,
basis) order, so trial 0 is measure_probsets' scan and the first T' trials
do not depend on how many follow; trials are not separate streams. It
draws in blocks of whole trials, and the block size moves no byte. How much
of the stream a draw uses depends on its probabilities, so past trial 0 the
angles need not read the same stretch of it. The sampled bytes are
reproducible for a fixed numpy version; Generator streams may change between
numpy releases.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidParameterError, require_integer
from .protocol import CouplingStrength, joint_probabilities
from .states import BASES, PAIR_COLUMNS, SystemState

# int64 counts held by one multinomial call (2 MiB); a call draws whole trials, at least one
_BLOCK_COUNTS = 2**18


def derive_seed(root: int) -> int:
    """Stable 64-bit seed of the one stream of a master seed.

    The rule is fixed: SHA-256 over the text "<root>::0", root in decimal,
    first 8 bytes little-endian. Every stream is derived here, so the seed
    rule is checked here: root is a Python int or numpy integer >= 0, never a
    bool, and a numpy integer gives the equal Python int's stream.
    measure_probsets and theta_sweep each call it once and hand the result on.
    """
    require_integer(root, "seed")
    payload = f"{int(root)}::0".encode("ascii")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


def split_budget(shots_total: int, dim: int) -> np.ndarray:
    """(dim, 3) int64 shots of the 3 * dim settings, one row per position, columns in BASES order.

    The budget is divided evenly; lower (position, basis) settings absorb the
    remainder. It must be an integer (require_integer) that gives each
    setting a shot, and below 2**63, so that the shots and their total fit in
    int64.
    """
    n_settings = len(BASES) * dim
    if n_settings < 1:
        raise InvalidParameterError(f"need at least one setting, got {n_settings}")
    require_integer(shots_total, f"budget for {n_settings} settings", n_settings)
    if shots_total >= 2**63:
        raise InvalidParameterError(f"budget must be below 2**63, got {shots_total}")
    base, extra = divmod(int(shots_total), n_settings)
    shots = np.full((dim, len(BASES)), base, dtype=np.int64)
    shots.ravel()[:extra] += 1
    return shots


def _cell_probabilities(table: np.ndarray) -> np.ndarray:
    """(d, 3, 3) probabilities of the cells (k = 0 a, k = 0 b, rest) per setting.

    Row x, basis b holds the momentum-zero pair of basis BASES[b] at position
    x, then the probability of every other cell of that setting's grid.
    """
    pvals = np.empty((table.shape[0], len(BASES), 3))
    # rounding can carry a probability a few ulps past one, which numpy rejects
    pvals[..., :2] = np.minimum(table[:, PAIR_COLUMNS], 1.0)
    pvals[..., 2] = np.maximum(1.0 - pvals[..., 0] - pvals[..., 1], 0.0)
    return pvals


def measure_probsets(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample every setting once and estimate the (d, 6) joint-probability table.

    Returns the estimated table, rows in position order and columns in
    states.OUTCOMES order, plus the (d, 3) shots of split_budget. Each entry
    is the momentum-zero count of its outcome over the shots of its setting.
    Deterministic in (psi, strength, shots_total, seed); the scan is trial 0
    of the seed's stream.
    """
    table = joint_probabilities(psi, strength)
    shots = split_budget(shots_total, psi.dim)
    return draw_trials(table[None], shots, derive_seed(seed), 1)[0, 0], shots


def draw_trials(tables: np.ndarray, shots: np.ndarray, stream_seed: int, trials: int) -> np.ndarray:
    """(angles, trials, d, 6) estimated tables from an (angles, d, 6) stack of exact tables.

    shots are split_budget's (d, 3) shots. Each angle draws its trials
    consecutively from its own restart of default_rng(stream_seed),
    stream_seed being derive_seed of the master seed.
    """
    estimates = np.empty((len(tables), trials, *tables.shape[1:]))
    for table, angle_rows in zip(tables, estimates):
        pvals = _cell_probabilities(table)
        rng = np.random.default_rng(stream_seed)
        block = max(1, _BLOCK_COUNTS // pvals.size)
        for start in range(0, trials, block):
            rows = angle_rows[start : start + block]
            counts = rng.multinomial(shots, pvals, size=(len(rows), *shots.shape))
            rows[..., PAIR_COLUMNS] = counts[..., :2] / shots[..., None]
    return estimates
