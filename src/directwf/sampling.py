"""Finite-statistics simulation of the measurement protocol.

Every (position, pointer-basis) pair is an independent experiment: the
coupled joint state is measured in the full momentum basis together with one
pointer basis, outcomes are drawn multinomially, and the momentum-zero cells
are converted back into estimated joint probabilities. Sampling the full
momentum grid rather than a binary zero/non-zero split mirrors a
momentum-resolving detector and lets the same draws double as a completeness
check.

Seeding: every draw uses a child seed derived from the master seed and the
(trial, position, basis) indices through a fixed SHA-256 hash, so distinct
settings and trials never share a stream and any single draw can be
reproduced in isolation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidDistributionError,
    UnknownLabelError,
)
from .protocol import CouplingStrength
from .states import OUTCOMES, POINTER_KETS, SystemState

BASES = ("X", "Y", "Z")

BASIS_OUTCOMES = {"X": ("plus", "minus"), "Y": ("L", "R"), "Z": ("zero", "one")}


@dataclass(frozen=True)
class MeasurementSetting:
    """One independent experiment: couple at x, read the pointer in one basis."""

    x: int
    basis: str
    shots: int

    def __post_init__(self) -> None:
        if self.basis not in BASES:
            raise UnknownLabelError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.x < 0:
            raise IndexOutOfRangeError(f"position must be nonnegative, got {self.x}")
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome counts on the (momentum k, pointer outcome) grid, outcome fastest."""

    counts: np.ndarray
    total: int

    def __post_init__(self) -> None:
        counts = np.array(self.counts, dtype=np.int64)
        if counts.ndim != 2 or counts.shape[1] != 2 or counts.shape[0] < 2:
            raise DimensionMismatchError("counts must have shape (d, 2) with d >= 2")
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if int(counts.sum()) != int(self.total):
            raise ValueError("counts must sum to total")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))

    @property
    def dim(self) -> int:
        return self.counts.shape[0]


def outcome_distribution(joint: np.ndarray, basis: str) -> np.ndarray:
    """Probabilities of every (momentum, pointer outcome) pair, outcome fastest.

    joint is a coupled (d, 2) joint state, row x the pointer pair of
    position x. Row k of its momentum projection holds the pointer amplitude
    pair left after projecting the system onto Fourier state k; entry (k, b)
    is its squared overlap with outcome b of the chosen basis. The k = 0
    entries reproduce the joint probabilities of the protocol module, and the
    whole vector sums to one.
    """
    if basis not in BASES:
        raise UnknownLabelError(f"basis must be one of {BASES}, got {basis!r}")
    joint = np.asarray(joint)
    if joint.ndim != 2 or joint.shape[1] != 2 or joint.shape[0] < 2:
        raise DimensionMismatchError("a joint state has shape (d, 2) with d >= 2")
    d = joint.shape[0]
    chi = np.fft.fft(joint, axis=0) / math.sqrt(d)
    first, second = (POINTER_KETS[OUTCOMES.index(label)] for label in BASIS_OUTCOMES[basis])
    dist = np.empty(2 * d, dtype=np.float64)
    dist[0::2] = np.abs(chi @ first.conj()) ** 2
    dist[1::2] = np.abs(chi @ second.conj()) ** 2
    return dist


def sample_counts(dist, shots: int, seed: int) -> CountTable:
    """Multinomial draw over the outcome grid; deterministic for a fixed seed."""
    p = np.asarray(dist, dtype=np.float64)
    if p.ndim != 1 or p.size < 4 or p.size % 2 != 0:
        raise DimensionMismatchError("distribution must be a flat length-2d vector")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    if (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
        raise InvalidDistributionError("entries must be nonnegative and sum to 1")
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    counts = np.random.default_rng(seed).multinomial(shots, p)
    return CountTable(counts.reshape(-1, 2), total=shots)


def estimate_probset(
    counts_x: CountTable, counts_y: CountTable, counts_z: CountTable
) -> np.ndarray:
    """Frequencies of the momentum-zero cells of one X, Y, Z table triple.

    Returns one probability-table row in states.OUTCOMES order. The three
    bases come from independent samples, so the pair sums of the estimate
    agree with each other only in expectation.
    """
    if not counts_x.dim == counts_y.dim == counts_z.dim:
        raise DimensionMismatchError("count tables disagree on momentum dimension")
    # X, Z, Y yields the OUTCOMES order plus, minus, zero, one, L, R
    return np.concatenate([t.counts[0] / t.total for t in (counts_x, counts_z, counts_y)])


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
        raise ValueError(f"need at least one setting, got {n_settings}")
    if shots_total < n_settings:
        raise ValueError(
            f"budget {shots_total} cannot give each of {n_settings} settings a shot"
        )
    base, extra = divmod(int(shots_total), n_settings)
    return [base + 1 if i < extra else base for i in range(n_settings)]


def plan_settings(d: int, shots_total: int) -> list[MeasurementSetting]:
    """All 3d settings ordered by (position, basis) with an even budget split."""
    budgets = split_budget(shots_total, 3 * d)
    return [
        MeasurementSetting(x, basis, budgets[3 * x + bi])
        for x in range(d)
        for bi, basis in enumerate(BASES)
    ]


def setting_distributions(
    psi: SystemState, strength: CouplingStrength | float
) -> list[dict[str, np.ndarray]]:
    """Exact outcome distribution of every (position, basis) setting.

    Returns one {basis: distribution} dict per position. Precompute once when
    running many trials against the same state.
    """
    strength = CouplingStrength.coerce(strength)
    amps = psi.amplitudes
    d = amps.size
    # The distributions are views into one (d, 3, 2d) block: 3d separately
    # allocated arrays that live this long fragment the heap and raise peak
    # memory.
    block = np.empty((d, len(BASES), 2 * d))
    joint = np.zeros((d, 2), dtype=np.complex128)
    joint[:, 0] = amps
    out = []
    for x in range(d):
        joint[x] = amps[x] * strength.cos, amps[x] * strength.sin
        for bi, basis in enumerate(BASES):
            block[x, bi] = outcome_distribution(joint, basis)
        joint[x] = amps[x], 0.0
        out.append(dict(zip(BASES, block[x])))
    return out


def measure_probsets(
    psi: SystemState,
    strength: CouplingStrength | float,
    shots_total: int,
    seed: int,
    *,
    trial: int = 0,
    dists: list[dict[str, np.ndarray]] | None = None,
) -> tuple[np.ndarray, tuple[MeasurementSetting, ...]]:
    """Sample every setting once and estimate the (d, 6) joint-probability table.

    Returns the estimated table, rows in position order and columns in
    states.OUTCOMES order, plus the settings (with their shot budgets) that
    produced it. Deterministic in (psi, strength, shots_total, seed, trial).
    """
    strength = CouplingStrength.coerce(strength)
    if dists is None:
        dists = setting_distributions(psi, strength)
    settings = plan_settings(psi.dim, shots_total)
    table = np.empty((psi.dim, len(OUTCOMES)))
    for x in range(psi.dim):
        counts = []
        for bi, basis in enumerate(BASES):
            setting = settings[3 * x + bi]
            child = derive_seed(seed, trial, x, bi)
            counts.append(sample_counts(dists[x][basis], setting.shots, child))
        table[x] = estimate_probset(*counts)
    return table, tuple(settings)
