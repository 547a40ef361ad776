"""Inversion of joint probabilities into complex amplitudes.

Each position contributes one linear combination of its six joint
probabilities. That combination is proportional to the amplitude at the
coupled position with an x-independent prefactor, so the prefactor is fixed
afterwards by imposing unit norm, and the leftover global phase is fixed by
making the amplitude sum real and nonnegative (phase_convention); one
function, normalize_rows, does both for reconstruct and metrics.theta_sweep.
The map is the same for an exact table and for one estimated from shots; only
the raw-norm floor depends on the shots, and raw_norm_floor is its one rule.
Angles are checked where they enter, in reconstruct and metrics.theta_sweep;
raw_amplitude takes the checked tan(theta/2), and normalize_rows one floor.
So are arrays: reconstruct passes its table through protocol.require_table,
the one rule of a (d, 6) table, and its shots through errors.require_array,
and the per-op steps (raw_amplitude, normalize_rows, setting_variances) take
arrays already checked. Each setting's pair of columns is read by basis through
states.basis_pair, and its shots are a column of the (d, 3) layout in
states.BASES order. normalize_rows keeps rows in place: its unit rows, norms
and kept mask share the raw stack's layout, a dropped row zeroed where it
stands. setting_variances gives the per-shot variance of each setting's
readout in that (d, 3) layout.
The method is singular when the amplitude sum of the state vanishes; a raw
vector at or below the floor is reported as VanishingTildePsiError instead of
returning garbage. The raw norm is 2 |S| sin(theta) / d for an exact table
(S the amplitude sum), and a sampled table's floor grows as its shots per
setting fall, so the refusal names all three causes and asserts none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, VanishingTildePsiError, require_array
from .protocol import CouplingStrength, joint_probabilities, postselection, require_table
from .states import BASES, SystemState, basis_pair

RAW_NORM_FLOOR = 1e-9


def raw_norm_floor(shots=None) -> float:
    """Raw-vector norm at or below which an inversion is rejected.

    An exact table (shots None) gets RAW_NORM_FLOOR. A sampled table passes
    the (d, 3) shots array of its settings, as split_budget returns it or
    reconstruct has checked it, and the floor widens to three sigma of shot
    noise, 3 sqrt(6 / (N d)) with N the mean shots per setting. The shots
    must total below 2**63, or their int64 sum wraps.
    """
    if shots is None:
        return RAW_NORM_FLOOR
    mean_shots = int(shots.sum()) / shots.size
    return max(RAW_NORM_FLOOR, 3.0 * math.sqrt(6.0 / (mean_shots * len(shots))))


@dataclass(frozen=True, eq=False)
class RawEstimate:
    """Per-position inversion output before normalization.

    reconstruct, the one producer, sets per_x as a read-only complex array of
    dim values and dim as a Python int.
    """

    per_x: np.ndarray
    dim: int


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Reconstructed state plus diagnostics.

    shots_used is "exact" for noiseless pipelines, otherwise the per-setting
    shot counts as a flat, read-only int64 array ordered by (position, basis).
    reconstruct, the one producer, sets tilde_psi_magnitude and
    postselection_probability as Python floats.
    """

    estimate: SystemState
    raw: RawEstimate
    tilde_psi_magnitude: float
    postselection_probability: float
    shots_used: np.ndarray | str


def phase_convention(amps: np.ndarray) -> np.ndarray:
    """Rotate a vector by a global phase so its component sum is real and nonnegative.

    Estimates and the truth they are compared with both use this convention.
    A stack of vectors is rotated row by row along the last axis. A row whose
    components sum to zero is left as it is, and an input whose rows all sum
    to zero is returned unchanged.
    """
    total = amps.sum(axis=-1, keepdims=True)
    mag = np.abs(total)
    if not mag.any():
        return amps
    return amps * np.divide(total.conj(), mag, out=np.ones_like(total), where=mag > 0)


def normalize_rows(raw: np.ndarray, floor: float):
    """Unit rows in the phase convention, row norms and kept mask of an (..., n, d) raw stack.

    All three keep the raw stack's layout: the unit rows come back in raw's
    shape, each in its own place, the norms and the mask in raw's shape
    without its last axis. A row whose norm is at or below floor, one scalar,
    is dropped: its mask entry is False and its unit row is all zeros. If all
    rows of an (n, d) stack are dropped, VanishingTildePsiError names the
    first such stack.
    raw comes from raw_amplitude, so it is an array a boundary has already
    checked; this per-op step checks nothing itself.
    """
    norms = np.linalg.norm(raw, axis=-1)
    ok = norms > floor
    alive = ok.any(axis=-1)
    if not alive.all():
        first = np.unravel_index(np.argmin(alive), alive.shape)
        raise VanishingTildePsiError(
            f"raw estimate norm {norms[first].max():.3e} at or below floor {floor:.3e};"
            " a small amplitude sum |S|, a small sin(theta)/d or, for a sampled table,"
            " few shots per setting can each put the norm there"
        )
    units = np.divide(raw, norms[..., None], out=np.zeros_like(raw), where=ok[..., None])
    return phase_convention(units), norms, ok


def raw_amplitude(table, tan_half):
    """Linear combination of the joint probabilities of each row.

    Takes one row, a (d, 6) table or a stack of them, columns in
    states.OUTCOMES order, and tan(theta/2) of an angle its caller has
    checked (CouplingStrength.tan_half after require_invertible): a float,
    or an array that broadcasts over the leading axes, such as shape
    (angles, 1, 1) for an (angles, n, d, 6) stack. Returns one complex value
    per row. Affine in every entry; fed exact probabilities it is
    proportional to the amplitude at the coupled position, with a prefactor
    common to all x. The table is one a boundary has already checked
    (protocol.require_table in reconstruct) or one this package computed or
    drew, so this per-op step checks nothing itself.
    """
    table = np.asarray(table, dtype=np.float64)
    (plus, minus), (left, right) = basis_pair(table, "X"), basis_pair(table, "Y")
    return (plus - minus + 2.0 * basis_pair(table, "Z")[1] * tan_half) + 1j * (left - right)


def setting_variances(table, tan_half):
    """(..., d, 3) per-shot variance coefficient of each setting's readout, columns in BASES order.

    Takes table and tan_half as raw_amplitude does, tan_half broadcasting
    over the leading axes. A setting's counts over its N shots are one
    multinomial over its cells (k = 0 a, k = 0 b, rest), and raw_amplitude
    reads X and Y as (a - b) / N, so their readouts have variance c / N with
    c = (p_a + p_b) - (p_a - p_b)**2. It reads Z only as 2 tan(theta/2) times
    the frequency of "one", so c_Z = 4 tan(theta/2)**2 p_one (1 - p_one).
    With N_B the shots of basis B at x, Var Re r_x = c_X / N_X + c_Z / N_Z
    and Var Im r_x = c_Y / N_Y. An exact table gives the true coefficients,
    an estimated one their plug-in estimates.
    """
    table = np.asarray(table, dtype=np.float64)
    (plus, minus), (left, right) = basis_pair(table, "X"), basis_pair(table, "Y")
    one = basis_pair(table, "Z")[1]
    coefficients = {
        "X": (plus + minus) - (plus - minus) ** 2,
        "Y": (left + right) - (left - right) ** 2,
        "Z": 4.0 * tan_half**2 * one * (1.0 - one),
    }
    return np.stack(np.broadcast_arrays(*(coefficients[b] for b in BASES)), axis=-1)


def reconstruct(
    table,
    strength: CouplingStrength | float,
    shots=None,
) -> ReconstructionResult:
    """Invert a (d, 6) joint-probability table into a normalized state.

    Parameters
    ----------
    table : row x holds the joint probabilities of coupling position x,
        columns in states.OUTCOMES order; it passes protocol.require_table
        (a two-dimensional (d, 6) table with d >= 2, of real numbers in
        [0, 1], refused before any conversion)
    strength : coupling angle used when the probabilities were produced
    shots : None for an exact table; for a sampled one, the (d, 3) shots,
        each at least 1, of its settings as sampling.split_budget returns
        them, of an integer dtype (errors.require_array with kinds "iu").
        They set the raw-norm floor (raw_norm_floor) and shots_used.

    The recovered magnitude of the amplitude sum comes from the prefactor
    identity: the raw vector norm equals (2/d) * |sum_x psi_x| * sin(theta).
    """
    strength = CouplingStrength.coerce(strength)
    strength.require_invertible()
    table = require_table(table)
    d = table.shape[0]
    shots_used = "exact"
    if shots is not None:
        shots = require_array(shots, "shots", "iu")
        if shots.shape != (d, len(BASES)):
            raise InvalidParameterError(f"expected {(d, len(BASES))} shots, got shape {shots.shape}")
        if not (shots >= 1).all():
            raise InvalidParameterError("shots must be integers of at least 1 per setting")
        # summed in 32-bit halves, whose uint64 sums cannot wrap below 2**32 settings
        unsigned = shots.astype(np.uint64)
        total = int((unsigned >> np.uint64(32)).sum()) << 32
        total += int((unsigned & np.uint64(2**32 - 1)).sum())
        if total >= 2**63:
            raise InvalidParameterError(f"shots must total below 2**63, got {total}")
        shots_used = shots.astype(np.int64).ravel()
        shots_used.setflags(write=False)
    raw = raw_amplitude(table, strength.tan_half)
    raw.setflags(write=False)
    units, norms, _ = normalize_rows(raw[None], raw_norm_floor(shots))
    return ReconstructionResult(
        estimate=SystemState(units[0]),
        raw=RawEstimate(per_x=raw, dim=d),
        tilde_psi_magnitude=float(d * norms[0] / (2.0 * strength.sin)),
        postselection_probability=float(postselection(table).mean()),
        shots_used=shots_used,
    )


def reconstruct_exact(
    psi: SystemState, strength: CouplingStrength | float
) -> ReconstructionResult:
    """Read off the exact joint-probability table of psi and invert it.

    Round-trips any state whose amplitude sum is well away from zero: the
    estimate matches the input up to global phase, but not to double
    precision. Each probability is of the order of its row's post-selection
    probability, while the signal read from it is of order
    sin(theta) |S| |psi_x| / d, so the inversion cancels digits and the error
    grows about as 1 / sin(theta) and with d. The largest error over the
    largest amplitude (float64, numpy 2.4 on x86-64) was 2.2e-13 at
    theta = pi/2, 2.4e-12 at 0.1, 2.4e-10 at 1e-3 and 2.5e-8 at 1e-5 for
    d = 4096 "gaussian:512", and 4.4e-12 at pi/2 and 4.1e-7 at 1e-5 for
    d = 2**16 "gaussian:8192" (cli.build_state specs). No bound is derived.
    """
    strength = CouplingStrength.coerce(strength)
    return reconstruct(joint_probabilities(psi, strength), strength)
