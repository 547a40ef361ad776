"""Dense-matrix and brute-force oracles used to cross-check the fast paths.

Everything here is deliberately slow and literal: explicit kron products,
explicit Python loops over tensor indices, explicit density matrices. None of
it shares code with the library implementations it checks, except that
one_stream_draw reads the library's exact table and seed rule (its draws must
match the library's byte for byte) and trial_statistics_loop reconstructs
each trial through the library's single-scan path, the path whose batched
aggregation it checks.
"""

import math

import numpy as np


def dense_coupling_unitary(d: int, x: int, theta: float) -> np.ndarray:
    """Full 2d x 2d coupling matrix: pointer rotation on the x block, identity elsewhere."""
    projector = np.zeros((d, d))
    projector[x, x] = 1.0
    rotation = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    return np.kron(projector, rotation) + np.kron(np.eye(d) - projector, np.eye(2))


def dense_joint(psi, x: int, theta: float) -> np.ndarray:
    """Coupled joint vector via the dense unitary applied to psi (x) |0>."""
    psi = np.asarray(psi, dtype=complex)
    start = np.kron(psi, np.array([1.0, 0.0]))
    return dense_coupling_unitary(len(psi), x, theta) @ start


def collapse_by_sum(joint, d: int) -> np.ndarray:
    """Pointer pair after projecting on the uniform momentum state, via explicit loops."""
    phi = np.zeros(2, dtype=complex)
    for x in range(d):
        for p in range(2):
            phi[p] += joint[2 * x + p] / np.sqrt(d)
    return phi


def fourier_basis(d: int) -> np.ndarray:
    """(d, d) momentum states; row k has amplitudes exp(2*pi*i*k*x/d)/sqrt(d).

    Row 0 is the momentum-zero state. Phases are reduced modulo d in integer
    arithmetic so orthonormality holds to machine precision even at large d.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    idx = np.arange(d)
    phase = np.outer(idx, idx) % d
    return np.exp((2j * np.pi / d) * phase) / np.sqrt(d)


def fourier_bra(d: int, k: int) -> np.ndarray:
    """Row of conjugated Fourier-state amplitudes over positions."""
    xs = np.arange(d)
    return np.exp(-2j * np.pi * k * xs / d) / np.sqrt(d)


def project_probability(joint, d: int, k: int, pointer_ket) -> float:
    """|<p_k| (x) <b| joint>|^2 by explicit tensor contraction."""
    bra_sys = fourier_bra(d, k)
    amp = 0j
    for x in range(d):
        for p in range(2):
            amp += bra_sys[x] * np.conj(pointer_ket[p]) * joint[2 * x + p]
    return abs(amp) ** 2


def brute_outcome_distribution(joint, d: int, outcome_kets) -> np.ndarray:
    """Full (momentum, outcome) grid of projection probabilities, outcome fastest."""
    dist = np.empty(2 * d)
    for k in range(d):
        for b, ket in enumerate(outcome_kets):
            dist[2 * k + b] = project_probability(joint, d, k, ket)
    return dist


def outcome_distribution(joint, outcome_kets) -> np.ndarray:
    """Full (momentum, outcome) grid of a (d, 2) joint state via an FFT, outcome fastest.

    Row k of the momentum projection holds the pointer pair left after
    projecting the system onto Fourier state k; entry (k, b) is its squared
    overlap with outcome ket b. The grid sums to one.
    """
    joint = np.asarray(joint)
    chi = np.fft.fft(joint, axis=0) / np.sqrt(joint.shape[0])
    dist = np.empty(2 * joint.shape[0])
    for b, ket in enumerate(outcome_kets):
        dist[b::2] = np.abs(chi @ np.conj(ket)) ** 2
    return dist


def full_grid_sample(psi, theta: float, shots_total: int, seed: int, size: int, basis_kets):
    """Momentum-zero frequencies from `size` full-grid draws of every setting.

    The reference sampler: each (position, basis) setting couples the dense
    joint state, builds its 2d-cell (momentum, outcome) grid and draws `size`
    multinomials over the whole grid from its own stream. basis_kets is a
    sequence of (ket a, ket b) pairs, one per basis. Shots split as evenly as
    possible over the settings ordered by (position, basis), lower settings
    taking the remainder. Returns frequencies of shape (size, d, bases, 2) and
    the shots of shape (d, bases).
    """
    psi = np.asarray(psi, dtype=complex)
    d, nb = len(psi), len(basis_kets)
    base, extra = divmod(shots_total, d * nb)
    shots = np.array([base + (i < extra) for i in range(d * nb)]).reshape(d, nb)
    freq = np.empty((size, d, nb, 2))
    for x in range(d):
        joint = dense_joint(psi, x, theta).reshape(d, 2)
        for b, kets in enumerate(basis_kets):
            grid = outcome_distribution(joint, kets)
            rng = np.random.default_rng([seed, x, b])
            counts = rng.multinomial(shots[x, b], grid / grid.sum(), size=size)
            freq[:, x, b] = counts[:, :2] / shots[x, b]
    return freq, shots


def postselection_by_partial_trace(joint, d: int) -> float:
    """<p0| Tr_pointer[|Psi><Psi|] |p0> with the reduced density matrix built explicitly."""
    a = np.asarray(joint, dtype=complex).reshape(d, 2)
    rho = np.zeros((d, d), dtype=complex)
    for p in range(2):
        col = a[:, p]
        rho += np.outer(col, col.conj())
    p0 = np.full(d, 1.0 / np.sqrt(d))
    return float(np.real(p0.conj() @ rho @ p0))


def random_system(rng: np.random.Generator, d: int, min_amp_sum: float | None = None) -> np.ndarray:
    """Normalized random complex vector, resampled until |sum| clears the floor if given."""
    while True:
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        if min_amp_sum is None or abs(vec.sum()) > min_amp_sum:
            return vec


def one_stream_draw(psi, theta, shots_total: int, seed: int, trial: int):
    """One trial of sampling.measure_probsets, drawn on its own in explicit loops.

    psi is a SystemState. Shots split as evenly as possible over the 3d
    settings ordered by (position, basis), lower settings taking the
    remainder. Every setting of the trial is a 3-cell multinomial (k = 0
    outcome a, k = 0 outcome b, rest) drawn in one call from the stream
    default_rng(derive_seed(seed, trial)). Returns the estimated (d, 6) table
    and the (d, 3) shots.
    """
    from directwf import joint_probabilities
    from directwf.sampling import derive_seed
    from directwf.states import OUTCOMES

    pairs = [
        (OUTCOMES.index(a), OUTCOMES.index(b))
        for a, b in (("plus", "minus"), ("L", "R"), ("zero", "one"))
    ]
    table = joint_probabilities(psi, theta)
    d = len(table)
    base, extra = divmod(shots_total, 3 * d)
    shots = np.array([base + (i < extra) for i in range(3 * d)], dtype=np.int64).reshape(d, 3)
    pvals = np.empty((d, 3, 3))
    for x in range(d):
        for b, (ca, cb) in enumerate(pairs):
            pa, pb = min(table[x, ca], 1.0), min(table[x, cb], 1.0)
            pvals[x, b] = (pa, pb, max(1.0 - pa - pb, 0.0))
    counts = np.random.default_rng(derive_seed(seed, trial)).multinomial(shots, pvals)
    estimate = np.empty((d, 6))
    for x in range(d):
        for b, (ca, cb) in enumerate(pairs):
            estimate[x, ca] = counts[x, b, 0] / shots[x, b]
            estimate[x, cb] = counts[x, b, 1] / shots[x, b]
    return estimate, shots


def trial_statistics_loop(psi, theta, shots_total, trials: int, seed: int) -> dict:
    """Reference for metrics.run_trials: one reconstruction per trial, in a Python loop.

    psi is a SystemState. An exact run is one reconstruct_exact call; a
    sampled run reconstructs the one_stream_draw of trial t with reconstruct,
    counts the trials that raise VanishingTildePsiError and skips them, and
    re-raises it when every trial fails. Each estimate is rotated by the phase
    of its overlap with the truth before the errors are taken. Returns the
    fields of metrics.TrialStatistics as a dict.
    """
    from directwf import VanishingTildePsiError, reconstruct, reconstruct_exact

    truth = psi.amplitudes

    def aligned(estimate):
        overlap = np.vdot(estimate.amplitudes, truth)
        if abs(overlap) == 0.0:
            return estimate.amplitudes.copy()
        return estimate.amplitudes * (overlap / abs(overlap))

    def fidelity(estimate):
        return abs(np.vdot(estimate.amplitudes, truth)) ** 2

    if shots_total == "exact":
        result = reconstruct_exact(psi, theta)
        err = float(np.linalg.norm(aligned(result.estimate) - truth))
        return {
            "theta": float(theta),
            "shots_total": "exact",
            "trials": trials,
            "mean_fidelity": fidelity(result.estimate),
            "rmse_l2": err,
            "bias_l2": err,
            "std_l2": 0.0,
            "rmse_se": 0.0,
            "failed_trials": 0,
        }

    aligned_rows = []
    fidelities = []
    failed = 0
    for t in range(trials):
        try:
            table, shots = one_stream_draw(psi, theta, shots_total, seed, t)
            result = reconstruct(table, theta, shots)
        except VanishingTildePsiError:
            failed += 1
            continue
        aligned_rows.append(aligned(result.estimate))
        fidelities.append(fidelity(result.estimate))
    if not aligned_rows:
        raise VanishingTildePsiError(f"all {trials} trials fell below the raw-norm floor")

    rows = np.array(aligned_rows)
    per_trial_sq = (np.abs(rows - truth) ** 2).sum(axis=1)
    rmse = math.sqrt(float(per_trial_sq.mean()))
    mean_estimate = rows.mean(axis=0)
    n_ok = len(aligned_rows)
    rmse_se = 0.0
    if n_ok > 1 and rmse > 0.0:
        rmse_se = float(per_trial_sq.std(ddof=1)) / math.sqrt(n_ok) / (2.0 * rmse)
    return {
        "theta": float(theta),
        "shots_total": int(shots_total),
        "trials": trials,
        "mean_fidelity": float(np.mean(fidelities)),
        "rmse_l2": rmse,
        "bias_l2": float(np.linalg.norm(mean_estimate - truth)),
        "std_l2": math.sqrt(float((np.abs(rows - mean_estimate) ** 2).sum(axis=1).mean())),
        "rmse_se": rmse_se,
        "failed_trials": failed,
    }
