"""Dense-matrix and brute-force oracles used to cross-check the fast paths.

Everything here is deliberately slow and literal: explicit kron products,
explicit Python loops over tensor indices, explicit density matrices. None of
it shares code with the library implementations it checks, except that
one_stream_draw reads the library's exact table and seed rule (its draws must
match the library's byte for byte), conditional_probabilities divides by
the library's post-selection probability, trial_statistics_loop reconstructs
each of its trials through the library's single-scan path, the path whose
batched aggregation it checks, trial_draw is the library's own trial draw
for one angle, and one_angle_pass is the library's own inversion run one
angle at a time, the byte-identity reference for the stacked sweep.

The file renderers at the end are the per-value writers the CLI once used:
every cell goes through its own Python object, and JSON through json.dumps.
They are the byte-identity reference for directwf.serialize.
"""

import json
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


def conditional_probabilities(table) -> np.ndarray:
    """The conditional reading the Reply rejects: each row over its post-selection probability.

    table is one row of 6 or a stack of rows, columns in states.OUTCOMES
    order, whose post-selection probabilities are nonzero.
    """
    from directwf.protocol import postselection

    table = np.asarray(table, dtype=np.float64)
    return table / postselection(table)[..., None]


def random_system(rng: np.random.Generator, d: int, min_amp_sum: float | None = None) -> np.ndarray:
    """Normalized random complex vector, resampled until |sum| clears the floor if given."""
    while True:
        vec = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        if min_amp_sum is None or abs(vec.sum()) > min_amp_sum:
            return vec


def one_stream_draw(psi, theta, shots_total: int, seed: int, trials: int):
    """trial_draw drawn one setting at a time, in explicit loops.

    psi is a SystemState. Shots split as evenly as possible over the 3d
    settings ordered by (position, basis), lower settings taking the
    remainder. Every setting is a 3-cell multinomial (k = 0 outcome a, k = 0
    outcome b, rest) drawn with its own scalar call, all of them from the one
    stream default_rng(derive_seed(seed)) in (trial, position, basis)
    order. Returns the (trials, d, 6) estimated tables and the (d, 3) shots.
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
    rng = np.random.default_rng(derive_seed(seed))
    estimates = np.empty((trials, d, 6))
    for t in range(trials):
        for x in range(d):
            for b, (ca, cb) in enumerate(pairs):
                counts = rng.multinomial(int(shots[x, b]), pvals[x, b])
                estimates[t, x, ca] = counts[0] / shots[x, b]
                estimates[t, x, cb] = counts[1] / shots[x, b]
    return estimates, shots


def trial_statistics_loop(psi, theta, shots_total, trials: int, seed: int) -> dict:
    """Reference for a one-angle metrics.theta_sweep: one reconstruction per trial, in a loop.

    psi is a SystemState. An exact run is one reconstruct_exact call; a
    sampled run reconstructs each table of one_stream_draw with reconstruct,
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

    tables, shots = one_stream_draw(psi, theta, shots_total, seed, trials)
    aligned_rows = []
    fidelities = []
    failed = 0
    for table in tables:
        try:
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


def trial_draw(psi, theta, shots_total: int, seed: int, trials: int):
    """T trials of one angle, drawn by sampling.draw_trials as metrics.theta_sweep draws them.

    psi is a SystemState. Returns the (trials, d, 6) estimated tables, whose
    trial 0 is the scan of measure_probsets, and the (d, 3) shots of
    split_budget.
    """
    from directwf import joint_probabilities, sampling

    shots = sampling.split_budget(shots_total, psi.dim)
    tables = joint_probabilities(psi, theta)[None]
    return sampling.draw_trials(tables, shots, sampling.derive_seed(seed), trials)[0], shots


def one_angle_pass(psi, theta, shots_total, trials: int, seed: int) -> dict:
    """Reference for metrics.theta_sweep: the one-pass trial statistics of a single angle.

    One trial_draw call draws the angle's trials (an exact run inverts
    the exact table alone); raw_amplitude and normalize_rows invert the
    (trials, d) stack, and the kept rows are phase-aligned and reduced in
    trial order. theta_sweep must give these fields bit for bit at every angle,
    however it groups the angles. Returns the fields of
    metrics.TrialStatistics as a dict.
    """
    from directwf import joint_probabilities
    from directwf.reconstruction import normalize_rows, raw_amplitude, raw_norm_floor

    truth = psi.amplitudes
    if shots_total == "exact":
        tables, shots = joint_probabilities(psi, theta)[None], None
    else:
        tables, shots = trial_draw(psi, theta, shots_total, seed, trials)
    raw = raw_amplitude(tables, math.tan(theta / 2))
    units, _, ok = normalize_rows(raw, raw_norm_floor(shots))
    estimates = units[ok]
    overlaps = (estimates.conj() * truth).sum(axis=-1)
    mags = np.abs(overlaps)
    phases = np.divide(overlaps, mags, out=np.ones_like(overlaps), where=mags > 0)
    rows = estimates * phases[:, None]
    per_trial_sq = (np.abs(rows - truth) ** 2).sum(axis=1)
    rmse = math.sqrt(float(per_trial_sq.mean()))
    mean_estimate = rows.mean(axis=0)
    n_ok = len(rows)
    rmse_se = 0.0
    if n_ok > 1 and rmse > 0.0:
        rmse_se = float(per_trial_sq.std(ddof=1)) / math.sqrt(n_ok) / (2.0 * rmse)
    return {
        "theta": float(theta),
        "shots_total": shots_total if shots is None else int(shots_total),
        "trials": trials,
        "mean_fidelity": float(np.mean(np.minimum(overlaps.real**2 + overlaps.imag**2, 1.0))),
        "rmse_l2": rmse,
        "bias_l2": float(np.linalg.norm(mean_estimate - truth)),
        "std_l2": math.sqrt(float((np.abs(rows - mean_estimate) ** 2).sum(axis=1).mean())),
        "rmse_se": rmse_se,
        "failed_trials": len(ok) - n_ok,
    }


def setting_variance_loop(table, theta: float) -> np.ndarray:
    """Per-shot variance of each setting's readout, w^T (diag(p) - p p^T) w, in explicit loops.

    table is one (d, 6) table, columns plus, minus, zero, one, L, R. A
    setting's cells are (k = 0 a, k = 0 b, rest) with probabilities p, the
    full covariance of one shot's cell indicators is diag(p) - p p^T, and w
    holds the weight with which each cell's frequency enters the raw
    amplitude: +1 and -1 on the X pair (real part) and on the Y pair
    (imaginary part), 0 and 2 tan(theta/2) on the Z pair (real part), 0 on
    the rest. Returns (d, 3), columns X, Y, Z.
    """
    column = {label: i for i, label in enumerate(("plus", "minus", "zero", "one", "L", "R"))}
    tan_half = math.tan(theta / 2)
    settings = (
        (("plus", "minus"), (1.0, -1.0, 0.0)),
        (("L", "R"), (1.0, -1.0, 0.0)),
        (("zero", "one"), (0.0, 2.0 * tan_half, 0.0)),
    )
    out = np.empty((len(table), len(settings)))
    for x, row in enumerate(table):
        for j, ((a, b), weights) in enumerate(settings):
            pa, pb = row[column[a]], row[column[b]]
            p = np.array([pa, pb, 1.0 - pa - pb])
            w = np.array(weights)
            out[x, j] = w @ (np.diag(p) - np.outer(p, p)) @ w
    return out


PROBABILITY_KEYS = ("p_plus", "p_minus", "p_zero", "p_one", "p_L", "p_R", "p_postselect")


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_csv(columns, rows) -> str:
    """Header line, then one line per row, each cell rendered on its own."""
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def probability_rows(table):
    """(x, p_plus, ..., p_R, p_postselect) per row of a (d, 6) table.

    p_postselect is p_plus + p_minus.
    """
    table = np.asarray(table, dtype=np.float64)
    full = np.column_stack([table, table[:, 0] + table[:, 1]])
    return [(x, *row) for x, row in enumerate(full.tolist())]


def probability_dicts(table) -> list[dict]:
    """One {column: value} dict per row of a (d, 6) table."""
    return [dict(zip(PROBABILITY_KEYS, row[1:])) for row in probability_rows(table)]


def reconstruction_rows(estimate, truth):
    return [
        (x, e.real, e.imag, t.real, t.imag)
        for x, (e, t) in enumerate(zip(estimate, truth))
    ]


def complex_pairs(values) -> list[list[float]]:
    """Complex vector as [re, im] pairs."""
    return [[float(z.real), float(z.imag)] for z in values]


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
