"""Dense-matrix and brute-force oracles used to cross-check the fast paths.

Everything here is deliberately slow and literal: explicit kron products,
explicit Python loops over tensor indices, explicit density matrices. None of
it shares code with the library implementations it checks.
"""

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
