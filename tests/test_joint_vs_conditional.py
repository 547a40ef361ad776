"""The Reply's dispute as a test: joint versus conditional probabilities.

The entities of Eq. (S6) of Vallone & Dequal are the joint probabilities
P(k = 0, outcome | coupling at x): row x of protocol.joint_probabilities,
and, from shots, the momentum-zero counts of a setting over all of that
setting's shots, the rest cell included. The other reading divides each row
by its own post-selection probability,

    post_x = (|S|^2 + 2 (1 - cos theta) g_x) / d,   g_x = |psi_x|^2 - Re(conj(S) psi_x),

which follows from |phi_x|^2 with phi_x = (S - (1 - cos theta) psi_x,
sin theta psi_x) / sqrt(d), since (1 - cos)^2 + sin^2 = 2 (1 - cos). The
inversion is linear and homogeneous in a row, so the conditional reading
reconstructs psi_x w_x, normalized, with w_x = 1 / (1 + eps_x) and
eps_x = 2 (1 - cos theta) g_x / |S|^2. It is exact only where g_x does not
depend on x (the uniform state), and otherwise biased from O(theta^2) on.

Bound on that onset. The w_x are real and positive, so no phase alignment
is needed and the phase-aligned l2 error is f(t) = sqrt(2 - 2 / sqrt(1 + t^2))
with t = std_p(w) / mean_p(w) and p_x = |psi_x|^2; t (1 - 3 t^2 / 4) <= f(t) <= t.
With m = max |eps_x| < 1, w = h(eps) with h(e) = 1 / (1 + e), whose slope lies
between 1 / (1 + m)^2 and 1 / (1 - m)^2 in magnitude, so std_p(w) lies within
those multiples of std_p(eps), and mean_p(w) within [1 / (1 + m), 1 / (1 - m)].
Hence the error over its first-order term std_p(eps) = 2 (1 - cos theta)
std_p(g) / |S|^2 lies in [(1 - m) / (1 + m)^2 (1 - 3 t^2 / 4), (1 + m) / (1 - m)^2].
"""

import math

import numpy as np
import pytest

from directwf import (
    SystemState,
    fidelity,
    joint_probabilities,
    phase_aligned_l2,
    reconstruct,
    reconstruct_exact,
)
from directwf.cli import build_state
from directwf.protocol import postselection
from directwf.reconstruction import normalize_rows, phase_convention, raw_amplitude
from directwf.states import PAIR_COLUMNS
from oracles import conditional_probabilities, random_system, trial_draw

THETAS = (0.1, 0.5, 1.0, math.pi / 2, 2.5)


def eps_x(psi: SystemState, theta: float) -> np.ndarray:
    """The relative spread of the post-selection probabilities: post_x = |S|^2 (1 + eps_x) / d."""
    amps = psi.amplitudes
    s = amps.sum()
    g = np.abs(amps) ** 2 - (s.conj() * amps).real
    return 2.0 * (1.0 - math.cos(theta)) * g / abs(s) ** 2


def conditional_estimate_closed_form(psi: SystemState, theta: float) -> np.ndarray:
    """psi_x / post_x, normalized and in the phase convention."""
    biased = psi.amplitudes / (1.0 + eps_x(psi, theta))
    return phase_convention(biased / np.linalg.norm(biased))


def conditional_estimate(psi: SystemState, theta: float) -> SystemState:
    table = conditional_probabilities(joint_probabilities(psi, theta))
    return reconstruct(table, theta).estimate


def test_conditional_times_postselection_is_the_joint_inversion():
    rng = np.random.default_rng(7001)
    for _ in range(50):
        psi = SystemState(random_system(rng, int(rng.integers(2, 33)), min_amp_sum=0.1))
        theta = float(rng.uniform(0.05, math.pi - 0.05))
        table = joint_probabilities(psi, theta)
        post = postselection(table)
        closed_form = abs(psi.amplitudes.sum()) ** 2 * (1.0 + eps_x(psi, theta)) / psi.dim
        np.testing.assert_allclose(post, closed_form, rtol=0, atol=1e-15)
        rebuilt = conditional_probabilities(table) * post[:, None]
        joint = reconstruct_exact(psi, theta).estimate.amplitudes
        assert np.abs(reconstruct(rebuilt, theta).estimate.amplitudes - joint).max() < 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_conditional_inversion_is_psi_over_post_x(theta):
    for dim, spec in ((4, "gaussian:1.0"), (8, "random:3"), (64, "random:8"), (16, "uniform")):
        psi = build_state(dim, spec)
        expected = conditional_estimate_closed_form(psi, theta)
        assert np.abs(conditional_estimate(psi, theta).amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("theta", THETAS)
def test_conditional_alone_is_exact_only_on_uniform(theta):
    for dim in (2, 5, 64):
        uniform = build_state(dim, "uniform")
        assert fidelity(conditional_estimate(uniform, theta), uniform) > 1.0 - 1e-12
    for dim, spec in ((4, "gaussian:1.0"), (8, "random:1"), (8, "random:3"), (64, "random:8")):
        psi = build_state(dim, spec)
        # the joint table inverts exactly on the same states
        assert fidelity(reconstruct_exact(psi, theta).estimate, psi) > 1.0 - 1e-12
        assert phase_aligned_l2(conditional_estimate(psi, theta), psi) > 1e-4


def test_conditional_fidelity_on_random_8():
    psi = build_state(64, "random:8")
    measured = [fidelity(conditional_estimate(psi, t), psi) for t in (0.1, 1.0, math.pi / 2, 2.5)]
    assert measured == pytest.approx([1.0, 0.976, 0.893, 0.604], abs=5e-4)


# below about 1e-2 the rounding of the inversion, which divides out a sin(theta)
# prefactor, reaches the bound's width 6 m
@pytest.mark.parametrize("theta", [1e-2, 0.1, 0.3])
def test_bias_onset_is_the_closed_form_second_order_term(theta):
    for dim, spec in ((4, "gaussian:1.0"), (8, "random:1"), (8, "random:3"), (64, "random:8")):
        psi = build_state(dim, spec)
        p = np.abs(psi.amplitudes) ** 2
        eps = eps_x(psi, theta)
        m = np.abs(eps).max()
        assert m < 0.5, "outside the expansion the bound is stated for"
        first = math.sqrt(p @ (eps - p @ eps) ** 2)
        t_max = first * (1 + m) / (1 - m) ** 2
        ratio = phase_aligned_l2(conditional_estimate(psi, theta), psi) / first
        assert (1 - m) / (1 + m) ** 2 * (1 - 0.75 * t_max**2) <= ratio <= (1 + m) / (1 - m) ** 2


def _unit_rows(tables, theta):
    rows, _, ok = normalize_rows(raw_amplitude(tables, math.tan(theta / 2)), 0.0)
    assert ok.all()
    return rows


def _own_total(tables):
    """Each momentum-zero count over a + b, the k = 0 counts of its setting, not over its shots."""
    conditional = tables.copy()
    pairs = tables[..., PAIR_COLUMNS]
    conditional[..., PAIR_COLUMNS] = pairs / pairs.sum(axis=-1, keepdims=True)
    return conditional


# gaussian:1.0 and the first three random presets, at one budget and seed: no
# state is picked for its outcome. random:2 has a small amplitude sum, so its
# joint estimate is noisy at this budget and its eps is 0.36 at theta = 0.1.
@pytest.mark.parametrize("spec, dim", [("gaussian:1.0", 4), ("random:1", 8), ("random:2", 8),
                                       ("random:3", 8)])
def test_monte_carlo_shows_the_bias_at_strong_coupling_only(spec, dim):
    trials = 200
    psi = build_state(dim, spec)
    truth = phase_convention(psi.amplitudes)
    for theta in (0.1, math.pi / 2):
        tables, _ = trial_draw(psi, theta, 3_000_000, 1, trials)
        joint = _unit_rows(tables, theta)
        conditional = _unit_rows(_own_total(tables), theta)
        # a mean of T unit rows has standard error se = sqrt(sum of variances / T); the
        # normalization and the phase convention bias it by O(E|row - mean|^2), the
        # spread squared, so each mean must match its closed form within 3 se + spread^2
        stats = {}
        for name, rows, expected in (
            ("joint", joint, truth),
            ("conditional", conditional, conditional_estimate_closed_form(psi, theta)),
        ):
            mean = rows.mean(axis=0)
            spread2 = (np.abs(rows - expected) ** 2).sum(axis=1).mean()
            se = math.sqrt((np.abs(rows - mean) ** 2).sum(axis=1).sum() / (trials - 1) / trials)
            assert np.linalg.norm(mean - expected) <= 3 * se + spread2, (name, theta)
            stats[name] = (mean, se, spread2)
        mean, se, spread2 = stats["conditional"]
        if theta > 1.0:
            # strong coupling: the conditional reading is far off the truth
            assert np.linalg.norm(mean - truth) > 10 * se + spread2
        elif np.abs(eps_x(psi, theta)).max() < 0.1:
            # weak coupling, where the second-order term is small: no bias resolved
            assert np.linalg.norm(mean - truth) <= 3 * se + spread2
