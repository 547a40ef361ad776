"""Tests for the momentum-zero sampler and the full-grid reference it replaces.

The library draws the two momentum-zero counts of each setting as one
3-cell multinomial; tests/oracles.py keeps the full (momentum, outcome) grid
and a sampler over it as the reference.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from directwf import (
    SystemState,
    joint_probabilities,
    make_system_state,
    measure_probsets,
    momentum_zero_state,
    sampling,
)
from directwf.protocol import postselection
from directwf.sampling import _BLOCK_COUNTS, _cell_probabilities, derive_seed, split_budget
from directwf.states import BASES, BASIS_OUTCOMES, OUTCOMES, PAIR_COLUMNS, POINTER_KETS
from oracles import (
    brute_outcome_distribution,
    dense_joint,
    full_grid_sample,
    one_stream_draw,
    outcome_distribution,
    random_system,
    trial_draw,
)

BASIS_KETS = {
    basis: tuple(POINTER_KETS[OUTCOMES.index(label)] for label in labels)
    for basis, labels in BASIS_OUTCOMES.items()
}


def coupled(psi: SystemState, x: int, theta: float) -> np.ndarray:
    """(d, 2) joint state after coupling at x, from the dense oracle."""
    return dense_joint(psi.amplitudes, x, theta).reshape(-1, 2)


def column(label: str) -> int:
    return OUTCOMES.index(label)


def pair_columns(basis: str) -> tuple[int, int]:
    return PAIR_COLUMNS[BASES.index(basis)]


def stack_columns(tables: np.ndarray) -> np.ndarray:
    """(..., d, 3, 2) momentum-zero columns of (..., d, 6) tables, bases in BASES order."""
    return tables[..., PAIR_COLUMNS]


class TestOutcomeDistribution:
    """The full-grid reference and the three cells the sampler merges it into."""

    def test_basis_state_x_basis(self):
        joint = coupled(make_system_state([1, 0]), 0, np.pi / 2)
        dist = outcome_distribution(joint, BASIS_KETS["X"])
        assert dist[0] == pytest.approx(0.25, abs=1e-14)
        assert dist[1] == pytest.approx(0.25, abs=1e-14)
        assert dist.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_angle_keeps_pointer_down(self):
        rng = np.random.default_rng(19)
        psi = SystemState(random_system(rng, 5))
        dist = outcome_distribution(coupled(psi, 2, 0.0), BASIS_KETS["Z"])
        assert dist[1::2].sum() == pytest.approx(0.0, abs=1e-14)
        assert dist[0::2].sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("basis", BASES)
    def test_completeness(self, basis):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d = int(rng.integers(2, 33))
            psi = SystemState(random_system(rng, d))
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            dist = outcome_distribution(coupled(psi, x, theta), BASIS_KETS[basis])
            assert dist.sum() == pytest.approx(1.0, abs=1e-12)
            assert (dist >= 0.0).all()

    def test_momentum_zero_cells_match_joint_probabilities(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            psi = SystemState(random_system(rng, d))
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            joint = coupled(psi, x, theta)
            probs = joint_probabilities(psi, theta)[x]
            for basis in BASES:
                first, second = pair_columns(basis)
                dist = outcome_distribution(joint, BASIS_KETS[basis])
                assert dist[0] == pytest.approx(probs[first], abs=1e-14)
                assert dist[1] == pytest.approx(probs[second], abs=1e-14)

    @pytest.mark.parametrize("basis", BASES)
    def test_matches_brute_force_projection(self, basis):
        rng = np.random.default_rng(37)
        for _ in range(10):
            d = int(rng.integers(2, 9))
            psi = SystemState(random_system(rng, d))
            x = int(rng.integers(0, d))
            theta = float(rng.uniform(0, np.pi))
            joint = coupled(psi, x, theta)
            np.testing.assert_allclose(
                outcome_distribution(joint, BASIS_KETS[basis]),
                brute_outcome_distribution(joint.ravel(), d, BASIS_KETS[basis]),
                atol=1e-13,
            )

    def test_setting_distributions_match_per_setting(self):
        # the sampler's (k = 0 a, k = 0 b, rest) cells are the merged full grid
        rng = np.random.default_rng(39)
        psi = SystemState(random_system(rng, 6))
        pvals = _cell_probabilities(joint_probabilities(psi, 0.8))
        assert pvals.shape == (6, 3, 3)
        for x in range(6):
            for bi, basis in enumerate(BASES):
                grid = outcome_distribution(coupled(psi, x, 0.8), BASIS_KETS[basis])
                merged = [grid[0], grid[1], grid[2:].sum()]
                np.testing.assert_allclose(pvals[x, bi], merged, atol=1e-14)


class TestSampleCounts:
    def test_degenerate_distribution(self):
        # theta = 0 leaves the pointer in |0>: every Z shot of a uniform state hits
        # k = 0, and at d = 3 rounding puts that cell's probability past one
        table = measure_probsets(momentum_zero_state(3), 0.0, 900, seed=9)[0]
        assert (table[:, column("zero")] == 1.0).all()
        assert (table[:, column("one")] == 0.0).all()

    def test_deterministic_for_fixed_seed(self):
        psi = momentum_zero_state(4)
        a, _ = measure_probsets(psi, 1.0, 12000, seed=42)
        b, _ = measure_probsets(psi, 1.0, 12000, seed=42)
        assert np.array_equal(a, b)
        c, _ = measure_probsets(psi, 1.0, 12000, seed=43)
        assert not np.array_equal(a, c)

    def test_uniform_cells_within_five_sigma(self):
        n = 10**6
        psi = momentum_zero_state(2)
        exact = joint_probabilities(psi, np.pi / 2)
        table = measure_probsets(psi, np.pi / 2, 6 * n, seed=7)[0]
        sigma = np.sqrt(exact * (1 - exact) / n)
        assert np.all(np.abs(table - exact) <= 5 * sigma)

    def test_total_matches_shots(self):
        _, shots = measure_probsets(momentum_zero_state(3), 1.0, 1234, seed=0)
        assert shots.shape == (3, len(BASES))
        assert int(shots.sum()) == 1234

    def test_bad_shots(self):
        with pytest.raises(ValueError):
            measure_probsets(momentum_zero_state(2), 1.0, 5, seed=1)


class TestEstimateProbset:
    def test_frequency_definition(self):
        # each entry is a momentum-zero count over its own setting's shots
        rng = np.random.default_rng(41)
        psi = SystemState(random_system(rng, 3))
        table, shots = measure_probsets(psi, 1.3, 1001, seed=3)
        for bi, basis in enumerate(BASES):
            counts = table[:, pair_columns(basis)] * shots[:, bi, None]
            np.testing.assert_allclose(counts, np.round(counts), atol=1e-9)
            assert (np.round(counts).sum(axis=1) <= shots[:, bi]).all()

    def test_zero_momentum_cells_give_zero_set(self):
        # amplitude sum zero and psi_2 = 0: coupling at 2 never reaches momentum zero
        psi = make_system_state([1, -1, 0])
        table = measure_probsets(psi, 1.0, 3000, seed=5)[0]
        assert (table[2] == 0.0).all()
        assert postselection(table[2]) == 0.0

    def test_large_sample_convergence(self):
        n = 10**7
        rng = np.random.default_rng(59)
        psi = SystemState(random_system(rng, 3, min_amp_sum=0.3))
        theta = 1.0
        exact = joint_probabilities(psi, theta)
        estimated = measure_probsets(psi, theta, 9 * n, seed=59)[0]
        bound = 5 * np.sqrt(np.maximum(exact, 1e-12) / n)
        assert (np.abs(estimated - exact) < bound).all()


class TestSeedsAndBudgets:
    def test_derive_seed_is_stable(self):
        # frozen values document the cross-run stability contract: the first
        # 8 bytes, little-endian, of the SHA-256 of "<seed>::0"
        assert derive_seed(0) == 1114993231628353205
        assert derive_seed(5) == 9126659848223058726
        assert derive_seed(2**64) == 1024125512531208262

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint8(5)])
    def test_numpy_integer_seed_draws_the_python_int_stream(self, seed):
        psi = make_system_state([1, 0.5j, -0.2, 0.3])
        tables, shots = trial_draw(psi, 1.0, 12000, seed, np.int64(3))
        expected, expected_shots = trial_draw(psi, 1.0, 12000, 5, 3)
        assert tables.tobytes() == expected.tobytes()
        assert shots.tobytes() == expected_shots.tobytes()
        assert measure_probsets(psi, 1.0, 12000, seed)[0].tobytes() == expected[0].tobytes()
        assert derive_seed(seed) == derive_seed(5)

    def test_split_budget_even(self):
        shots = split_budget(12, 2)
        assert shots.dtype == np.int64
        assert shots.tolist() == [[2, 2, 2], [2, 2, 2]]

    def test_split_budget_remainder_to_lowest(self):
        # lower (position, basis) settings first: position 0 fills before position 1
        assert split_budget(14, 2).tolist() == [[3, 3, 2], [2, 2, 2]]
        assert split_budget(17, 2).tolist() == [[3, 3, 3], [3, 3, 2]]

    def test_split_budget_too_small(self):
        with pytest.raises(ValueError, match="budget for 6 settings"):
            split_budget(5, 2)

    def test_plan_settings_order_and_totals(self):
        # the settings plan runs in (position, basis) order; the lowest settings
        # take the remainder of the budget
        _, shots = measure_probsets(momentum_zero_state(2), 1.0, 100, seed=0)
        np.testing.assert_array_equal(shots, [[17, 17, 17], [17, 16, 16]])


class TestMeasureProbsets:
    def test_shapes_and_reproducibility(self):
        psi = momentum_zero_state(4)
        first, shots = measure_probsets(psi, np.pi / 2, 1200, seed=5)
        second, _ = measure_probsets(psi, np.pi / 2, 1200, seed=5)
        assert first.shape == (4, 6)
        assert shots.shape == (4, 3)
        np.testing.assert_array_equal(first, second)
        different, _ = measure_probsets(psi, np.pi / 2, 1200, seed=6)
        assert not np.array_equal(first, different)

    def test_trials_are_consecutive_draws_of_one_stream(self):
        # trial 1 continues the stream of trial 0, so the two differ, and a
        # stream seeded afresh for trial 1 would not give its draw
        psi = momentum_zero_state(4)
        pvals = _cell_probabilities(joint_probabilities(psi, np.pi / 2))
        (t0, t1), shots = trial_draw(psi, np.pi / 2, 1200, 5, 2)
        assert (t0 != t1).any()
        # a stream seeded afresh for trial 1, from the SHA-256 of the text "5::1"
        fresh_seed = int.from_bytes(hashlib.sha256(b"5::1").digest()[:8], "little")
        rng = np.random.default_rng(fresh_seed)
        fresh = rng.multinomial(shots, pvals)[..., :2] / shots[..., None]
        assert not np.array_equal(stack_columns(t1), fresh)

    @pytest.mark.parametrize("theta", [0.0, 1.1, np.pi / 2])
    def test_stack_matches_per_trial_draws(self, theta):
        # the stack is the literal per-setting loop on the one stream of the
        # seed, byte for byte, and so are successive per-trial draws from it
        rng = np.random.default_rng(67)
        psi = SystemState(random_system(rng, 5))
        shots_total = 3000 * 5 + 7
        tables, shots = trial_draw(psi, theta, shots_total, 13, 6)
        assert tables.shape == (6, 5, 6)
        expected, expected_shots = one_stream_draw(psi, theta, shots_total, 13, 6)
        assert np.array_equal(tables, expected)
        assert np.array_equal(shots, expected_shots)
        pvals = _cell_probabilities(joint_probabilities(psi, theta))
        stream = np.random.default_rng(derive_seed(13))
        per_trial = [stream.multinomial(shots, pvals)[..., :2] for _ in range(6)]
        assert np.array_equal(stack_columns(tables), per_trial / shots[..., None])

    def test_prefix_stable(self):
        # the one scan is trial 0, and the first T' trials do not depend on T
        psi = SystemState(random_system(np.random.default_rng(71), 6))
        tables, _ = trial_draw(psi, 0.9, 60000, 17, 9)
        assert np.array_equal(measure_probsets(psi, 0.9, 60000, 17)[0], tables[0])
        for prefix in (1, 2, 5, 8):
            head, _ = trial_draw(psi, 0.9, 60000, 17, prefix)
            assert np.array_equal(head, tables[:prefix])

    def test_blocks_move_no_byte(self):
        # at d = 2**15 each multinomial call holds one trial, so five trials
        # take five calls; they equal one call over every trial and the
        # literal per-setting loop
        d, trials, shots_total = 2**15, 5, 100 * 3 * 2**15
        assert _BLOCK_COUNTS < 2 * 9 * d
        psi = SystemState(random_system(np.random.default_rng(73), d))
        tables, shots = trial_draw(psi, 1.2, shots_total, 19, trials)
        pvals = _cell_probabilities(joint_probabilities(psi, 1.2))
        counts = np.random.default_rng(derive_seed(19)).multinomial(
            shots, pvals, size=(trials, d, 3)
        )
        assert np.array_equal(stack_columns(tables), counts[..., :2] / shots[..., None])
        assert np.array_equal(tables, one_stream_draw(psi, 1.2, shots_total, 19, trials)[0])

    @pytest.mark.parametrize("block_trials", [1, 2, 3, 7, 8])
    def test_block_size_moves_no_byte(self, monkeypatch, block_trials):
        psi = SystemState(random_system(np.random.default_rng(79), 4))
        expected, _ = one_stream_draw(psi, 0.6, 12000, 23, 7)
        monkeypatch.setattr(sampling, "_BLOCK_COUNTS", block_trials * 9 * 4)
        assert np.array_equal(trial_draw(psi, 0.6, 12000, 23, 7)[0], expected)

    def test_memory_linear_in_dim(self):
        # the full-grid sampler held 48 d^2 bytes here, about 3.2 GB
        psi = momentum_zero_state(8192)
        tracemalloc.start()
        try:
            measure_probsets(psi, np.pi / 2, 3 * 10**11, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestStatisticalProperties:
    def test_unbiasedness(self):
        # mean over many repetitions stays within five standard errors
        reps = 1000
        n = 10**4
        psi = momentum_zero_state(4)
        theta = np.pi / 2
        p = joint_probabilities(psi, theta)[0, column("plus")]
        estimates = trial_draw(psi, theta, 12 * n, 97, reps)[0][:, 0, 0]
        se = np.sqrt(p * (1 - p) / n / reps)
        assert abs(estimates.mean() - p) < 5 * se

    def test_shot_noise_scaling(self):
        # std of the estimated probability must follow 1/sqrt(N)
        reps = 400
        psi = momentum_zero_state(4)
        theta = np.pi / 2
        p = joint_probabilities(psi, theta)[0, column("plus")]
        stds = []
        shots = [10**3, 10**4, 10**5]
        for n in shots:
            vals = trial_draw(psi, theta, 12 * n, 101, reps)[0][:, 0, 0]
            stds.append(np.std(vals))
        slope = np.polyfit(np.log(shots), np.log(stds), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)
        for n, std in zip(shots, stds):
            assert std == pytest.approx(np.sqrt(p * (1 - p) / n), rel=0.2)


class TestSamplerEquivalence:
    def test_k0_count_moments_match_multinomial(self):
        """Both samplers give the multinomial moments of the momentum-zero counts.

        d = 3, theta = 1, n = 10**4 shots per setting, R = 4000 draws of
        every setting from the library sampler (one trial each) and from the
        full-grid oracle. Per sampler, 45 statistics are z-scored against
        their sampling standard errors: the mean and the variance of each of
        the 18 cell counts (n p and n p (1 - p)) and the covariance of the two
        cells of each of the 9 settings (-n p_a p_b). With every n p above
        100 the statistics are close to normal, so each one exceeds |z| = 5
        with probability 5.7e-7, and the test false-fails for at most
        90 * 5.7e-7 = 5.2e-5 of seeds (union bound).
        """
        d, theta, n, reps = 3, 1.0, 10**4, 4000
        rng = np.random.default_rng(61)
        psi = SystemState(random_system(rng, d, min_amp_sum=1.2))
        shots_total = 3 * d * n
        p = np.stack(
            [joint_probabilities(psi, theta)[:, pair_columns(b)] for b in BASES], axis=1
        )
        assert (n * p > 100).all()

        library, _ = trial_draw(psi, theta, shots_total, 7, reps)
        library = np.stack([library[..., pair_columns(b)] for b in BASES], axis=2)
        oracle, shots = full_grid_sample(
            psi.amplitudes, theta, shots_total, 7, reps, [BASIS_KETS[b] for b in BASES]
        )
        assert (shots == n).all()

        var = n * p * (1 - p)
        kurtosis = (1 - 6 * p * (1 - p)) / var
        cov = -n * p[..., 0] * p[..., 1]
        for freq in (library, oracle):
            counts = freq * n
            z_mean = (counts.mean(axis=0) - n * p) / np.sqrt(var / reps)
            z_var = (counts.var(axis=0, ddof=1) - var) / (
                var * np.sqrt(2 / (reps - 1) + kurtosis / reps)
            )
            centered = counts - counts.mean(axis=0)
            sample_cov = (centered[..., 0] * centered[..., 1]).sum(axis=0) / (reps - 1)
            z_cov = (sample_cov - cov) / np.sqrt((var[..., 0] * var[..., 1] + cov**2) / reps)
            assert np.abs(z_mean).max() < 5
            assert np.abs(z_var).max() < 5
            assert np.abs(z_cov).max() < 5


class TestOneStreamMoments:
    """Moments of the one-stream draws against their analytic multinomial values.

    Trials come consecutively from one stream, so independence between them
    is a property of the generator, not of separate seeds; this checks it
    together with the per-setting moments. Seeds were fixed before any result
    was seen. Each of the 3d settings has n = 10**9 shots; every n p is above
    400, so the statistics below are close to normal. Over R trials, for each
    momentum-zero frequency p_hat of each setting:

    * mean of p_hat against p, standard error sqrt(p (1 - p) / (n R));
    * variance against p (1 - p) / n, standard error var * sqrt(2 / (R - 1)
      + kurtosis / R) with the binomial excess kurtosis (1 - 6 p (1 - p)) /
      (n p (1 - p));
    * lag-1 autocorrelation between trials t and t + 1 against its iid mean
      -1/R, standard error 1/sqrt(R);

    and for the outcome pair of each setting, the covariance against
    -p_a p_b / n, standard error sqrt((var_a var_b + cov^2) / R). That is
    21 d z-scores per case, 1428 in all; each exceeds |z| = 5 with
    probability about 5.7e-7, so the test false-fails for about 8e-4 of
    seeds (union bound).
    """

    @pytest.mark.parametrize("d, reps, seed", [(4, 4000, 401), (64, 2000, 6401)])
    def test_moments_match_multinomial(self, d, reps, seed):
        n, theta = 10**9, 1.0
        psi = SystemState(random_system(np.random.default_rng(83), d, min_amp_sum=0.5))
        p = stack_columns(joint_probabilities(psi, theta))
        assert (n * p > 400).all()

        tables, shots = trial_draw(psi, theta, 3 * d * n, seed, reps)
        assert (shots == n).all()
        freq = stack_columns(tables)
        var = p * (1 - p) / n
        kurtosis = (1 - 6 * p * (1 - p)) / (n * p * (1 - p))
        cov = -p[..., 0] * p[..., 1] / n

        z_mean = (freq.mean(axis=0) - p) / np.sqrt(var / reps)
        sample_var = freq.var(axis=0, ddof=1)
        z_var = (sample_var - var) / (var * np.sqrt(2 / (reps - 1) + kurtosis / reps))
        centered = freq - freq.mean(axis=0)
        sample_cov = (centered[..., 0] * centered[..., 1]).sum(axis=0) / (reps - 1)
        z_cov = (sample_cov - cov) / np.sqrt((var[..., 0] * var[..., 1] + cov**2) / reps)
        lag1 = (centered[1:] * centered[:-1]).sum(axis=0) / (centered**2).sum(axis=0)
        z_lag = (lag1 + 1 / reps) * np.sqrt(reps)
        for name, z in (("mean", z_mean), ("var", z_var), ("cov", z_cov), ("lag1", z_lag)):
            assert np.abs(z).max() < 5, name
