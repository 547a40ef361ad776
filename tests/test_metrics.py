"""Tests for fidelity, phase-aligned distance, and the Monte Carlo harnesses."""

import ast
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from directwf import (
    DegenerateAngleError,
    InvalidParameterError,
    SystemState,
    VanishingTildePsiError,
    fidelity,
    make_system_state,
    momentum_zero_state,
    phase_aligned_l2,
    reconstruct_exact,
    sampled_reconstruction,
    theta_sweep,
)
from directwf import metrics
from directwf.cli import build_state, main
from directwf.reconstruction import raw_amplitude
from directwf.serialize import render_json, sweep_csv
from oracles import one_angle_pass, random_system, trial_statistics_loop


class TestFidelity:
    def test_self(self):
        s = make_system_state([0.3, 0.4j, -0.5])
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-14)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(3)
        s = SystemState(random_system(rng, 6))
        for alpha in (0.3, 1.7, -2.2):
            rotated = SystemState(s.amplitudes * np.exp(1j * alpha))
            assert fidelity(s, rotated) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(make_system_state([1, 0]), make_system_state([0, 1])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError, match="shape mismatch"):
            fidelity(momentum_zero_state(2), momentum_zero_state(3))


class TestPhaseAlignedL2:
    def test_identical(self):
        s = momentum_zero_state(4)
        assert phase_aligned_l2(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        a = make_system_state([1, 0])
        b = make_system_state([0, 1])
        assert phase_aligned_l2(a, b) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_half_overlap(self):
        a = make_system_state([1, 0])
        b = make_system_state([0.5, np.sqrt(0.75)])
        assert phase_aligned_l2(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_closed_form_relation(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d = int(rng.integers(2, 17))
            a = SystemState(random_system(rng, d))
            b = SystemState(random_system(rng, d))
            l2 = phase_aligned_l2(a, b)
            f = fidelity(a, b)
            assert l2 == pytest.approx(np.sqrt(2 - 2 * np.sqrt(f)), abs=1e-12)

    def test_is_minimum_over_phases(self):
        rng = np.random.default_rng(7)
        a = SystemState(random_system(rng, 5))
        b = SystemState(random_system(rng, 5))
        closed = phase_aligned_l2(a, b)
        grid = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        brute = min(
            np.linalg.norm(a.amplitudes - np.exp(1j * alpha) * b.amplitudes)
            for alpha in grid
        )
        assert closed <= brute + 1e-9
        assert closed == pytest.approx(brute, abs=1e-4)


SCORER_THETAS = (0.3, 1.0, np.pi / 2, 2.5)


@pytest.mark.parametrize("d", [2, 4, 16, 64, 512])
class TestOneScorer:
    """fidelity, phase_aligned_l2 and the sweep's statistics share one scorer."""

    def test_exact_run_trials_equals_the_single_pair_metrics(self, d):
        for k in range(20):
            psi = build_state(d, f"random:{k}")
            for theta in SCORER_THETAS:
                est = reconstruct_exact(psi, theta).estimate
                stats = theta_sweep(psi, [theta], "exact", 2, 0)[0]
                assert stats.rmse_l2 == phase_aligned_l2(est, psi), (k, theta)
                assert stats.mean_fidelity == fidelity(est, psi), (k, theta)

    def test_exact_reconstruction_distance_is_at_rounding_level(self, d):
        # sqrt(2 - 2|<a|b>|) cancels catastrophically here, reading up to 1.5e-8
        for k in range(20):
            psi = build_state(d, f"random:{k}")
            for theta in SCORER_THETAS:
                est = reconstruct_exact(psi, theta).estimate
                assert phase_aligned_l2(est, psi) < 1e-12, (k, theta)


class TestRunTrialsExact:
    def test_no_noise(self):
        psi = momentum_zero_state(4)
        stats = theta_sweep(psi, [np.pi / 2], "exact", trials=10, seed=1)[0]
        assert stats.rmse_l2 < 1e-9
        assert stats.std_l2 == 0.0
        assert stats.failed_trials == 0
        assert stats.shots_total == "exact"

    def test_matches_reconstruct_exact(self):
        rng = np.random.default_rng(13)
        psi = SystemState(random_system(rng, 6, min_amp_sum=0.3))
        stats = theta_sweep(psi, [0.7], "exact", trials=5, seed=1)[0]
        direct = reconstruct_exact(psi, 0.7)
        assert stats.mean_fidelity == fidelity(direct.estimate, psi)

    def test_too_few_trials(self):
        with pytest.raises(ValueError):
            theta_sweep(momentum_zero_state(2), [0.5], "exact", trials=1, seed=0)[0]


class TestRunTrialsSampled:
    def test_uniform_budget_and_fidelity(self):
        psi = momentum_zero_state(4)
        stats = theta_sweep(psi, [np.pi / 2], 300000, trials=100, seed=11)[0]
        assert stats.mean_fidelity > 0.999
        assert stats.failed_trials == 0
        assert stats.trials == 100
        assert stats.shots_total == 300000

    def test_determinism(self):
        psi = momentum_zero_state(3)
        a = theta_sweep(psi, [1.0], 9000, trials=50, seed=17)[0]
        b = theta_sweep(psi, [1.0], 9000, trials=50, seed=17)[0]
        assert a == b
        c = theta_sweep(psi, [1.0], 9000, trials=50, seed=18)[0]
        assert a != c

    def test_bias_variance_decomposition(self):
        rng = np.random.default_rng(19)
        psi = SystemState(random_system(rng, 5, min_amp_sum=0.5))
        stats = theta_sweep(psi, [1.2], 30000, trials=80, seed=23)[0]
        assert stats.rmse_l2**2 == pytest.approx(
            stats.bias_l2**2 + stats.std_l2**2, abs=1e-9
        )

    def test_failed_trials_reported_and_excluded(self):
        # amplitude sum sits near the sampled raw-norm floor, so a fraction
        # of trials must trip VanishingTildePsi while the rest survive
        psi = make_system_state([1.0, -0.45])
        stats = theta_sweep(psi, [np.pi / 2], 300, trials=60, seed=29)[0]
        assert 0 < stats.failed_trials < 60

    def test_all_trials_failing_raises(self):
        psi = make_system_state([1.0, -0.999])
        with pytest.raises(VanishingTildePsiError):
            theta_sweep(psi, [np.pi / 2], 300, trials=10, seed=31)[0]


@pytest.mark.parametrize("shots_total", [np.int64(12000), "exact"], ids=["sampled", "exact"])
def test_run_trials_sets_python_types(shots_total):
    stats = theta_sweep(momentum_zero_state(4), [1.0], shots_total, np.int64(3), seed=2)[0]
    for name, value in zip(stats._fields, stats):
        if name == "shots_total" and value == "exact":
            continue
        want = int if name in ("shots_total", "trials", "failed_trials") else float
        assert type(value) is want, name
    doc = {"r": stats._asdict()}
    assert render_json(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestRunTrialsMemory:
    @pytest.mark.parametrize("d, trials", [(1024, 256), (64, 4096), (16384, 16)])
    def test_peak_per_trial_position(self, d, trials):
        # below 96 B per (trial, position), cli.MAX_TRIAL_POSITIONS = 2**23
        # stays under 1 GiB; a (trials, d, 3, 3) counts stack would need 72 B more
        rng = np.random.default_rng(d)
        psi = SystemState(random_system(rng, d, min_amp_sum=0.5))
        tracemalloc.start()
        try:
            stats = theta_sweep(psi, [np.pi / 2], 100 * 3 * d, trials, 3)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.failed_trials == 0
        assert peak < 96 * d * trials


class TestRunTrialsMatchesLoop:
    """A one-angle theta_sweep against the per-trial loop in tests/oracles.py."""

    @staticmethod
    def assert_matches(psi, theta, shots_total, trials, seed):
        stats = theta_sweep(psi, [theta], shots_total, trials, seed)[0]._asdict()
        reference = trial_statistics_loop(psi, theta, shots_total, trials, seed)
        assert stats.keys() == reference.keys()
        for name, expected in reference.items():
            if isinstance(expected, float):
                assert stats[name] == pytest.approx(expected, rel=0, abs=1e-12), name
            else:
                assert stats[name] == expected, name
        return stats

    @pytest.mark.parametrize("theta", [0.3, 0.7, np.pi / 2])
    def test_exact(self, theta):
        rng = np.random.default_rng(47)
        psi = SystemState(random_system(rng, 6, min_amp_sum=0.3))
        self.assert_matches(psi, theta, "exact", 5, 1)
        self.assert_matches(momentum_zero_state(4), theta, "exact", 2, 0)

    @pytest.mark.parametrize("d", [2, 4, 32])
    def test_sampled(self, d):
        rng = np.random.default_rng(53 + d)
        psi = SystemState(random_system(rng, d, min_amp_sum=0.5))
        for theta in (0.4, np.pi / 2):
            self.assert_matches(psi, theta, 3000 * d, 25, 59)

    def test_some_trials_failing(self):
        stats = self.assert_matches(make_system_state([1.0, -0.45]), np.pi / 2, 300, 60, 29)
        assert 0 < stats["failed_trials"] < 60

    def test_all_trials_failing(self):
        psi = make_system_state([1.0, -0.999])
        with pytest.raises(VanishingTildePsiError):
            theta_sweep(psi, [np.pi / 2], 300, trials=10, seed=31)[0]
        with pytest.raises(VanishingTildePsiError):
            trial_statistics_loop(psi, np.pi / 2, 300, 10, 31)


class TestSampledReconstruction:
    def test_shots_used_metadata(self):
        psi = momentum_zero_state(4)
        result = sampled_reconstruction(psi, np.pi / 2, 1202, seed=1)
        shots = result.shots_used
        assert shots.dtype == np.int64 and shots.shape == (12,)
        assert not shots.flags.writeable
        assert shots.sum() == 1202

    def test_reproducible(self):
        psi = momentum_zero_state(4)
        a = sampled_reconstruction(psi, np.pi / 2, 6000, seed=3)
        b = sampled_reconstruction(psi, np.pi / 2, 6000, seed=3)
        np.testing.assert_array_equal(a.estimate.amplitudes, b.estimate.amplitudes)


class TestThetaSweep:
    def test_exact_mode_all_noiseless(self):
        psi = momentum_zero_state(4)
        for stats in theta_sweep(psi, [0.1, 1.0, np.pi / 2], "exact", trials=5, seed=0):
            assert stats.rmse_l2 < 1e-9

    def test_strong_beats_weak(self):
        psi = momentum_zero_state(4)
        weak, strong = theta_sweep(psi, [0.1, np.pi / 2], 300000, trials=50, seed=41)
        assert strong.rmse_l2 < weak.rmse_l2

    def test_monotone_precision_in_theta(self):
        # rmse nonincreasing across increasing theta, up to 2 standard errors
        psi = momentum_zero_state(4)
        stats = theta_sweep(psi, [0.1, 0.5, 1.0, np.pi / 2], 60000, trials=200, seed=43)
        for lo, hi in zip(stats, stats[1:]):
            slack = 2 * np.hypot(lo.rmse_se, hi.rmse_se)
            assert hi.rmse_l2 <= lo.rmse_l2 + slack

    def test_one_dimensional_array_of_angles(self):
        # a 1-D array is a sequence of angles, as a list is
        psi = momentum_zero_state(4)
        thetas = [0.5, 1.0]
        expected = theta_sweep(psi, thetas, 3000, trials=3, seed=1)
        assert theta_sweep(psi, np.array(thetas), 3000, trials=3, seed=1) == expected


class TestStackedSweep:
    """theta_sweep's stacked pass against one pass per angle (oracles.one_angle_pass)."""

    # (dim, state, thetas, shots_total, trials, seed)
    GRID = {
        "exact": (6, "random:4", (0.3, 0.7, np.pi / 2, 2.5), "exact", 5, 1),
        "failed_trials": (64, "random:8", (0.2, 1.0, 2.5), 3000, 30, 5),
        "duplicate_angles": (5, "random:2", (1.0, 1.0, 0.3, 1.0), 30000, 40, 3),
        "single_angle": (4, "uniform", (0.7,), 12000, 20, 37),
        "readme": (4, "uniform", (0.1, 0.5, 1.0, np.pi / 2), 300000, 200, 1),
    }

    @pytest.mark.parametrize("case", sorted(GRID))
    def test_equals_one_pass_per_angle(self, case):
        dim, state, thetas, shots_total, trials, seed = self.GRID[case]
        psi = build_state(dim, state)
        swept = [s._asdict() for s in theta_sweep(psi, thetas, shots_total, trials, seed)]
        assert swept == [one_angle_pass(psi, t, shots_total, trials, seed) for t in thetas]
        for stats, theta in zip(swept, thetas):
            reference = trial_statistics_loop(psi, theta, shots_total, trials, seed)
            assert stats == pytest.approx(reference, rel=0, abs=1e-12)
        if case == "failed_trials":
            assert all(15 <= stats["failed_trials"] <= 19 for stats in swept)

    @pytest.mark.parametrize("shots_total", [3000, "exact"], ids=["sampled", "exact"])
    @pytest.mark.parametrize(
        "budget, groups",
        [(1, 4), (2 * 30 * 64, 2), (3 * 30 * 64 - 1, 2), (2**40, 1)],
        ids=["one_angle_per_group", "two_per_group", "two_per_group_short_of_three", "one_group"],
    )
    def test_grouping_moves_no_byte(self, monkeypatch, shots_total, budget, groups):
        psi = build_state(64, "random:8")
        thetas = (0.2, 1.0, 2.5, 1.0)
        stats = theta_sweep(psi, thetas, shots_total, 30, 5)
        want = sweep_csv(stats), render_json({"r": [s._asdict() for s in stats]})
        calls = []
        monkeypatch.setattr(metrics, "_GROUP_ROWS", budget)
        monkeypatch.setattr(
            metrics, "raw_amplitude", lambda *a: calls.append(a) or raw_amplitude(*a)
        )
        stats = theta_sweep(psi, thetas, shots_total, 30, 5)
        assert (sweep_csv(stats), render_json({"r": [s._asdict() for s in stats]})) == want
        # an exact angle is one row, not 30, so the exact groups are larger
        assert len(calls) == (groups if shots_total != "exact" else 4 if budget == 1 else 1)

    def test_all_failing_angle_raises_as_one_pass(self, tmp_path, capsys):
        # at d = 8, random:3 and 200 shots every trial fails at 0.05 and 1.0, none at 3.0
        psi = build_state(8, "random:3")
        for thetas, first_dead in [((0.05, 3.0), 0.05), ((3.0, 1.0, 0.05), 1.0)]:
            with pytest.raises(VanishingTildePsiError) as stacked:
                theta_sweep(psi, thetas, 200, 100, 0)
            with pytest.raises(VanishingTildePsiError) as one_pass:
                one_angle_pass(psi, first_dead, 200, 100, 0)
            assert str(stacked.value) == str(one_pass.value)
            argv = ["sweep", "--dim", "8", "--state", "random:3", "--shots", "200",
                    "--theta", ",".join(map(str, thetas)), "--out", str(tmp_path / "s.json")]
            assert main(argv) == 3
            assert capsys.readouterr().err == f"error: VanishingTildePsiError: {stacked.value}\n"
        assert not list(tmp_path.iterdir())

    def test_singular_angle_before_too_few_trials(self):
        with pytest.raises(DegenerateAngleError):
            theta_sweep(momentum_zero_state(4), [0.5, 0.0], 3000, 1, 0)
        with pytest.raises(InvalidParameterError, match="trials must be an integer >= 2"):
            theta_sweep(momentum_zero_state(4), [0.5, 1.0], 3000, 1, 0)

    def test_peak_does_not_grow_with_angles(self):
        # d * trials = 2**18 = _GROUP_ROWS, so each angle is a group of its own
        d, trials = 1024, 256
        psi = SystemState(random_system(np.random.default_rng(d), d, min_amp_sum=0.5))
        peaks = []
        for thetas in ([1.0], list(np.linspace(0.4, 2.4, 8))):
            tracemalloc.start()
            try:
                theta_sweep(psi, thetas, 100 * 3 * d, trials, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]


def test_no_module_imports_a_private_name_of_a_sibling():
    # metrics uses sampling's draw through its public name, so the tracer books
    # the draw to sampling; a private module (serialize's _text) may still be
    # imported as a module
    package = Path(metrics.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            for alias in node.names:
                is_module = node.module is None and (package / f"{alias.name}.py").exists()
                if alias.name.startswith("_") and not is_module:
                    found.append(f"{path.name}:{node.lineno} imports {alias.name}")
    assert found == []
