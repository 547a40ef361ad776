"""Tests for the command-line interface and file outputs."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from directwf import reconstruct_exact
from directwf.cli import (
    MAX_DIM,
    MAX_TRIAL_POSITIONS,
    ConfigError,
    build_state,
    main,
    parse_angle,
    parse_shots,
)


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestParsing:
    def test_plain_float(self):
        assert parse_angle("0.75") == 0.75

    def test_pi_forms(self):
        assert parse_angle("pi") == pytest.approx(math.pi)
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert parse_angle("3*pi/4") == pytest.approx(3 * math.pi / 4)
        assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_angle(" PI/2 ") == pytest.approx(math.pi / 2)

    def test_bad_angle(self):
        with pytest.raises(ConfigError):
            parse_angle("two")
        with pytest.raises(ConfigError):
            parse_angle("pi/0")

    def test_shots(self):
        assert parse_shots("exact") == "exact"
        assert parse_shots("300000") == 300000
        with pytest.raises(ConfigError):
            parse_shots("-5")
        with pytest.raises(ConfigError):
            parse_shots("many")
        assert parse_shots(str(2**63 - 1)) == 2**63 - 1
        with pytest.raises(ConfigError):
            parse_shots(str(2**63))


class TestBuildState:
    def test_uniform(self):
        np.testing.assert_allclose(build_state(4, "uniform").amplitudes, np.full(4, 0.5))

    def test_basis(self):
        state = build_state(3, "basis:1")
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0])
        with pytest.raises(ConfigError):
            build_state(3, "basis:3")

    def test_gaussian(self):
        state = build_state(5, "gaussian:1.0")
        amps = state.amplitudes.real
        assert abs(np.linalg.norm(amps) - 1) < 1e-12
        assert amps[2] > amps[1] > amps[0] > 0
        np.testing.assert_allclose(amps, amps[::-1])
        for spec in ("gaussian:-1", "gaussian:nan", "gaussian:inf"):
            with pytest.raises(ConfigError):
                build_state(5, spec)

    def test_random_clears_amplitude_sum_floor(self):
        for seed in range(5):
            state = build_state(6, f"random:{seed}")
            assert abs(state.amplitudes.sum()) > 0.1

    def test_explicit_list(self):
        state = build_state(2, "0.6, 0.8j")
        np.testing.assert_allclose(state.amplitudes, [0.6, 0.8j])
        state_i = build_state(2, "0.6,0.8i")
        np.testing.assert_allclose(state_i.amplitudes, [0.6, 0.8j])

    def test_wrong_length(self):
        with pytest.raises(ConfigError):
            build_state(3, "1,0")

    def test_zero_list(self):
        with pytest.raises(ConfigError):
            build_state(2, "0,0")

    def test_non_finite_list(self):
        for spec in ("nan,1", "inf,1", "1,-infj"):
            with pytest.raises(ConfigError):
                build_state(2, spec)

    def test_tiny_and_huge_lists(self):
        for spec in ("1e-200,1e-200", "1e200,-1e200j"):
            state = build_state(2, spec)
            np.testing.assert_allclose(np.abs(state.amplitudes), np.full(2, 2**-0.5))

    def test_unknown_spec(self):
        with pytest.raises(ConfigError):
            build_state(2, "bell")


class TestSimulateCommand:
    def test_exact_csv(self, tmp_path):
        out = tmp_path / "probs.csv"
        code = main([
            "simulate", "--dim", "2", "--state", "basis:0",
            "--theta", "1.5707963", "--shots", "exact",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "p_plus", "p_minus", "p_zero", "p_one", "p_L", "p_R", "p_postselect"]
        assert len(rows) == 2
        assert float(rows[0]["p_one"]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[0]["p_postselect"]) == pytest.approx(0.5, abs=1e-12)

    def test_sampled_writes_companion_table(self, tmp_path):
        out = tmp_path / "probs.csv"
        code = main([
            "simulate", "--dim", "2", "--state", "uniform", "--theta", "pi/2",
            "--shots", "600", "--seed", "4", "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        sampled = tmp_path / "probs.sampled.csv"
        assert sampled.exists()
        header, rows = read_csv(sampled)
        assert header[0] == "x" and len(rows) == 2

    def test_json_document(self, tmp_path):
        out = tmp_path / "probs.json"
        code = main([
            "simulate", "--dim", "2", "--state", "basis:0", "--theta", "pi/2",
            "--shots", "exact", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["command"] == "simulate"
        assert doc["exact"][0]["p_one"] == pytest.approx(0.5, abs=1e-12)

    def test_csv_round_trips_exact_doubles(self, tmp_path):
        from directwf import joint_probabilities

        out = tmp_path / "probs.csv"
        main([
            "simulate", "--dim", "3", "--state", "random:2", "--theta", "0.9",
            "--shots", "exact", "--out", str(out), "--format", "csv",
        ])
        psi = build_state(3, "random:2")
        _, rows = read_csv(out)
        exact = joint_probabilities(psi, 0.9)
        for x, row in enumerate(rows):
            assert float(row["p_plus"]) == exact[x, 0]
            assert float(row["p_one"]) == exact[x, 3]
            assert float(row["p_postselect"]) == exact[x, 0] + exact[x, 1]

    def test_missing_dim_exits_2(self, capsys):
        code = main(["simulate", "--theta", "0.5", "--out", "x.json"])
        assert code == 2

    def test_zero_theta_exits_3(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["simulate", "--dim", "2", "--theta", "0", "--out", str(out)])
        assert code == 3
        assert "DegenerateAngle" in capsys.readouterr().err


class TestReconstructCommand:
    def test_exact_uniform_json(self, tmp_path):
        out = tmp_path / "rec.json"
        code = main([
            "reconstruct", "--dim", "4", "--state", "uniform", "--theta", "pi/2",
            "--shots", "exact", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-10)
        for re_im in doc["estimate"]:
            assert re_im[0] == pytest.approx(0.5, abs=1e-10)
            assert re_im[1] == pytest.approx(0.0, abs=1e-10)

    def test_sampled_random_d8(self, tmp_path):
        # random:8 has amplitude sum magnitude ~1.98, well clear of the floor
        out = tmp_path / "rec.json"
        code = main([
            "reconstruct", "--dim", "8", "--state", "random:8", "--theta", "pi/2",
            "--shots", "3000000", "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["fidelity"] > 0.999
        assert sum(doc["shots_used"]) == 3000000

    def test_csv_schema_and_summary(self, tmp_path):
        out = tmp_path / "rec.csv"
        code = main([
            "reconstruct", "--dim", "2", "--state", "0.6,0.8i", "--theta", "pi/2",
            "--shots", "exact", "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["x", "re_psi", "im_psi", "re_true", "im_true"]
        assert len(rows) == 2
        summary = json.loads((tmp_path / "rec.summary.json").read_text(encoding="utf-8"))
        assert summary["fidelity"] == pytest.approx(1.0, abs=1e-10)
        # estimate and aligned truth agree column by column
        for row in rows:
            assert float(row["re_psi"]) == pytest.approx(float(row["re_true"]), abs=1e-9)
            assert float(row["im_psi"]) == pytest.approx(float(row["im_true"]), abs=1e-9)

    def test_vanishing_amplitude_sum_exits_3(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        code = main([
            "reconstruct", "--dim", "2", "--state", "1,-1", "--theta", "pi/2",
            "--shots", "exact", "--out", str(out),
        ])
        assert code == 3
        assert "VanishingTildePsi" in capsys.readouterr().err

    def test_non_finite_state_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        for spec in ("nan,1", "inf,1"):
            code = main([
                "reconstruct", "--dim", "2", "--state", spec, "--theta", "pi/2",
                "--out", str(out),
            ])
            assert code == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_bad_gaussian_width_exits_2(self, tmp_path, capsys):
        # a NaN width, and a width whose square underflows to zero; a numpy
        # warning would turn into an exception and exit 1
        out = tmp_path / "rec.json"
        for spec in ("gaussian:nan", "gaussian:1e-300"):
            code = main([
                "reconstruct", "--dim", "4", "--state", spec, "--theta", "pi/2",
                "--out", str(out),
            ])
            assert code == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()

    def test_huge_shots_exit_2(self, tmp_path, capsys):
        out = tmp_path / "rec.json"
        args = ["reconstruct", "--dim", "2", "--theta", "pi/2", "--out", str(out)]
        assert main([*args, "--shots", "100000000000000000000000"]) == 2
        assert "internal error" not in capsys.readouterr().err
        assert not out.exists()
        assert main([*args, "--shots", str(2**63 - 1)]) == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert sum(doc["shots_used"]) == 2**63 - 1

    def test_tiny_amplitudes_accepted(self, tmp_path):
        out = tmp_path / "rec.json"
        code = main([
            "reconstruct", "--dim", "2", "--state", "1e-200,1e-200", "--theta", "pi/2",
            "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["fidelity"] == pytest.approx(1.0, abs=1e-12)

    def test_json_round_trips_doubles(self, tmp_path):
        out = tmp_path / "rec.json"
        main([
            "reconstruct", "--dim", "4", "--state", "random:3", "--theta", "0.8",
            "--shots", "exact", "--out", str(out),
        ])
        doc = json.loads(out.read_text(encoding="utf-8"))
        from directwf.cli import build_state as bs

        result = reconstruct_exact(bs(4, "random:3"), 0.8)
        for pair, amp in zip(doc["estimate"], result.estimate.amplitudes):
            assert pair[0] == amp.real
            assert pair[1] == amp.imag


class TestSweepCommand:
    def test_two_angles_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main([
            "sweep", "--dim", "4", "--state", "uniform", "--theta", "0.1,pi/2",
            "--shots", "60000", "--trials", "40", "--seed", "2",
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "theta"
        assert len(rows) == 2
        assert float(rows[1]["rmse_l2"]) < float(rows[0]["rmse_l2"])

    def test_single_angle_exits_2(self, tmp_path):
        code = main([
            "sweep", "--dim", "2", "--theta", "0.5", "--shots", "1000",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert code == 2

    def test_exact_sweep_noiseless(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--dim", "3", "--state", "gaussian:0.8", "--theta", "0.3,1.1,pi/2",
            "--shots", "exact", "--trials", "5", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert all(row["rmse_l2"] < 1e-9 for row in doc["results"])


class TestSizeCaps:
    @staticmethod
    def refused_without_allocating(argv, capsys):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert peak < 2**20
        err = capsys.readouterr().err
        assert "internal error" not in err
        return err

    def test_huge_dim_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        argv = ["reconstruct", "--dim", "10000000000000", "--theta", "pi/2", "--out", str(out)]
        assert str(MAX_DIM) in self.refused_without_allocating(argv, capsys)
        assert not out.exists()

    def test_huge_sampled_sweep_exits_2(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        trials = MAX_TRIAL_POSITIONS // 64 + 1
        argv = [
            "sweep", "--dim", "64", "--theta", "0.1,pi/2", "--shots", "10000000",
            "--trials", str(trials), "--out", str(out),
        ]
        assert str(MAX_TRIAL_POSITIONS) in self.refused_without_allocating(argv, capsys)
        assert not out.exists()
        # an exact sweep inverts one table whatever the trial count
        exact = [*argv[:5], "--shots", "exact", *argv[7:]]
        assert main(exact) == 0

    def test_caps_in_help(self, capsys):
        assert main(["sweep", "--help"]) == 0
        text = capsys.readouterr().out
        assert str(MAX_DIM) in text
        assert str(MAX_TRIAL_POSITIONS) in text


class TestParameterErrors:
    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "sweep"])
    def test_theta_out_of_range_exits_2(self, command, tmp_path, capsys):
        theta = "0.5,4" if command == "sweep" else "4"
        code = main([command, "--dim", "2", "--theta", theta, "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "theta must lie in [0, pi]" in capsys.readouterr().err


class TestOutputMode:
    @pytest.mark.parametrize(
        "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
    )
    def test_files_follow_umask(self, tmp_path, umask, mode):
        out = tmp_path / "rec.csv"
        previous = os.umask(umask)
        try:
            code = main([
                "reconstruct", "--dim", "4", "--theta", "pi/2", "--out", str(out),
                "--format", "csv",
            ])
        finally:
            os.umask(previous)
        assert code == 0
        for path in (out, tmp_path / "rec.summary.json"):
            assert path.stat().st_mode & 0o777 == mode


class TestDeterminism:
    def test_identical_config_rewrites_identical_bytes(self, tmp_path):
        out = tmp_path / "rec.json"
        args = [
            "reconstruct", "--dim", "4", "--state", "gaussian:1.0", "--theta", "pi/2",
            "--shots", "30000", "--seed", "7", "--out", str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_csv_payloads_identical(self, tmp_path):
        out = tmp_path / "probs.csv"
        args = [
            "simulate", "--dim", "3", "--state", "random:9", "--theta", "1.0",
            "--shots", "999", "--seed", "8", "--out", str(out), "--format", "csv",
        ]
        assert main(args) == 0
        first = out.read_bytes()
        first_sampled = (tmp_path / "probs.sampled.csv").read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "probs.sampled.csv").read_bytes() == first_sampled

    def test_budget_below_settings_exits_2(self, tmp_path):
        code = main([
            "simulate", "--dim", "4", "--theta", "1.0", "--shots", "5",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
