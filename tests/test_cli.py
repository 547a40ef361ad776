"""Tests for the command-line interface and file outputs."""

import errno
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from directwf import InvalidParameterError, reconstruct_exact, serialize
from directwf.cli import (
    MAX_DIM,
    MAX_TRIAL_POSITIONS,
    build_state,
    main,
    parse_angle,
    parse_shots,
)
from directwf.errors import require_integer
from directwf.metrics import TrialStatistics
from directwf.sampling import split_budget


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
        with pytest.raises(InvalidParameterError, match="cannot parse angle 'two'"):
            parse_angle("two")
        with pytest.raises(InvalidParameterError, match="division by zero"):
            parse_angle("pi/0")

    def test_shots(self):
        # parsing checks no range: budgets out of range are refused by
        # sampling.split_budget (tests/test_errors.py)
        assert parse_shots("exact") == "exact"
        assert parse_shots("300000") == 300000
        with pytest.raises(InvalidParameterError, match="an integer or 'exact'"):
            parse_shots("many")
        assert parse_shots("-5") == -5
        assert parse_shots(str(2**63)) == 2**63


class TestBuildState:
    def test_uniform(self):
        np.testing.assert_allclose(build_state(4, "uniform").amplitudes, np.full(4, 0.5))

    def test_basis(self):
        state = build_state(3, "basis:1")
        np.testing.assert_allclose(state.amplitudes, [0, 1, 0])
        with pytest.raises(InvalidParameterError, match="basis index 3 outside"):
            build_state(3, "basis:3")

    def test_gaussian(self):
        state = build_state(5, "gaussian:1.0")
        amps = state.amplitudes.real
        assert abs(np.linalg.norm(amps) - 1) < 1e-12
        assert amps[2] > amps[1] > amps[0] > 0
        np.testing.assert_allclose(amps, amps[::-1])
        for spec in ("gaussian:-1", "gaussian:nan", "gaussian:inf"):
            with pytest.raises(InvalidParameterError, match="positive and finite"):
                build_state(5, spec)
        # every weight but the centre's overflows its exponent to zero
        np.testing.assert_array_equal(build_state(5, "gaussian:1e-160").amplitudes, np.eye(5)[2])

    def test_gaussian_zero_width_squared_is_the_centre_state(self, tmp_path):
        # 4 sigma**2 underflows to zero at 1e-200, which made the centre weight 0 / 0
        outs = [tmp_path / f"{width}.csv" for width in ("1e-160", "1e-200")]
        for out in outs:  # a CSV table, as a JSON document echoes the --state text
            argv = ["simulate", "--dim", "5", "--state", f"gaussian:{out.stem}", "--theta", "1"]
            assert main([*argv, "--out", str(out), "--format", "csv"]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        np.testing.assert_array_equal(build_state(5, "gaussian:1e-200").amplitudes, np.eye(5)[2])

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
        with pytest.raises(InvalidParameterError, match="2 entries, expected 3"):
            build_state(3, "1,0")

    def test_zero_list(self):
        with pytest.raises(InvalidParameterError, match="all-zero"):
            build_state(2, "0,0")

    def test_non_finite_list(self):
        for spec in ("nan,1", "inf,1", "1,-infj"):
            with pytest.raises(InvalidParameterError, match="must be finite"):
                build_state(2, spec)

    def test_tiny_and_huge_lists(self):
        for spec in ("1e-200,1e-200", "1e200,-1e200j", "1e-320,1e-320", "5e-324,5e-324"):
            state = build_state(2, spec)
            np.testing.assert_allclose(np.abs(state.amplitudes), np.full(2, 2**-0.5))
        state = build_state(2, "1e-310,3e-310j")
        np.testing.assert_allclose(np.abs(state.amplitudes), [10**-0.5, 3 * 10**-0.5])

    def test_unknown_spec(self):
        with pytest.raises(InvalidParameterError, match="unrecognized state spec"):
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

    def test_exact_fidelity_is_at_most_one(self, tmp_path):
        # unclamped, rounding put this overlap at 1.0000000000000004
        out = tmp_path / "rec.json"
        code = main([
            "reconstruct", "--dim", "4", "--state", "random:1", "--theta", "3.1415926",
            "--out", str(out),
        ])
        assert code == 0
        assert json.loads(out.read_text(encoding="utf-8"))["fidelity"] == 1.0

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

    @pytest.mark.parametrize(
        "flags, compared",
        [
            # |S| = 1, but one shot per setting puts the 3 sigma floor above any raw norm
            (["--dim", "2", "--state", "1,0", "--theta", "1", "--shots", "6"],
             "raw estimate norm 1.414e+00 at or below floor 5.196e+00"),
            # |S| = 0.596, and sin(theta)/d is about 2.4e-10
            (["--dim", "4096", "--state", "random:1", "--theta", "1e-6"],
             "raw estimate norm 2.911e-10 at or below floor 1.000e-09"),
        ],
        ids=["few_shots", "small_sin_theta_over_d"],
    )
    def test_raw_norm_refusal_names_every_cause(self, flags, compared, tmp_path, capsys):
        assert main(["reconstruct", *flags, "--out", str(tmp_path / "r.json")]) == 3
        assert capsys.readouterr().err == (
            f"error: VanishingTildePsiError: {compared}; a small amplitude sum |S|, a small"
            " sin(theta)/d or, for a sampled table, few shots per setting can each put the"
            " norm there\n"
        )
        assert not list(tmp_path.iterdir())

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

    @pytest.mark.parametrize(
        "flags",
        [
            # 17, 19 and 15 of 30 trials fail
            ["--dim", "64", "--state", "random:8", "--theta", "0.2,1.0,2.5", "--shots", "3000",
             "--trials", "30", "--seed", "5"],
            ["--dim", "4", "--theta", "0.1,pi/2", "--shots", "exact", "--trials", "5"],
        ],
        ids=["failed_trials", "exact"],
    )
    def test_csv_and_json_share_one_schema(self, flags, tmp_path):
        # both formats write the fields of TrialStatistics, the CSV in field order
        for fmt in ("csv", "json"):
            out = str(tmp_path / f"s.{fmt}")
            assert main(["sweep", *flags, "--out", out, "--format", fmt]) == 0
        header, rows = read_csv(tmp_path / "s.csv")
        results = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))["results"]
        assert tuple(header) == TrialStatistics._fields
        assert len(rows) == len(results) >= 2
        for row, result in zip(rows, results):
            assert list(result) == sorted(TrialStatistics._fields)
            # each CSV cell is str of its JSON value: the same int, double or "exact"
            assert row == {name: str(value) for name, value in result.items()}


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

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "sweep"])
    @pytest.mark.parametrize("shots", ["exact", "1200"])
    def test_negative_seed_exits_2(self, command, shots, tmp_path, capsys):
        # an exact run derives no stream, so the CLI checks --seed itself,
        # through the library's seed rule
        theta = "0.5,1" if command == "sweep" else "1"
        argv = [command, "--dim", "4", "--theta", theta, "--shots", shots, "--seed", "-1"]
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        with pytest.raises(InvalidParameterError) as library:
            require_integer(-1, "seed")
        assert capsys.readouterr().err == f"error: {library.value}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "reconstruct", "sweep"])
    def test_singular_angle_is_reported_before_too_few_shots(self, command, tmp_path, capsys):
        theta = "0.5,0" if command == "sweep" else "0"
        argv = [command, "--dim", "4", "--theta", theta, "--shots", "5"]
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 3
        assert "DegenerateAngleError" in capsys.readouterr().err

    def test_trials_are_reported_before_too_few_shots(self, tmp_path, capsys):
        argv = ["sweep", "--dim", "4", "--theta", "0.5,1", "--shots", "5", "--trials", "1"]
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == "error: trials must be an integer >= 2, got 1\n"

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("simulate", ["--theta", "pi*2"], "cannot parse angle 'pi*2'"),
            ("simulate", ["--theta", ","], "no angle given"),
            ("simulate", ["--state", "1,x"], "cannot parse amplitude 'x'"),
            ("simulate", ["--state", "basis:one"], "bad basis index in 'basis:one'"),
            ("simulate", ["--state", "gaussian:wide"], "bad width in 'gaussian:wide'"),
            ("simulate", ["--state", "random:x"], "bad seed in 'random:x'"),
            ("simulate", ["--state", "random:-1"], "state seed must be nonnegative, got -1"),
            ("simulate", ["--theta", "0.5,1"], "this command takes exactly one --theta value"),
            ("reconstruct", ["--theta", "0.5,1"], "this command takes exactly one --theta value"),
            # the weights overflow to zero, once under an overflow warning
            ("simulate", ["--dim", "4", "--state", "gaussian:1e-160"],
             "gaussian width 1e-160 is too narrow for d = 4: no weight is positive"),
            ("simulate", ["--dim", "4", "--state", "gaussian:1e-5"],
             "gaussian width 1e-05 is too narrow for d = 4: no weight is positive"),
        ],
        ids=[
            "angle", "no_angle", "amplitude", "basis_index", "width", "state_seed",
            "negative_state_seed", "simulate_two_angles", "reconstruct_two_angles",
            "overflowing_width", "underflowing_width",
        ],
    )
    def test_refusal_exits_2(self, command, flags, message, tmp_path, capsys):
        # a later --theta overrides the default one
        argv = [command, "--dim", "2", "--theta", "1", *flags]
        assert main([*argv, "--out", str(tmp_path / "x.json")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "target",
        [
            "directory", "fifo", "under_file", "empty", "sampled_sibling", "summary_sibling",
            "symlink", "dangling_symlink", "nameless", "unwritable_directory",
        ],
    )
    def test_exits_2(self, target, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = ["reconstruct", "--dim", "4", "--theta", "pi/2"]
        if target == "directory":
            (tmp_path / "d").mkdir()
            out = named = str(tmp_path / "d")
        elif target == "fifo":
            # renaming over a FIFO would replace it with a regular file
            if not hasattr(os, "mkfifo"):
                pytest.skip("os.mkfifo is not available")
            os.mkfifo(tmp_path / "p")
            out = named = str(tmp_path / "p")
        elif target == "under_file":
            (tmp_path / "f").write_text("keep", encoding="utf-8")
            out, named = str(tmp_path / "f" / "y.json"), str(tmp_path / "f")
        elif target == "empty":
            out, named = "", "empty"
        elif target == "unwritable_directory":
            # the temp file cannot be created, as in a read-only directory;
            # refused through open, since root may write a directory of mode 0o555
            def refuse(file, *args, **kwargs):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(file))

            monkeypatch.setattr(serialize, "open", refuse, raising=False)
            out = named = str(tmp_path / "r.json")
        elif target == "nameless":
            # a path with no last name has no CSV companion to derive
            argv += ["--format", "csv"]
            out, named = ".", "'.'"
        elif target in ("symlink", "dangling_symlink"):
            # renaming over a link would replace it and leave its target alone
            if target == "symlink":
                (tmp_path / "target.json").write_text("keep", encoding="utf-8")
            os.symlink("target.json", tmp_path / "link.json")
            out = named = str(tmp_path / "link.json")
        else:
            # the second file of a CSV run is a directory: nothing may be written
            sibling = "r.sampled.csv" if target == "sampled_sibling" else "r.summary.json"
            (tmp_path / sibling).mkdir()
            if target == "sampled_sibling":
                argv = ["simulate", "--dim", "4", "--theta", "pi/2", "--shots", "1200"]
            argv += ["--format", "csv"]
            out, named = str(tmp_path / "r.csv"), str(tmp_path / sibling)
        code = main([*argv, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: cannot write output: " in err
        assert named in err
        assert ".tmp" not in err
        assert "internal error" not in err
        assert not list(tmp_path.glob("*.tmp"))  # pathlib's * matches dot files too
        assert not (tmp_path / "r.csv").exists()
        if target == "fifo":
            assert stat.S_ISFIFO((tmp_path / "p").stat().st_mode)
        if target in ("symlink", "dangling_symlink"):
            assert os.readlink(tmp_path / "link.json") == "target.json"  # still a link
            if target == "symlink":
                assert (tmp_path / "target.json").read_bytes() == b"keep"
            else:
                assert not (tmp_path / "target.json").exists()


@pytest.mark.parametrize(
    "flags, code",
    [([], 0), (["--dim", "1"], 2), (["--theta", "0"], 3)],
    ids=["ok", "invalid", "degenerate"],
)
def test_exit_code_of_the_process(flags, code, tmp_path):
    argv = ["reconstruct", "--dim", "4", "--theta", "pi/2", "--out", str(tmp_path / "r.json")]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "directwf.cli", *argv, *flags],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert (tmp_path / "r.json").exists() == (code == 0)
    assert proc.stderr.startswith("error: ") == (code != 0)


SWEEP_THEN_SIMULATE = """
import sys
from directwf.cli import main

out = sys.argv[1]
for fmt in ("csv", "json"):
    sweep = ["sweep", "--dim", "4", "--theta", "0.1,pi/2", "--shots", "60000", "--trials", "5"]
    assert main([*sweep, "--out", f"{out}/sweep.{fmt}", "--format", fmt]) == 0
    print("directwf._text" in sys.modules)
assert main(["simulate", "--dim", "4", "--theta", "pi/2", "--out", f"{out}/p.json"]) == 0
print("directwf._text" in sys.modules)
"""


def test_text_kernels_load_only_with_an_array(tmp_path):
    # a sweep writes no array, so it never pays for building the kernels' tables
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SWEEP_THEN_SIMULATE, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


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


    def test_writes_never_touch_the_umask(self, tmp_path, monkeypatch):
        # the umask is process-wide: setting it, even briefly, unmasks other threads' files
        def refuse(mask):
            raise AssertionError("os.umask called during a write")

        monkeypatch.setattr(os, "umask", refuse)
        out = tmp_path / "rec.csv"
        argv = ["reconstruct", "--dim", "4", "--theta", "pi/2", "--out", str(out)]
        assert main([*argv, "--format", "csv"]) == 0
        assert out.exists() and (tmp_path / "rec.summary.json").exists()

    def test_taken_temp_name_is_left_alone(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(os, "urandom", bytes)  # every temp name ends .0000000000000000.tmp
        taken = tmp_path / "rec.json.0000000000000000.tmp"
        taken.write_text("keep", encoding="utf-8")
        out = tmp_path / "rec.json"
        assert main(["reconstruct", "--dim", "4", "--theta", "pi/2", "--out", str(out)]) == 2
        # the message names --out, but does not claim that it exists
        assert capsys.readouterr().err == (
            f"error: cannot write output: [Errno {errno.EEXIST}] cannot create a temporary"
            f" file beside {str(out)!r}: {os.strerror(errno.EEXIST)}\n"
        )
        assert taken.read_text(encoding="utf-8") == "keep"
        assert not out.exists()


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

    def test_budget_below_settings_exits_2(self, tmp_path, capsys):
        code = main([
            "simulate", "--dim", "4", "--theta", "1.0", "--shots", "5",
            "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        # the budget rule is the library's, for the CLI as for every caller
        with pytest.raises(InvalidParameterError) as library:
            split_budget(5, 4)
        assert capsys.readouterr().err == f"error: {library.value}\n"
        assert not list(tmp_path.iterdir())
