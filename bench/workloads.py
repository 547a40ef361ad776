"""The benchmark's workloads: the CLI argv of op i and the check of its output.

Op i of a run with workload seed s uses seed s + i. A workload object holds
what its checks need across ops (the truth state when it does not vary), so
building it is part of set-up.
"""

from __future__ import annotations

import math

from checks import (
    check_exact_reconstruct_json,
    check_exact_simulate_csv,
    check_sampled_reconstruct_json,
    check_sweep_csv,
    state_vector,
)


class ExactScan:
    """Alternate exact `simulate --format csv` and `reconstruct --format json`."""

    name = "exact_scan_d2048"
    dim = 2048
    theta = math.pi / 2
    cycle = 2
    settings_per_op = 3 * dim

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, i: int, out_dir):
        spec = f"random:{self.seed + i}"
        common = ["--dim", str(self.dim), "--state", spec, "--theta", "pi/2", "--shots", "exact"]
        if i % 2 == 0:
            out = out_dir / "probs.csv"
            argv = ["simulate", *common, "--out", str(out), "--format", "csv"]

            def check():
                check_exact_simulate_csv(out, state_vector(spec, self.dim), self.theta)
        else:
            out = out_dir / "rec.json"
            argv = ["reconstruct", *common, "--out", str(out), "--format", "json"]

            def check():
                check_exact_reconstruct_json(out, state_vector(spec, self.dim))
        return argv, check


class SampledScan:
    """One finite-shot reconstruct scan, about 100 d^2 shots per setting."""

    name = "sampled_scan_d1024"
    dim = 1024
    spec = "gaussian:256"
    cycle = 1
    settings_per_op = 3 * dim

    def __init__(self, seed: int):
        self.seed = seed
        self.truth = state_vector(self.spec, self.dim)

    def op(self, i: int, out_dir):
        out = out_dir / "rec.json"
        argv = [
            "reconstruct", "--dim", str(self.dim), "--state", self.spec, "--theta", "pi/2",
            "--shots", "300000000000", "--seed", str(self.seed + i), "--out", str(out),
        ]
        return argv, lambda: check_sampled_reconstruct_json(out, self.truth)


class TrialSweep:
    """The README sweep: 200 trials at each of four coupling angles."""

    name = "trial_sweep_d4"
    dim = 4
    thetas = (0.1, 0.5, 1.0, math.pi / 2)
    trials = 200
    cycle = 1
    settings_per_op = 3 * dim * trials * len(thetas)

    def __init__(self, seed: int):
        self.seed = seed

    def op(self, i: int, out_dir):
        out = out_dir / "sweep.csv"
        argv = [
            "sweep", "--dim", str(self.dim), "--state", "uniform",
            "--theta", "0.1,0.5,1.0,pi/2", "--shots", "300000", "--trials", str(self.trials),
            "--seed", str(self.seed + i), "--out", str(out), "--format", "csv",
        ]
        return argv, lambda: check_sweep_csv(out, self.thetas, self.trials)


WORKLOADS = {w.name: w for w in (ExactScan, SampledScan, TrialSweep)}
