"""Op accounting: which outcomes count as failed, and the percentile rule."""

from checks import CheckFailed
from worker import Ledger, closed_loop, percentile, run_op


class FakeCli:
    def __init__(self):
        self.calls = []

    def main(self, argv):
        self.calls.append(argv)
        if argv[0] == "raise":
            raise RuntimeError("escaped")
        return 0 if argv[0] == "ok" else 2


def test_fail_ratio_counts_errors_and_failed_checks():
    cli, ledger, checked = FakeCli(), Ledger(), []

    def good():
        checked.append(True)

    def wrong():
        raise CheckFailed("output disagrees")

    def unparsable():
        raise ValueError("could not convert string to float")

    for argv, check in (
        (["ok"], good),
        (["ok"], wrong),
        (["ok"], unparsable),
        (["exit2"], good),
        (["raise"], good),
    ):
        assert run_op(cli, argv, check, ledger) >= 0.0
    assert (ledger.attempted, ledger.failed) == (5, 4)
    assert ledger.fail_ratio == 0.8
    assert checked == [True]  # a failed command is never checked
    assert len(ledger.reasons) == 4


def test_fail_ratio_of_an_empty_ledger_is_zero():
    assert Ledger().fail_ratio == 0.0


def test_closed_loop_runs_whole_cycles_with_consecutive_op_indices():
    class Cycle:
        cycle = 2

        def op(self, i, out_dir):
            return ["ok", str(i)], lambda: None

    cli, ledger = FakeCli(), Ledger()
    times, next_op = closed_loop(Cycle(), cli, None, 0.0, 5, ledger)
    assert len(times) == 2 and next_op == 7
    assert [argv[1] for argv in cli.calls] == ["5", "6"]
    assert (ledger.attempted, ledger.failed) == (2, 0)


def test_percentile_is_nearest_rank_with_samples_beyond():
    values = list(range(100, 0, -1))
    assert percentile(values, 0.9) == (90, 10)
    assert percentile(values, 0.5) == (50, 50)
    assert percentile([3.0], 0.9) == (3.0, 0)


def test_reported_metrics_match_the_benchmark_declaration():
    import json
    from pathlib import Path

    from spans import Tracer
    from worker import traced_metrics, untraced_metrics
    from workloads import TrialSweep

    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    untraced, _ = untraced_metrics(TrialSweep, [0.5, 0.6], Ledger())
    untraced["setup_s"] = (1.0, "s")  # added by run.py
    probe = {d: 1e-6 * d * d for d in (4, 64, 512, 2048)}
    traced, _ = traced_metrics(Tracer(), [0.6], [0.5], probe)
    for declared, reported in ((spec["end_to_end"], untraced), (spec["per_layer"], traced)):
        assert {m["name"]: m["unit"] for m in declared} == {k: u for k, (_, u) in reported.items()}
    assert abs(traced["protocol.time_exponent_d"][0] - 2.0) < 1e-9
