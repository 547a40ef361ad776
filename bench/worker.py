"""The measuring process: set up one workload, then run its closed loop.

run.py starts this script; it is not meant to be run by hand. The worker puts
the checkout's src/ first on sys.path, builds the workload, runs one untimed
warm-up op and prints `ready <monotonic time>`. With --role setup it stops
there. With --role run it then calls directwf.cli.main(argv) in a closed loop
with one client for --seconds seconds and prints one JSON line of metrics.

With --trace 1 the loop time is split: the first half runs untraced, the
second half runs with every layer's public functions wrapped (see spans.py),
and a scaling probe of the exact path follows with the wrappers removed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import CheckFailed

LAYERS = ("cli", "states", "protocol", "reconstruction", "sampling", "metrics", "serialize")
SCALING_DIMS = (4, 64, 512, 2048)


class Ledger:
    """Ops attempted and failed; a failed op either errored or failed its check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_op(cli, argv, check, ledger: Ledger) -> float:
    """Time one cli.main(argv) call, then check its output outside the timing."""
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # an escaped error is a failed op, not a failed benchmark
        code = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if code != 0:
        ledger.record(False, f"{argv[0]}: exit {code}")
        return elapsed
    try:
        check()
    except (CheckFailed, ValueError, KeyError, IndexError, OSError) as exc:
        ledger.record(False, f"{argv[0]}: {type(exc).__name__}: {exc}")
    else:
        ledger.record(True)
    return elapsed


def closed_loop(workload, cli, out_dir, seconds, first_op, ledger):
    """Run whole cycles of ops until `seconds` of wall time have passed."""
    times = []
    i = first_op
    start = time.perf_counter()
    while True:
        for _ in range(workload.cycle):
            argv, check = workload.op(i, out_dir)
            times.append(run_op(cli, argv, check, ledger))
            i += 1
        if time.perf_counter() - start >= seconds:
            return times, i


def percentile(values, q):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_coupling(c, args, kwargs, result, exc):
    if exc is None:
        c["protocol.joint_bytes"] += result.amplitudes.nbytes


def _count_reconstruct(c, args, kwargs, result, exc):
    if exc is None:
        c["reconstruction.positions_inverted"] += result.raw.dim
    elif type(exc).__name__ == "VanishingTildePsiError":
        c["reconstruction.floor_rejections"] += 1


def _count_draw(c, args, kwargs, result, exc):
    if exc is None:
        c["sampling.draws"] += 1
        c["sampling.cells_drawn"] += result.counts.size


def _count_seed(c, args, kwargs, result, exc):
    c["sampling.seeds_derived"] += 1


def _count_distributions(c, args, kwargs, result, exc):
    if exc is None:
        c["sampling.dist_bytes"] += sum(a.nbytes for per_x in result for a in per_x.values())


def _count_estimate(c, args, kwargs, result, exc):
    if exc is None:
        c["sampling.useful_cells"] += 6  # the two k=0 cells of each of the three tables


def _count_trials(c, args, kwargs, result, exc):
    if exc is None:
        c["metrics.trials_ok"] += result.trials - result.failed_trials
        c["metrics.trials_failed"] += result.failed_trials
    elif type(exc).__name__ == "VanishingTildePsiError":
        c["metrics.trials_failed"] += _arg(args, kwargs, 3, "trials")


def _count_write(c, args, kwargs, result, exc):
    if exc is None:
        c["serialize.bytes_written"] += len(_arg(args, kwargs, 1, "text").encode("utf-8"))


COUNTERS = {
    "protocol.apply_coupling": _count_coupling,
    "reconstruction.reconstruct": _count_reconstruct,
    "sampling.sample_counts": _count_draw,
    "sampling.derive_seed": _count_seed,
    "sampling.setting_distributions": _count_distributions,
    "sampling.estimate_probset": _count_estimate,
    "metrics.run_trials": _count_trials,
    "serialize.atomic_write_text": _count_write,
}


def install_tracer():
    from spans import Tracer, package_targets

    tracer = Tracer()
    targets, namespaces = package_targets("directwf", LAYERS)
    tracer.install(targets, namespaces, COUNTERS)
    return tracer


def identity_check(workload, cli, work: Path, ledger: Ledger) -> None:
    """Run each op kind untraced and traced; their output files must match byte for byte.

    The two runs share every argument but --out, which names a file in a
    separate directory for each.
    """
    for i in range(workload.cycle):
        files = []
        for traced in (False, True):
            out_dir = work / f"identity-{i}-{int(traced)}"
            out_dir.mkdir(parents=True, exist_ok=True)
            argv, check = workload.op(i, out_dir)
            tracer = install_tracer() if traced else None
            try:
                run_op(cli, argv, check, ledger)
            finally:
                if tracer is not None:
                    tracer.restore()
            files.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        if files[0] != files[1]:
            ledger.record(False, f"{argv[0]}: traced output differs from untraced output")


def scaling_probe(seed: int) -> dict[int, float]:
    """Median wall time of reconstruct_exact at each of SCALING_DIMS, untraced."""
    import numpy as np
    from directwf.reconstruction import reconstruct_exact
    from directwf.states import make_system_state

    rng = np.random.default_rng(seed)
    out = {}
    for d in SCALING_DIMS:
        psi = make_system_state(rng.standard_normal(d) + 1j * rng.standard_normal(d))
        times = []
        begin = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - begin < 0.3:
            start = time.perf_counter()
            reconstruct_exact(psi, math.pi / 2)
            times.append(time.perf_counter() - start)
        out[d] = statistics.median(times)
    return out


def untraced_metrics(workload, times, ledger) -> tuple[dict, list[str]]:
    """The end-to-end op metrics of one untraced closed loop.

    Per-op times on a shared host are bimodal: ops run at one speed while the
    core is uncontended and about 1.5 to 1.6 times slower in phases of seconds to
    minutes when other tenants compete for it. Every run holds some slow
    phases but the share of them varies, so the median and the mean, which mix
    the two modes, move by up to a quarter between runs of the same code,
    while p90 stays inside the slow mode and moves by a few percent. The
    metrics therefore rest on p90; the median and the timed-wall throughput
    are printed with their sample counts but not reported as metrics.
    """
    p90, beyond = percentile(times, 0.9)
    busy = sum(times)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_s_p90": (p90, "s"),
        "settings_per_s": (workload.settings_per_op / p90, "1/s"),
        "peak_rss_mb": (rss_mib, "MiB"),
    }
    n = len(times)
    notes = [
        f"op_s_p90: nearest rank of n={n} ops, {beyond} samples beyond it",
        f"settings_per_s: {workload.settings_per_op} settings per op over op_s_p90",
        f"op_s_p50 (printed, not a metric): {statistics.median(times)!r} s, median of n={n} ops",
        f"timed-wall throughput (printed, not a metric): {workload.settings_per_op * n / busy!r} "
        f"settings/s, {workload.settings_per_op * n} settings in {busy:.3f} s",
        "peak_rss_mb: ru_maxrss of the measuring process",
        f"fail_ratio: {ledger.fail_ratio} ({ledger.failed} of {ledger.attempted} ops)",
    ]
    return metrics, notes


def traced_metrics(tracer, traced_times, base_times, probe) -> tuple[dict, list[str]]:
    import numpy as np

    n = len(traced_times)
    self_times = tracer.self_times()
    metrics = {}
    for layer in LAYERS:
        spans = [v for k, v in self_times.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(s for s, _ in spans) / n, "s/op")
        metrics[f"{layer}.calls"] = (sum(c for _, c in spans) / n, "count/op")
    c = tracer.counters
    per_op = {
        "protocol.joint_bytes": "bytes/op",
        "reconstruction.positions_inverted": "count/op",
        "reconstruction.floor_rejections": "count/op",
        "sampling.draws": "count/op",
        "sampling.cells_drawn": "count/op",
        "sampling.seeds_derived": "count/op",
        "sampling.dist_bytes": "bytes/op",
        "metrics.trials_ok": "count/op",
        "metrics.trials_failed": "count/op",
        "serialize.bytes_written": "bytes/op",
    }
    for name, unit in per_op.items():
        metrics[name] = (c[name] / n, unit)
    cells = c["sampling.cells_drawn"]
    metrics["sampling.useful_cell_ratio"] = (c["sampling.useful_cells"] / cells if cells else 0.0, "ratio")
    untraced_p90 = percentile(base_times, 0.9)[0]
    traced_p90 = percentile(traced_times, 0.9)[0]
    metrics["trace.overhead_ratio"] = (traced_p90 / untraced_p90, "ratio")
    metrics["trace.op_s_p90_traced"] = (traced_p90, "s")
    metrics["trace.op_s_p90_untraced"] = (untraced_p90, "s")
    dims = sorted(probe)
    slope = float(np.polyfit(np.log(dims), np.log([probe[d] for d in dims]), 1)[0])
    metrics["protocol.time_exponent_d"] = (slope, "exponent")
    for d in dims:
        metrics[f"protocol.exact_s_d{d}"] = (probe[d], "s")
    top = max(LAYERS, key=lambda layer: metrics[f"{layer}.self_s"][0])
    notes = [
        f"per-layer figures: per traced op, n={n} traced ops, {tracer.span_count} spans",
        f"trace.overhead_ratio: traced p90 over untraced p90 (n={n} traced, n={len(base_times)} untraced)",
        f"top layer by self time: {top}",
        "*_bytes: computed from array sizes (nbytes) and text lengths, not measured traffic",
        "protocol.time_exponent_d: least-squares slope of log time over log d, "
        f"reconstruct_exact at d={list(dims)}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--role", choices=("setup", "run"), required=True)
    args = parser.parse_args(argv)

    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import numpy as np

    import directwf.cli as cli

    if Path(cli.__file__).resolve().parent != (src / "directwf").resolve():
        print(f"error: imported directwf from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    work = Path(args.work)
    warm_dir = work / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    warm = Ledger()
    run_op(cli, *workload.op(0, warm_dir), warm)
    if warm.failed:  # the timed ops fail the same way and are counted
        print(f"warning: warm-up op failed: {warm.reasons}", file=sys.stderr)
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.role == "setup":
        return 0

    ledger = Ledger()
    loop_dir = work / "loop"
    loop_dir.mkdir(exist_ok=True)
    if args.trace == 0:
        times, _ = closed_loop(workload, cli, loop_dir, args.seconds, 0, ledger)
        metrics, notes = untraced_metrics(workload, times, ledger)
    else:
        base_times, next_op = closed_loop(workload, cli, loop_dir, args.seconds / 2, 0, ledger)
        identity_check(workload, cli, work, ledger)
        tracer = install_tracer()
        try:
            traced_times, _ = closed_loop(
                workload, cli, loop_dir, args.seconds / 2, next_op, ledger
            )
        finally:
            tracer.restore()
        probe = scaling_probe(args.seed)
        metrics, notes = traced_metrics(tracer, traced_times, base_times, probe)
        out_dir = root / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}.npz"
        tracer.save(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(root)}")
    print(
        json.dumps(
            {
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "reasons": ledger.reasons,
                "numpy": np.__version__,
                "metrics": metrics,
                "notes": notes,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
