"""End-to-end and per-layer benchmark of the directwf command-line interface.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one in-process directwf.cli.main(argv) call (parsing, state build,
compute, serialization, atomic file write), run in a closed loop with one
client: one measuring process, no worker threads, the next op starts when the
previous one returns. Op i uses seed N + i. Every output file is checked for
correctness outside the timed region (see checks.py).

--trace 0 reports the end-to-end metrics; setup_s is the median over SETUPS
fresh processes of the time from process start to ready (imports, workload
state, one untimed warm-up op). --trace 1 reports the per-layer metrics of a
traced run. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it record the
environment and the sample count behind each metric.

Exits 2 without a result when the checkout has no src/directwf to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUPS = 5
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def cache_sizes() -> dict[str, int | None]:
    """L2 and L3 sizes of cpu0 in bytes, from sysfs when it is readable."""
    sizes: dict[str, int | None] = {"l2_bytes": None, "l3_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    units = {"K": 1024, "M": 1024 * 1024}
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            scale = units.get(text[-1])
            sizes[f"l{level}_bytes"] = int(text[:-1]) * scale if scale else int(text)
    return sizes


def source_identity() -> dict[str, str | None]:
    """The git commit, when the checkout is a repository, and a digest of src/directwf."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "directwf").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def start_worker(args, role: str, work: Path, deadline: float) -> tuple[float, dict | None]:
    """Run one worker to completion; return its set-up seconds and its result line."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work), "--role", role,
    ]
    env = dict(os.environ, **{var: str(BLAS_THREADS) for var in THREAD_VARS})
    started = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} worker did not finish before the deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines or not lines[0].startswith("ready "):
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    setup_s = float(lines[0].split()[1]) - started
    return setup_s, (json.loads(lines[-1]) if role == "run" else None)


def measure(args) -> tuple[dict, list[str], dict]:
    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setups = []
        if args.trace == 0:
            for _ in range(SETUPS - 1):
                setups.append(start_worker(args, "setup", work, deadline)[0])
        setup_s, result = start_worker(args, "run", work, deadline)
        setups.append(setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: tuple(v) for name, v in result["metrics"].items()}
    notes = list(result["notes"])
    if args.trace == 0:
        metrics["setup_s"] = (statistics.median(setups), "s")
        notes.append(f"setup_s: median of {len(setups)} fresh processes {setups}")
    env = {
        "python": platform.python_version(),
        "numpy": result["numpy"],
        "nproc": os.cpu_count(),
        **cache_sizes(),
        "blas_threads": BLAS_THREADS,
        **source_identity(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
    }
    return metrics, notes, {**result, "env": env}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="directwf CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "directwf" / "__init__.py").is_file():
        print(f"error: no directwf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, notes, result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(result["env"], sort_keys=True))
    for note in notes:
        print("# " + note)
    for reason in result["reasons"]:
        print("# failure: " + reason)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
