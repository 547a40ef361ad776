"""Check that the working tree's CLI writes what a parent revision's writes, byte for byte.

Usage: python tests/same_outputs.py --parent REV

The parent's src/ is exported with `git archive REV src` into a temporary
directory; the working tree's src/ is used as it is, uncommitted edits
included. Each argv below runs once per tree, each run in a fresh
`python -m directwf.cli` process with PYTHONWARNINGS=error and an empty
working directory of its own. The exit code, stdout, stderr and every file
written must be identical, and each exit code must be the one its argv
expects: 2 or 3 for the argvs labelled fails/, 0 for every other. Each
difference or unexpected exit code is printed with its argv, and the script
exits 1 if there is one, 0 if there is none. With --parent HEAD on a clean
checkout both trees are the same commit, so every argv runs twice in fresh
processes: that is how CI checks that the same argv writes the same bytes.

The argvs: the golden cases of tests/test_golden.py; the README's example
commands, a sampled simulate and a sweep whose trials partly fail,
each in CSV and in JSON; ops 0 to 4 of each bench/workloads.py workload at
workload seed 1; and argvs that exit 2 or 3.
Nothing under bench/ is written: the workloads are imported without bytecode
caching and only build argvs. The name does not start with test_, so pytest
does not collect this script.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CI_SAMPLED = (
    "simulate --dim 4 --state gaussian:1.0 --theta pi/2 --shots 300000 --seed 2 --out drawn.csv"
)
# 38 and 20 of the 40 trials fail the floor at theta = 0.1 and 0.5, so the
# kept rows of an angle are a subset of its trials
PARTLY_FAILED = (
    "sweep --dim 4 --state uniform --theta 0.1,0.5,1.0,pi/2 --shots 480 --trials 40 --seed 1"
    " --out partial.csv"
)
BENCH_SEED = 1
BENCH_OPS = 5
FAILING = (
    # a singular angle: exit 3
    "simulate --dim 4 --theta 0 --shots 5 --out probs.csv",
    # too few shots for 12 settings: exit 2
    "simulate --dim 4 --theta 0.5 --shots 5 --out probs.csv",
    # a negative seed on an exact sweep: exit 2
    "sweep --dim 4 --theta 0.5,1 --shots exact --trials 5 --seed -1 --out sweep.csv",
    # a NaN amplitude: exit 2
    "reconstruct --dim 2 --state 1,nan --theta 1.0 --out rec.json",
    # an --out that is a directory, the working directory itself: exit 2
    "simulate --dim 4 --theta 0.5 --out .",
    # one shot per setting puts the raw-norm floor above any raw norm: exit 3
    "reconstruct --dim 2 --state 1,0 --theta 1 --shots 6 --out rec.json",
    # a gaussian width too narrow for any weight to survive: exit 2
    "simulate --dim 4 --state gaussian:1e-160 --theta 1 --out probs.csv",
)


def readme_commands() -> list[str]:
    """The README's example commands, as the CI reads them."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("Examples:")
    end = lines.index("```", start)
    return [line.removeprefix("directwf ") for line in lines[start:end]
            if line.startswith("directwf ")]


def cases() -> dict[str, list[str]]:
    """Every argv to compare, by a label naming where it comes from."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "bench")]
    from test_golden import CASES
    from workloads import WORKLOADS

    runs = {f"golden/{case}": [*argv, "--out", out] for case, (out, argv) in CASES.items()}
    for line in [*readme_commands(), CI_SAMPLED, PARTLY_FAILED]:
        argv = line.split()
        stem = argv[argv.index("--out") + 1].rpartition(".")[0]
        for fmt in ("csv", "json"):
            runs[f"cli/{stem}.{fmt}"] = [*argv, "--out", f"{stem}.{fmt}", "--format", fmt]
    for name, workload in WORKLOADS.items():
        ops = workload(BENCH_SEED)
        for i in range(BENCH_OPS):
            runs[f"bench/{name}/{i}"] = ops.op(i, Path())[0]
    for i, line in enumerate(FAILING):
        runs[f"fails/{i}"] = line.split()
    return runs


def run(src: Path, argv: list[str], cwd: Path):
    """Exit code, stdout, stderr and the written files of one CLI run."""
    cwd.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error",
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "directwf.cli", *argv], cwd=cwd, env=env, capture_output=True
    )
    files = {p.relative_to(cwd).as_posix(): p.read_bytes()
             for p in sorted(cwd.rglob("*")) if p.is_file()}
    return {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr,
            "files": files}


def differences(label: str, parent: dict, change: dict) -> list[str]:
    """What differs between two runs of one argv, or exits unexpectedly, named for a reader."""
    expected = (2, 3) if label.startswith("fails/") else (0,)
    found = [f"exit code {result['exit code']} in the {tree}, expected"
             f" {' or '.join(map(str, expected))}"
             for tree, result in (("parent", parent), ("change", change))
             if result["exit code"] not in expected]
    found += [key for key in ("exit code", "stdout", "stderr") if parent[key] != change[key]]
    for name in sorted(parent["files"].keys() | change["files"].keys()):
        if parent["files"].get(name) != change["files"].get(name):
            found.append(f"file {name}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    runs = cases()
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.parent, "src"], capture_output=True
        )
        if archive.returncode:
            sys.exit(f"git archive {args.parent}: {archive.stderr.decode().strip()}")
        (tmp / "parent").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "parent")], input=archive.stdout, check=True)
        trees = {"parent": tmp / "parent" / "src", "change": ROOT / "src"}
        failed = files = 0
        for label, case in runs.items():
            parent, change = (run(src, case, tmp / tree / label) for tree, src in trees.items())
            files += len(parent["files"])
            found = differences(label, parent, change)
            if found:
                failed += 1
                print(f"DIFFERS {label}: {', '.join(found)}\n  argv: {' '.join(case)}")
    verdict = f"{failed} of {len(runs)} differ" if failed else "every one identical"
    print(f"{len(runs)} argvs, {files} files at the parent, exit codes and stderr: {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
