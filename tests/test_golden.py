"""Golden files: the determinism contract of the command-line interface.

Each case is one CLI argv; the files it wrote when the goldens were pinned
live under tests/golden/<case>/. The test reruns the argv into a temporary
directory and compares every file written against the stored copy:

* cells derived from sampled counts (the sampled probability columns and
  shots_used) must match byte for byte,
* integers and strings must match exactly,
* every other float must agree within 1e-12.

Because of that tolerance, a second test checks the format of every file
written byte for byte: JSON must be exactly json.dumps(indent=2,
sort_keys=True) of its own content, and CSV exactly the per-value oracle's
rendering of its own cells.

A change that alters the seeding rule on purpose regenerates the goldens it
moves with `PYTHONPATH=src python tests/test_golden.py CASE [CASE ...]` and
says so; an unknown case name is refused, and with no names every case is
regenerated.

Sampled goldens hold numpy's random streams, so they can move with numpy
itself: tests/golden_versions.json records the numpy and Python that made
them, regenerating a sampled case rewrites it, and a sampled mismatch reports
it beside the running numpy.
"""

import json
import platform
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from directwf.cli import main
from oracles import render_csv

GOLDEN = Path(__file__).parent / "golden"
VERSIONS = Path(__file__).parent / "golden_versions.json"
FLOAT_TOL = 1e-12
COUNT_KEYS = ("sampled", "shots_used")

CASES = {
    "simulate_exact_csv": (
        "probs.csv",
        ["simulate", "--dim", "4", "--state", "gaussian:1.0", "--theta", "pi/2",
         "--shots", "exact", "--format", "csv"],
    ),
    "simulate_exact_json": (
        "probs.json",
        ["simulate", "--dim", "5", "--state", "1,2i,-0.5,0.3-0.7i,1", "--theta", "0.7"],
    ),
    "simulate_sampled_csv": (
        "probs.csv",
        ["simulate", "--dim", "4", "--state", "random:3", "--theta", "1.1",
         "--shots", "120000", "--seed", "7", "--format", "csv"],
    ),
    "simulate_sampled_json": (
        "probs.json",
        ["simulate", "--dim", "3", "--state", "gaussian:0.8", "--theta", "pi/3",
         "--shots", "90000", "--seed", "11"],
    ),
    "reconstruct_exact_json": (
        "rec.json",
        ["reconstruct", "--dim", "8", "--state", "random:8", "--theta", "pi/2"],
    ),
    "reconstruct_exact_csv": (
        "rec.csv",
        ["reconstruct", "--dim", "6", "--state", "gaussian:1.5", "--theta", "0.4",
         "--format", "csv"],
    ),
    "reconstruct_sampled_json": (
        "rec.json",
        ["reconstruct", "--dim", "8", "--state", "random:8", "--theta", "pi/2",
         "--shots", "3000000", "--seed", "5"],
    ),
    "reconstruct_sampled_csv": (
        "rec.csv",
        ["reconstruct", "--dim", "4", "--state", "gaussian:1.0", "--theta", "pi/2",
         "--shots", "120000", "--seed", "99", "--format", "csv"],
    ),
    "sweep_sampled_csv": (
        "sweep.csv",
        ["sweep", "--dim", "4", "--state", "uniform", "--theta", "0.1,0.5,1.0,pi/2",
         "--shots", "300000", "--trials", "20", "--seed", "1", "--format", "csv"],
    ),
    "sweep_exact_json": (
        "sweep.json",
        ["sweep", "--dim", "3", "--state", "random:5", "--theta", "0.4,1.2",
         "--shots", "exact", "--trials", "5"],
    ),
}


class _Float(str):
    """A float kept as the text it was written as."""


def _csv_cell(text: str):
    if re.fullmatch(r"-?\d+", text):
        return int(text)
    try:
        float(text)
    except ValueError:
        return text
    return _Float(text)


def _load(path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return json.loads(text, parse_float=_Float)
    return [[_csv_cell(c) for c in line.split(",")] for line in text.splitlines()]


def _compare(got, want, where: str, exact: bool) -> None:
    if isinstance(want, _Float) and not exact:
        assert isinstance(got, _Float), f"{where}: {got!r} is not a float"
        g, w = float(got), float(want)
        assert abs(g - w) <= FLOAT_TOL * max(1.0, abs(w)), f"{where}: {got} != {want}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), f"{where}: keys differ"
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", exact or key in COUNT_KEYS)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", exact)
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _run(case: str, out_dir: Path) -> None:
    out_name, argv = CASES[case]
    out_dir.mkdir(parents=True, exist_ok=True)
    assert main([*argv, "--out", str(out_dir / out_name)]) == 0


def _sampled(case: str) -> bool:
    argv = CASES[case][1]
    return "--shots" in argv and argv[argv.index("--shots") + 1] != "exact"


def _versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case, tmp_path):
    _run(case, tmp_path)
    want_dir = GOLDEN / case
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in want_dir.iterdir())
    try:
        for name in written:
            got, want = tmp_path / name, want_dir / name
            if name.endswith(".sampled.csv"):
                assert got.read_bytes() == want.read_bytes(), f"{case}/{name} differs"
            else:
                _compare(_load(got), _load(want), f"{case}/{name}", exact=False)
    except AssertionError as error:
        if not _sampled(case):
            raise
        recorded = json.loads(VERSIONS.read_text(encoding="utf-8"))
        raise AssertionError(
            f"{error}\nsampled goldens made with {recorded}; running {_versions()}"
        ) from error


@pytest.mark.parametrize("case", sorted(CASES))
def test_written_bytes_are_canonical(case, tmp_path):
    _run(case, tmp_path)
    for path in sorted(tmp_path.iterdir()):
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            canonical = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        else:
            header, *lines = text.splitlines()
            rows = [[_reparsed(c) for c in line.split(",")] for line in lines]
            canonical = render_csv(header.split(","), rows)
        assert text == canonical, f"{case}/{path.name} is not in canonical form"


def _reparsed(text: str):
    cell = _csv_cell(text)
    return float(cell) if isinstance(cell, _Float) else cell


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown golden case {', '.join(unknown)}; known: {', '.join(sorted(CASES))}")
    for case in names:
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        _run(case, GOLDEN / case)
        print(f"wrote {GOLDEN / case}")
    if any(map(_sampled, names)):
        VERSIONS.write_text(json.dumps(_versions(), indent=2) + "\n", encoding="utf-8")
        print(f"wrote {VERSIONS}")
