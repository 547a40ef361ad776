"""Flat CSV tables and JSON documents with full-precision round-tripping.

Floats are rendered with Python's shortest round-trip repr, so reading a file
back reproduces the exact doubles that were written. Writers go through a
sibling temp file plus rename, so readers never observe partial output, and
no timestamps are embedded: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .protocol import postselection
from .states import OUTCOMES

PROBABILITY_COLUMNS = ("x", *(f"p_{o}" for o in OUTCOMES), "p_postselect")
RECONSTRUCTION_COLUMNS = ("x", "re_psi", "im_psi", "re_true", "im_true")
SWEEP_COLUMNS = (
    "theta",
    "shots_total",
    "trials",
    "failed_trials",
    "mean_fidelity",
    "rmse_l2",
    "bias_l2",
    "std_l2",
    "rmse_se",
)


def _cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def probability_rows(table):
    """Rows in PROBABILITY_COLUMNS order from a (d, 6) joint-probability table."""
    full = np.column_stack([table, postselection(table)])
    return [(x, *row) for x, row in enumerate(full.tolist())]


def probability_dicts(table) -> list[dict]:
    """One {column: value} dict per row of a (d, 6) joint-probability table."""
    return [dict(zip(PROBABILITY_COLUMNS[1:], row[1:])) for row in probability_rows(table)]


def reconstruction_rows(estimate, truth):
    return [
        (x, e.real, e.imag, t.real, t.imag)
        for x, (e, t) in enumerate(zip(estimate, truth))
    ]


def sweep_rows(stats):
    return [tuple(getattr(s, name) for name in SWEEP_COLUMNS) for s in stats]


def complex_pairs(values) -> list[list[float]]:
    """Complex vector as [re, im] pairs, the JSON form used everywhere."""
    return [[float(z.real), float(z.imag)] for z in values]


def stats_dict(s) -> dict:
    return {name: getattr(s, name) for name in SWEEP_COLUMNS}


def dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text with LF endings via temp file + rename.

    The file gets mode 0o666 less the umask, as a file created by open() does.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # reading the umask means setting it, so it is set straight back
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)  # mkstemp creates the file 0600
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
