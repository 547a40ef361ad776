"""Flat CSV tables and JSON documents with full-precision round-tripping.

Floats are rendered with Python's shortest round-trip repr, so reading a file
back reproduces the exact doubles that were written. A JSON document is
exactly the bytes of json.dumps(doc, indent=2, sort_keys=True) plus a newline,
and a non-finite float, which JSON cannot hold, raises ValueError as
json.dumps(..., allow_nan=False) does. Tables are rendered from their arrays
by one %-template per row, built once per table; only the small parts of a
document go through the json module. Writers go through a sibling temp file
plus rename, so readers never observe partial output, and no timestamps are
embedded: identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import NamedTuple

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


class _Records(NamedTuple):
    """A 2-D float array written to JSON as one {key: cell} dict per row."""
    keys: tuple[str, ...]
    rows: np.ndarray


def _csv(columns, rows) -> str:
    line = ",".join(["%s"] * len(columns))  # %s of a float is its shortest repr
    return "\n".join([",".join(columns), *(line % row for row in rows), ""])


def _indexed_csv(columns, table) -> str:
    """CSV of a 2-D float array, each line its row index and then its cells."""
    return _csv(columns, ((x, *cells) for x, cells in enumerate(table.tolist())))


def probability_csv(table) -> str:
    """CSV in PROBABILITY_COLUMNS of a (d, 6) joint-probability table."""
    return _indexed_csv(PROBABILITY_COLUMNS, np.column_stack([table, postselection(table)]))


def probability_records(table) -> _Records:
    """A (d, 6) joint-probability table as render_json writes it: a dict per row."""
    return _Records(PROBABILITY_COLUMNS[1:], np.column_stack([table, postselection(table)]))


def reconstruction_csv(estimate, truth) -> str:
    """CSV in RECONSTRUCTION_COLUMNS of two complex vectors."""
    table = np.column_stack([estimate.real, estimate.imag, truth.real, truth.imag])
    return _indexed_csv(RECONSTRUCTION_COLUMNS, table)


def sweep_csv(stats) -> str:
    return _csv(SWEEP_COLUMNS, [tuple(getattr(s, name) for name in SWEEP_COLUMNS) for s in stats])


def stats_dict(s) -> dict:
    return {name: getattr(s, name) for name in SWEEP_COLUMNS}


def _array(value, indent: str, out: list) -> None:
    """Append the JSON list of an array to out as one chunk.

    value is a 1-D or 2-D integer or float array, a 1-D complex array (one
    [re, im] pair per entry) or a _Records (one {key: cell} dict per row).
    """
    keys = None
    if isinstance(value, _Records):
        keys, value = value
    if np.iscomplexobj(value):
        value = np.stack([value.real, value.imag], axis=-1)
    if value.ndim not in (1, 2) or value.dtype.kind not in "iuf":
        raise TypeError(f"cannot write a {value.dtype} array of shape {value.shape} as JSON")
    if value.dtype.kind == "f" and not np.isfinite(value).all():
        raise ValueError("Out of range float values are not JSON compliant")
    if len(value) == 0:
        out.append("[]")
        return
    inner, cell = indent + "  ", indent + "    "
    if keys is not None:
        order = sorted(range(len(keys)), key=keys.__getitem__)
        value = value[:, order]
        fields = [cell + json.dumps(keys[i]).replace("%", "%%") + ": %r" for i in order]
        body = "{\n" + ",\n".join(fields) + f"\n{inner}}}" if fields else "{}"
    elif value.ndim == 2:
        fields = [cell + "%r"] * value.shape[1]
        body = "[\n" + ",\n".join(fields) + f"\n{inner}]" if fields else "[]"
    else:
        body = "%r"
    rows = zip(value.tolist()) if value.ndim == 1 else map(tuple, value.tolist())
    rest = f",\n{inner}{body}"
    block = [f"[\n{inner}{body}" % next(rows), *(rest % cells for cells in rows), f"\n{indent}]"]
    out.append("".join(block))  # one string per array, so its many row strings die here


def _encode(value, indent: str, out: list) -> None:
    """Append to out the text of value as json.dumps(indent=2, sort_keys=True) writes it here."""
    if isinstance(value, (np.ndarray, _Records)):
        _array(value, indent, out)
        return
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = [(json.dumps(key) + ": ", value[key]) for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [("", v) for v in value]
        brackets = "[]"
    else:
        out.append(json.dumps(value, allow_nan=False))
        return
    inner = indent + "  "
    separator = brackets[0] + "\n" + inner
    for prefix, item in items:
        out.append(separator + prefix)
        _encode(item, inner, out)
        separator = ",\n" + inner
    out.append("\n" + indent + brackets[1] if items else brackets)


def render_json(doc) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) plus a newline.

    doc is built of dicts with str keys, lists, tuples, str, int, float, bool
    and None, plus arrays (see _array). Non-finite floats raise ValueError.
    The text is joined once from its chunks, so no part of it is copied twice.
    """
    out: list[str] = []
    _encode(doc, "", out)
    out.append("\n")
    return "".join(out)


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
