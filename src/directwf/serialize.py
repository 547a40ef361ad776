"""Flat CSV tables and JSON documents with full-precision round-tripping.

Every float is written as the text float.__repr__ gives it: the shortest
decimal that reads back as the same double, the closest such, in repr's
layout ("nan", "inf" and "-inf" in CSV). Float and int arrays are rendered by
the array kernels of directwf._text, not value by value: each block of rows is
assembled as NUL-padded bytes beside its separators (CSV commas and newlines,
JSON indentation and keys), and its NULs are dropped with bytes.translate.
Arrays appear in a JSON document only as top-level values; every other value
is json.dumps's own text, and the sweep CSV table, whose columns are the
fields of metrics.TrialStatistics, is written with %s. A JSON
document is exactly the bytes of json.dumps(doc, indent=2,
sort_keys=True) plus a newline, and a non-finite float, which JSON cannot
hold, raises ValueError as json.dumps(..., allow_nan=False) does. Writers go
through a sibling temp file that is swapped in for the old file in one step
(or renamed over the path where no swap can be made), so readers never
observe partial output, and no timestamps are embedded: identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import ctypes
import json
import os
import stat
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .metrics import TrialStatistics
from .protocol import postselection
from .states import OUTCOMES

PROBABILITY_COLUMNS = ("x", *(f"p_{o}" for o in OUTCOMES), "p_postselect")
RECONSTRUCTION_COLUMNS = ("x", "re_psi", "im_psi", "re_true", "im_true")

_BLOCK = 2**13  # cells per kernel call: its temporaries peak at 136 B per cell, 1.06 MiB


def _rows(columns, seps) -> list[str]:
    """The lines of a table as str chunks: seps[0], cell, seps[1], ..., cell, seps[-1] per row.

    columns are 2-D int or float arrays with one row per line, whose cells are
    written side by side, each as str or repr renders it. Each block of lines
    is written as NUL-padded bytes, and its NULs are dropped with bytes.translate.
    """
    from . import _text  # here, so that runs writing no array never build its tables

    cells, n = sum(c.shape[1] for c in columns), len(columns[0])
    # Every separator but the last, NUL-padded to one length, sets the fields a
    # fixed stride apart: the kernels write them straight into the lines.
    pad = max(map(len, seps[:-1]), default=0)
    slot = pad + _text.WIDTH
    rows = max(1, min(n, _BLOCK // max(cells, 1)))
    lines = np.zeros((rows, cells * slot + len(seps[-1])), dtype=np.uint8)
    for j, sep in enumerate(seps):
        sep = np.frombuffer(sep.encode("ascii"), dtype=np.uint8)
        lines[:, j * slot : j * slot + len(sep)] = sep
    fields = lines[:, : cells * slot].reshape(rows, cells, slot)[..., pad:]
    chunks = []
    for start in range(0, n, rows):
        block, at = min(rows, n - start), 0
        for c in columns:
            _text.write(c[start : start + block], fields[:block, at : at + c.shape[1]])
            at += c.shape[1]
        chunks.append(lines[:block].tobytes().translate(None, b"\0").decode("ascii"))
    return chunks


class _Records(NamedTuple):
    """A 2-D float array written to JSON as one {key: cell} dict per row."""
    keys: tuple[str, ...]
    rows: np.ndarray


def _indexed_csv(columns, table) -> str:
    """CSV of a 2-D float array, each line its row index and then its cells."""
    seps = ["", *[","] * table.shape[1], "\n"]
    lines = _rows([np.arange(len(table))[:, None], table], seps)
    return "".join([",".join(columns) + "\n", *lines])


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
    """CSV of metrics.TrialStatistics rows, one column per field in field order."""
    line = ",".join(["%s"] * len(TrialStatistics._fields))  # %s of a float is its shortest repr
    return "\n".join([",".join(TrialStatistics._fields), *(line % s for s in stats), ""])


def _array(value, out: list) -> None:
    """Append to out, in chunks, the JSON list of an array at a top-level entry.

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
    if value.ndim == 1:
        value, seps = value[:, None], ["    ", ",\n"]
    else:
        if keys is None:
            labels, (opening, closing) = [""] * value.shape[1], "[]"
        else:
            order = sorted(range(len(keys)), key=keys.__getitem__)
            value = value[:, order]
            labels, (opening, closing) = [json.dumps(keys[i]) + ": " for i in order], "{}"
        if labels:
            seps = [
                f"    {opening}\n      {labels[0]}",
                *(f",\n      {label}" for label in labels[1:]),
                f"\n    {closing},\n",
            ]
        else:
            seps = [f"    {opening}{closing},\n"]
    chunks = _rows([value], seps)
    chunks[-1] = chunks[-1][:-2]  # every row but the last ends in ",\n"
    out += ["[\n", *chunks, "\n  ]"]


def render_json(doc: dict) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) plus a newline.

    doc is a dict with str keys. A value that is an array (see _array) is
    written by the array kernels; every other value is json.dumps's own text,
    indented one level, so an array below the top level raises its TypeError.
    json.dumps escapes a newline inside a string, so each newline it writes is
    layout. Non-finite floats raise ValueError. The text is joined once from
    its chunks, so no part of it is copied twice.
    """
    if not isinstance(doc, dict) or not all(isinstance(key, str) for key in doc):
        raise TypeError("a JSON document must be a dict with str keys")
    out, separator = [], "{\n  "
    for key, value in sorted(doc.items()):  # keys are unique: values are never compared
        out.append(separator + json.dumps(key) + ": ")
        if isinstance(value, (np.ndarray, _Records)):
            _array(value, out)
        else:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            out.append(text.replace("\n", "\n  "))
        separator = ",\n  "
    out.append("\n}\n" if doc else "{}\n")
    return "".join(out)


def _libc_renameat2():
    """libc's renameat2 through ctypes, or None off Linux or where libc has none."""
    if sys.platform != "linux":
        return None
    try:
        call = ctypes.CDLL(None, use_errno=True).renameat2
    except (OSError, AttributeError):
        return None
    call.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint)
    call.restype = ctypes.c_int
    return call


_renameat2 = _libc_renameat2()
_AT_FDCWD, _RENAME_EXCHANGE = -100, 2  # <fcntl.h>, <linux/fs.h>


def _swap(a: bytes, b: bytes) -> None:
    """Exchange the entries at two paths in one step; OSError if they stay where they are."""
    if _renameat2(_AT_FDCWD, a, _AT_FDCWD, b, _RENAME_EXCHANGE):
        code = ctypes.get_errno()
        raise OSError(code, os.strerror(code))


def _exchange(tmp: Path, path: Path) -> bool:
    """Swap the file at tmp in for the regular file at path, and unlink the old one.

    Returns False, with both entries where they were, when there is no
    renameat2, when path is not a regular file or when the swap fails (EINVAL
    on a file system that cannot exchange, for one).
    """
    names = os.fsencode(tmp), os.fsencode(path)
    try:
        if _renameat2 is None or not stat.S_ISREG(os.lstat(path).st_mode):
            return False
        _swap(*names)
    except OSError:
        return False
    if not stat.S_ISREG(os.lstat(tmp).st_mode):
        _swap(*names)  # path changed after the lstat: put back what was there
        return False
    os.unlink(tmp)
    return True


def atomic_write_text(path, text: str) -> None:
    """Write UTF-8 text with LF endings through a temp file swapped in for path.

    The temp file, <name>.<16 hex digits>.tmp beside path, is created
    exclusively, so a name already taken fails the write and is left alone.
    A failure to create it raises an OSError of the same errno that names
    path, not the temp file.
    It gets mode 0o666 less the umask, as any file open() creates does.

    A reader of path finds the old bytes or the new ones, never a partial
    file or none. When path is a regular file, the temp file is exchanged
    with it in one renameat2(RENAME_EXCHANGE) call and the temp name, which
    then holds the old file, is unlinked. In every other case (no renameat2,
    no entry at path, an entry that is not a regular file, or a failed
    exchange) the temp file is renamed over path with os.replace. The
    exchange is there for ext4: renaming over an existing file makes it start
    writeback of the new one (auto_da_alloc) and wait, so each overwrite
    blocked once. On a 2-vCPU ext4 host a 216 kB overwrite took 0.54-0.68 ms
    p50 and one voluntary context switch by rename, and 0.25-0.26 ms and none
    by exchange. An exchange starts no writeback, and the old file's
    unwritten pages are dropped with it.
    Neither path calls fsync, so nothing here survives a power loss by
    promise: after a crash within the writeback interval, an overwritten
    output on ext4 can be empty, where the rename heuristic would have kept
    the new bytes. Every output is reproducible from its argv and seed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        # named by path, as the random temp name differs on every run
        reason = f"cannot create a temporary file beside {str(path)!r}: {exc.strerror}"
        raise OSError(exc.errno, reason) from None
    try:
        with fh:
            fh.write(text)
        if not _exchange(tmp, path):
            os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
