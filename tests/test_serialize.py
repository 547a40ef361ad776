"""The array writers against float.__repr__, str, the per-value renderers and json.dumps.

Comparing text, not parsed values, is the point: a wrong digit, key order,
indent depth or separator must fail here even where the golden test, which
allows 1e-12 on exact floats, would pass.
"""

import math
import sys
import tracemalloc
from collections import Counter
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from directwf import _text, serialize
from directwf.cli import build_state
from directwf.metrics import TrialStatistics
from directwf.protocol import CouplingStrength, joint_probabilities
from directwf.reconstruction import phase_convention, reconstruct_exact
from oracles import (
    complex_pairs,
    dump_json,
    probability_dicts,
    probability_rows,
    reconstruction_rows,
    render_csv,
)

DIMS = (0, 1, 2, 3, 4, 1000)
EDGE_FLOATS = (0.0, -0.0, 5e-324, 1e-5, 9.999e-5, 1e16, 1.7976931348623157e308)
CONFIG = {
    "dim": 4,
    "state": "gaussian:1.0",
    "theta": [0.1, math.pi / 2],
    "shots": "exact",
    "trials": 100,
    "seed": 0,
    "note": None,
    "flags": {"sampled": False, "csv": True},
    "empty": {"list": [], "dict": {}},
}


def edgy(rng, shape) -> np.ndarray:
    """Floats of every sign and of magnitudes 1e-30 to 1e30, each edge float placed once."""
    size = int(np.prod(shape))
    flat = rng.standard_normal(size) * 10.0 ** rng.integers(-30, 30, size)
    k = min(len(EDGE_FLOATS), size)
    flat[rng.permutation(size)[:k]] = rng.permutation(EDGE_FLOATS)[:k]
    return flat.reshape(shape)


def big_shots(rng, n) -> np.ndarray:
    """Shot counts on both sides of 2**53, up to 2**63 - 1."""
    shots = rng.integers(1, 2**62, n, dtype=np.int64) + rng.integers(0, 2**62, n, dtype=np.int64)
    shots[: min(n, 3)] = [2**53 + 1, 2**63 - 1, 1][: min(n, 3)]
    return shots


def first_difference(written: str, wanted: str):
    """None for equal texts, else their first differing lines as (written, wanted).

    A short report: pytest's own diff of two multi-megabyte strings takes minutes.
    """
    if written == wanted:
        return None
    lines = zip_longest(written.split("\n"), wanted.split("\n"))
    return next((w, v) for w, v in lines if w != v)


def kernel_mismatches(values) -> list[tuple[str, str]]:
    """(wanted, written) for the first values whose text differs from repr or str."""
    values = np.asarray(values)
    written = "".join(serialize._rows([values[:, None]], ["", "\n"])).split("\n")[:-1]
    wanted = [repr(v) if isinstance(v, float) else str(v) for v in values.tolist()]
    assert len(written) == len(wanted)
    return [(w, g) for w, g in zip(wanted, written) if w != g][:10]


def with_neighbours(values) -> list[float]:
    steps = (-math.inf, None, math.inf)
    return [v if to is None else math.nextafter(v, to) for v in values for to in steps]


KERNEL_EDGES = with_neighbours(
    [
        0.0,
        5e-324,
        1e-323,
        1.5e-323,
        sys.float_info.min,  # the smallest normal; its predecessor is the largest subnormal
        sys.float_info.max,
        *(2.0**k for k in range(-1074, 1024)),
        *(10.0**k for k in range(-323, 309)),
        1e-4,
        1e-5,
        1e16,
        9999999999999998.0,
        *(float(2**53 + i) for i in range(-4, 5)),
        # short decimals of every digit count, led by 1 (f of 17 digits) or by 9
        # (16), in both notations and near both ends of the doubles
        *(
            float(f"{s[0]}.{s[1:n]}e{e}")
            for s in ("12345678912345678", "98765432198765432")
            for n in range(1, 18)
            for e in (*range(-8, 21), *range(-323, -300), *range(290, 308))
        ),
    ]
)


def test_kernel_matches_repr_on_edges():
    values = np.array(KERNEL_EDGES + [-v for v in KERNEL_EDGES] + [math.nan, math.inf, -math.inf])
    assert kernel_mismatches(values) == []


def test_kernel_edges_reach_every_branch():
    # _float_fields reads the digit count of f off its size when f has 16 or 17
    # digits and searches it otherwise (subnormals); it reads trailing
    # zeros off the last four of the 17 digits and searches further left when
    # all four are zeros, that is for 13 significant digits or fewer
    values = np.array(KERNEL_EDGES)
    f = _text._shortest(values.view(np.uint64))[0].tolist()
    length = [len(str(n)) if 10**15 <= n < 10**17 else 0 for n in f]
    mantissas = (repr(abs(v)).split("e")[0] for v in KERNEL_EDGES)
    significant = [len(m.replace(".", "").strip("0")) for m in mantissas]
    counts = Counter(length)
    counts.update(("table" if n > 13 else "argmax") for n in significant)
    assert min(counts[k] for k in (0, 16, 17, "table", "argmax")) >= 500, counts


class NumpyWithoutFallbacks:
    """numpy for _text, except that the digit-count search and the trailing-zero scan raise."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def searchsorted(*args, **kwargs):
        raise AssertionError("np.searchsorted called")

    @staticmethod
    def argmax(*args, **kwargs):
        raise AssertionError("np.argmax called")


SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan)


def test_zeros_take_neither_fallback(monkeypatch):
    # zeros, infs and nans take stand-in exponents whose fields are their whole
    # text, so a block of 17-digit values and special values of both signs
    # never searches for a digit count or scans for zeros
    rng = np.random.default_rng(17)
    seventeen = [v for v in (1.0 + rng.random(4096)).tolist() if len(repr(v)) == 18][:1024]
    values = np.zeros(2 * len(seventeen))
    values[::2] = seventeen
    values[1::2] = np.resize(SPECIAL_FLOATS, len(seventeen))
    assert np.signbit(values[1:12:2]).tolist() == [False, True] * 3
    monkeypatch.setattr(_text, "np", NumpyWithoutFallbacks())
    assert kernel_mismatches(values) == []


def test_special_floats_alone_match_repr(monkeypatch):
    monkeypatch.setattr(_text, "np", NumpyWithoutFallbacks())
    assert kernel_mismatches(np.array(SPECIAL_FLOATS)) == []


def test_kernel_matches_repr_on_small_subnormals():
    assert kernel_mismatches(np.arange(2**12, dtype=np.uint64).view(np.float64)) == []


def test_kernel_matches_repr_on_random_bit_patterns():
    bits = np.random.default_rng(2020).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert kernel_mismatches(bits.view(np.float64)) == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), min_size=1, max_size=40))
def test_kernel_matches_repr_on_hypothesis_floats(values):
    assert kernel_mismatches(np.array(values, dtype=np.float64)) == []


def test_int_text_matches_str():
    rng = np.random.default_rng(2021)
    extremes = [0, 1, -1, 9, 10, -10, 10**18, -(10**18), 2**53 + 1, 2**63 - 1, -(2**63)]
    signed = np.concatenate([rng.integers(-(2**63), 2**63, 10_000), extremes])
    unsigned = np.array([0, 9, 10, 10**19 - 1, 10**19, 2**63, 2**64 - 1], dtype=np.uint64)
    for values in (signed, unsigned, np.arange(256, dtype=np.uint8)):
        assert kernel_mismatches(values) == []


# Tables of the protocol that mix repr's notations: exact 0.0 and 1.0 (a basis
# state), probabilities below 1e-4 and subnormal ones (narrow gaussians), and
# the d = 2048 random states of the benchmark.
PROTOCOL_STATES = [
    (16, "basis:3"),
    (64, "gaussian:0.7"),
    (64, "gaussian:0.4"),
    (2048, "random:2024"),
    (2048, "random:2025"),
]


def protocol_tables(d, spec):
    """The exact table, an estimate holding negative zeros, and the truth, of one state."""
    psi = build_state(d, spec)
    strength = CouplingStrength(math.pi / 2)
    estimate = reconstruct_exact(psi, strength).estimate.amplitudes.copy()
    estimate.real[1::5] = -0.0
    estimate.imag[::3] = -0.0
    return joint_probabilities(psi, strength), estimate, phase_convention(psi.amplitudes)


@pytest.mark.parametrize("d, spec", PROTOCOL_STATES)
def test_writers_match_oracle_on_protocol_tables(d, spec):
    table, estimate, truth = protocol_tables(d, spec)
    assert first_difference(
        serialize.probability_csv(table),
        render_csv(serialize.PROBABILITY_COLUMNS, probability_rows(table)),
    ) is None
    assert first_difference(
        serialize.reconstruction_csv(estimate, truth),
        render_csv(serialize.RECONSTRUCTION_COLUMNS, reconstruction_rows(estimate, truth)),
    ) is None
    doc = {"exact": serialize.probability_records(table), "estimate": estimate, "truth": truth}
    want = {
        "exact": probability_dicts(table),
        "estimate": complex_pairs(estimate),
        "truth": complex_pairs(truth),
    }
    assert first_difference(serialize.render_json(doc), dump_json(want)) is None


def test_protocol_tables_mix_notations():
    cells = []
    for d, spec in PROTOCOL_STATES:
        table, estimate, truth = protocol_tables(d, spec)
        cells += [table.ravel(), estimate.view(np.float64), truth.view(np.float64)]
    cells = np.concatenate(cells)
    tiny = (cells != 0) & (np.abs(cells) < sys.float_info.min)
    assert tiny.any() and ((cells != 0) & (np.abs(cells) < 1e-4)).any()
    assert (cells == 1.0).any() and (cells == 0.0).any()
    assert (np.signbit(cells) & (cells == 0)).any()


@pytest.mark.parametrize("d", DIMS)
def test_probability_writers_match_oracle(d):
    rng = np.random.default_rng(d)
    exact, sampled = edgy(rng, (d, 6)), edgy(rng, (d, 6))
    assert first_difference(
        serialize.probability_csv(exact),
        render_csv(serialize.PROBABILITY_COLUMNS, probability_rows(exact)),
    ) is None
    doc = {
        "command": "simulate",
        "config": CONFIG,
        "exact": serialize.probability_records(exact),
        "sampled": serialize.probability_records(sampled),
    }
    want = dump_json(
        {**doc, "exact": probability_dicts(exact), "sampled": probability_dicts(sampled)}
    )
    assert first_difference(serialize.render_json(doc), want) is None


@pytest.mark.parametrize("d", DIMS)
def test_reconstruction_writers_match_oracle(d):
    rng = np.random.default_rng(100 + d)
    estimate = edgy(rng, (d,)) + 1j * edgy(rng, (d,))
    truth = edgy(rng, (d,)) + 1j * edgy(rng, (d,))
    shots = big_shots(rng, 3 * d)
    assert first_difference(
        serialize.reconstruction_csv(estimate, truth),
        render_csv(serialize.RECONSTRUCTION_COLUMNS, reconstruction_rows(estimate, truth)),
    ) is None
    doc = {
        "command": "reconstruct",
        "config": CONFIG,
        "fidelity": 0.5,
        "estimate": estimate,
        "truth": truth,
        "shots_used": shots,
    }
    want = {
        **doc,
        "estimate": complex_pairs(estimate),
        "truth": complex_pairs(truth),
        "shots_used": shots.tolist(),
    }
    assert first_difference(serialize.render_json(doc), dump_json(want)) is None


def test_sweep_writers_match_oracle():
    rng = np.random.default_rng(7)
    stats = [
        TrialStatistics(
            float(theta), shots, 200, int(rng.integers(0, 3)), *map(float, edgy(rng, (5,)))
        )
        for theta, shots in zip(edgy(rng, (4,)), ("exact", 300000, 2**63 - 1, 1))
    ]
    assert serialize.sweep_csv(stats) == render_csv(TrialStatistics._fields, stats)
    results = [s._asdict() for s in stats]
    doc = {"command": "sweep", "config": CONFIG, "results": results}
    assert serialize.render_json(doc) == dump_json(doc)


def block_outputs(d):
    """A writer of every array shape at one d: CSV tables, records, complex pairs and ints.

    The CSV table also holds nan, inf and -inf, which JSON refuses.
    """
    rng = np.random.default_rng(300 + d)
    table = edgy(rng, (d, 6))
    with_specials = table.copy()
    with_specials.ravel()[-3:] = [math.nan, math.inf, -math.inf]
    estimate = edgy(rng, (d,)) + 1j * edgy(rng, (d,))
    truth = edgy(rng, (d,)) + 1j * edgy(rng, (d,))
    doc = {
        "exact": serialize.probability_records(table),
        "estimate": estimate,
        "truth": truth,
        "shots_used": big_shots(rng, 3 * d),
    }
    return lambda: (
        serialize.probability_csv(with_specials),
        serialize.reconstruction_csv(estimate, truth),
        serialize.render_json(doc),
    )


@pytest.mark.parametrize("d", (2, 3, 2048))
def test_block_size_moves_no_byte(d, monkeypatch):
    write = block_outputs(d)
    wanted = write()
    for block in (1, 7, 2**11, serialize._BLOCK, 2**20):
        monkeypatch.setattr(serialize, "_BLOCK", block)
        assert write() == wanted, f"_BLOCK = {block}"


def test_kernel_peak_per_cell_is_as_stated():
    # the figure in the comment on serialize._BLOCK: one block of floats of
    # every notation, nan among them, written into a buffer of its own
    n = serialize._BLOCK
    cells = edgy(np.random.default_rng(9), (n, 1))
    cells[::97] = math.nan
    out = np.empty((n, 1, _text.WIDTH), dtype=np.uint8)
    _text.write(cells, out)
    tracemalloc.start()
    try:
        _text.write(cells, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 136 * n


@pytest.mark.parametrize(
    "array",
    [
        np.zeros(0),
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        np.zeros(0, dtype=complex),
        np.array(EDGE_FLOATS),
        np.array([[1, -2, 3], [2**62, 0, -(2**63)]]),
        np.arange(5, dtype=np.uint8),
    ],
    ids=["empty", "empty_rows", "empty_cells", "empty_complex", "edge_floats", "ints", "uint8"],
)
def test_arrays_match_json_dumps(array):
    value = complex_pairs(array) if np.iscomplexobj(array) else array.tolist()
    for doc in ({"a": array}, {"a": 0.5, "b": array, "c": {"d": [1, "x"]}}):
        plain = {key: value if v is array else v for key, v in doc.items()}
        assert serialize.render_json(doc) == dump_json(plain)


def test_record_keys_are_sorted_and_escaped():
    keys = ("b%s", 'a"%%', "B", "é")
    rows = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]])
    got = serialize.render_json({"t": serialize._Records(keys, rows)})
    assert got == dump_json({"t": [dict(zip(keys, row)) for row in rows.tolist()]})


json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(EDGE_FLOATS)
    | st.text(max_size=8)
)
json_docs = st.recursive(
    json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(max_size=6), json_docs, max_size=4))
def test_small_documents_match_json_dumps(doc):
    assert serialize.render_json(doc) == dump_json(doc)


def test_reindent_never_touches_string_contents():
    # json.dumps escapes these inside strings, so each newline it writes is layout
    tricky = "a\n b\r\n  é "
    doc = {
        tricky: tricky,
        "nested": [tricky, {tricky: [tricky, " \n"]}],
        "x": np.array([0.5, -1.0]),
    }
    assert serialize.render_json(doc) == dump_json({**doc, "x": [0.5, -1.0]})


def test_tuples_and_float_subclasses_match_json_dumps():
    doc = {"theta": (0.1, np.float64(0.2)), "nested": ((), ({},)), "ok": True}
    assert serialize.render_json(doc) == dump_json(doc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda v: {"fidelity": v},
        lambda v: {"theta": [0.1, v]},
        lambda v: {"x": np.array([0.5, v])},
        lambda v: {"estimate": np.array([0.5 + 0j, complex(0.5, v)])},
        lambda v: {"exact": serialize.probability_records(np.full((2, 6), v))},
    ],
    ids=["scalar", "list", "array", "complex", "records"],
)
def test_non_finite_floats_are_refused(bad, wrap):
    with pytest.raises(ValueError, match="not JSON compliant"):
        serialize.render_json(wrap(bad))


@pytest.mark.parametrize(
    "doc",
    [
        {1: "int key"},
        {2.5: 0},
        {"a": np.array(["s"])},
        {"a": np.zeros((2, 2, 2))},
        {"a": {1, 2}},
        {"a": [np.zeros(2)]},
        {"a": {"b": np.zeros(2)}},
        {"a": [serialize.probability_records(np.zeros((1, 6)))]},
        [1, 2],
        np.zeros(2),
        None,
    ],
    ids=[
        "int_key",
        "float_key",
        "str_array",
        "3d_array",
        "set",
        "array_in_list",
        "array_in_dict",
        "records_in_list",
        "list_document",
        "array_document",
        "none_document",
    ],
)
def test_unsupported_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        serialize.render_json(doc)


@pytest.mark.parametrize("command", ["reconstruct", "simulate"])
def test_render_json_joins_its_text_once(command):
    # the text and its chunks, each about len(text) bytes, are all a call holds
    # at its peak; joining an array block into a string of its own first holds
    # one more copy of that block
    d = 2**14
    rng = np.random.default_rng(11)
    if command == "reconstruct":
        doc = {
            "estimate": rng.standard_normal(d) + 1j * rng.standard_normal(d),
            "truth": rng.standard_normal(d) + 1j * rng.standard_normal(d),
            "shots_used": big_shots(rng, 3 * d),
        }
    else:
        doc = {"exact": serialize.probability_records(rng.random((d, 6)))}
    serialize.render_json(doc)  # the first call builds the kernel tables
    tracemalloc.start()
    try:
        text = serialize.render_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * len(text), peak / len(text)
