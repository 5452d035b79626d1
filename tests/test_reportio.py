"""The one-pass report writer against the recursive writer it replaced.

``oracle_dumps`` is the earlier recursive serializer, kept here as the byte
oracle: the writer must produce its bytes for every document it accepts.
The one intended difference is that numpy bool scalars are written as
``true`` / ``false`` instead of being refused.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from rigidity_lab import cli, reportio

TESTS_DIR = Path(__file__).parent
GOLDEN_DIR = TESTS_DIR / "golden"
GOLDENS = sorted(p.name for p in GOLDEN_DIR.glob("*.json"))
CURVE_FILE = str(TESTS_DIR / "data" / "rotation_orbit.json")


# -- the oracle: the recursive writer ---------------------------------------


def _oracle_serialize(obj, pieces, indent, level):
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(reportio.format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for k, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be strings, got {key!r}")
            pieces.append(pad_in + json.dumps(key, ensure_ascii=True) + ": ")
            _oracle_serialize(value, pieces, indent, level + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, np.ndarray):
        _oracle_serialize(obj.tolist(), pieces, indent, level)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for k, value in enumerate(obj):
            pieces.append(pad_in)
            _oracle_serialize(value, pieces, indent, level + 1)
            pieces.append(",\n" if k < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def oracle_dumps(obj) -> str:
    pieces = []
    _oracle_serialize(obj, pieces, indent=2, level=0)
    pieces.append("\n")
    return "".join(pieces)


# -- documents ----------------------------------------------------------------

SPECIAL_FLOATS = [
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
    # where %.17g switches between positional and exponent notation
    1e-4, 9.9999999999999991e-05, 1e-5, 1e16, 9.9999999999999998e16, 1e17,
    # values that need all 17 digits
    0.1, 0.30000000000000004, 1 / 3, 2.0 ** 53 + 2, 123456789.12345679,
]
STRINGS = ["", "\n", "a\nb", "\u2028", "line\u2028sep", "café", "日本", '"q"\\', "\x00\t"]

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
arrays = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64]),
    shape=hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
)
leaves = st.one_of(
    floats,
    st.lists(floats, max_size=6),  # flat float lists take the one-join path
    st.integers(-(2**80), 2**80),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    floats.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.booleans(),
    st.none(),
    st.one_of(st.sampled_from(STRINGS), st.text(max_size=8)),
    arrays,
)
keys = st.one_of(st.sampled_from(STRINGS), st.text(max_size=6))
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=24,
)

FINITE_FLOATS = [x for x in SPECIAL_FLOATS if math.isfinite(x)]
CHUNK = reportio.RECORDS_PER_CHUNK


@st.composite
def records(draw, counts=(1, 2, CHUNK - 1, CHUNK, CHUNK + 1)):
    """A curve-shaped ``Records`` node: a ``t`` and an n x n ``matrix`` per
    record; one or two records, or one chunk of them, one short or one more."""
    count = draw(st.sampled_from(counts), label="count")
    n = draw(st.integers(1, 6), label="n")
    finite = st.one_of(
        st.sampled_from(FINITE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    )
    values = draw(hnp.arrays(np.float64, (count, 1 + n * n), elements=finite), label="values")
    return reportio.Records({"t": values[:, 0], "matrix": values[:, 1:].reshape(count, n, n)})


def plain(doc):
    """The document with every ``Records`` node written out as its list of dicts."""
    if isinstance(doc, reportio.Records):
        return doc.tolist()
    if isinstance(doc, dict):
        return {key: plain(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [plain(value) for value in doc]
    return doc


# -- the writer against the oracle ----------------------------------------------


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_rewrites_to_its_own_bytes(name):
    """A parsed golden report re-serializes to its exact file bytes."""
    raw = (GOLDEN_DIR / name).read_bytes()
    assert reportio.dump_bytes(json.loads(raw)) == raw


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_input_hash_is_sha256_of_oracle_bytes(name):
    doc = json.loads((GOLDEN_DIR / name).read_bytes())
    expected = hashlib.sha256(oracle_dumps(doc["input"]).encode("ascii")).hexdigest()
    assert reportio.input_hash(doc["input"]) == expected == doc["input_hash"]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents)
def test_writer_matches_oracle(doc):
    assert reportio.dump_bytes(doc) == oracle_dumps(doc).encode("ascii")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(documents, records()))
def test_embedded_document_matches_oracle_at_any_depth(doc):
    embedded = reportio.Embedded(doc)
    text = oracle_dumps(plain(doc))
    # depths 1 to 3, then 0
    report = {"input": embedded, "two": {"deep": embedded}, "three": [[embedded]], "tail": embedded}
    expected = {"input": doc, "two": {"deep": doc}, "three": [[doc]], "tail": doc}
    assert reportio.dump_bytes(report).decode("ascii") == oracle_dumps(plain(expected))
    assert reportio.dump_bytes(embedded) == text.encode("ascii")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(documents, records()))
def test_input_hash_is_sha256_of_oracle_bytes(doc):
    expected = hashlib.sha256(oracle_dumps(plain(doc)).encode("ascii")).hexdigest()
    assert reportio.input_hash(doc) == expected
    assert reportio.Embedded(doc).sha256() == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(records(), keys)
def test_records_match_oracle(node, key):
    doc = {key: node, "after": [node, 1.5]}
    assert reportio.dump_bytes(doc) == oracle_dumps(plain(doc)).encode("ascii")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_records_with_non_finite_values_are_written_like_their_list(value):
    mats = np.ones((3, 2, 2))
    mats[1, 0, 1] = value
    node = reportio.Records({"t": [0.0, 1.0, 2.0], "matrix": mats})
    assert reportio.dump_bytes({"r": node}).decode("ascii") == oracle_dumps({"r": node.tolist()})


@pytest.mark.parametrize("shape", [(0, 2, 2), (3, 0, 0), (3, 2, 0), (2, 3)])
def test_records_of_empty_or_other_shapes_match_oracle(shape):
    node = reportio.Records({"%.17g %s": np.zeros(shape[0]), "m": np.full(shape, -0.0)})
    assert reportio.dump_bytes([node]).decode("ascii") == oracle_dumps([node.tolist()])


def test_records_need_fields_of_one_length():
    with pytest.raises(ValueError, match="all of one length"):
        reportio.Records({"t": np.zeros(2), "matrix": np.zeros((3, 1, 1))})
    with pytest.raises(ValueError, match="at least one field"):
        reportio.Records({})


def test_float_list_with_non_finite_values_is_written_element_by_element():
    # -0.0 is written as 0, as JSON reads 0 back
    doc = {"v": [1.5, math.nan, -0.0, math.inf, -math.inf]}
    assert reportio.dump_bytes(doc).decode("ascii") == (
        '{\n  "v": [\n    1.5,\n    "nan",\n    0,\n    "inf",\n    "-inf"\n  ]\n}\n'
    )
    assert reportio.dump_bytes(doc).decode("ascii") == oracle_dumps(doc)


NEGATIVE_ZEROS = {
    "float": -0.0,
    "numpy scalar": np.float64(-0.0),
    "float list": [-0.0, 1.5],
    "mixed list": [-0.0, 1, "x"],
    "array": np.array([[-0.0, 2.0], [0.0, -0.0]]),
    "float32 array": np.full(2, -0.0, dtype=np.float32),
    "records": reportio.Records({"t": [-0.0, 1.0], "matrix": np.full((2, 1, 1), -0.0)}),
}


@pytest.mark.parametrize("name", sorted(NEGATIVE_ZEROS))
def test_negative_zero_is_written_as_zero(name):
    doc = {"x": NEGATIVE_ZEROS[name]}
    for text in (reportio.dump_bytes(doc), reportio.dump_bytes(reportio.Embedded(doc))):
        assert b"-0" not in text
        assert reportio.dump_bytes(json.loads(text)) == text


def test_report_of_negative_zero_input_rewrites_to_its_own_bytes(tmp_path):
    out = tmp_path / "report.json"
    argv = ["certify", "--builtin", "conformal_flat", "--n", "3", "--point=-0,0,0", "--r", "1"]
    assert cli.main([*argv, "--output", str(out)]) == 0
    raw = out.read_bytes()
    doc = json.loads(raw)
    assert doc["input"]["point"] == [0, 0, 0]
    assert reportio.dump_bytes(doc) == raw


def test_numpy_bool_scalars_are_written_as_json_booleans():
    """The one intended difference from the oracle, which refused them."""
    doc = {"flags": [np.True_, np.False_], "array": np.array([True, False])}
    assert reportio.dump_bytes(doc).decode("ascii") == (
        '{\n  "flags": [\n    true,\n    false\n  ],\n'
        '  "array": [\n    true,\n    false\n  ]\n}\n'
    )
    with pytest.raises(TypeError, match="cannot serialize bool"):
        oracle_dumps(doc)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({1: "x"}, "report keys must be strings"),
        ({"a": {"b": [1, {2.5: 0}]}}, "report keys must be strings"),
        ({"a": object()}, "cannot serialize object"),
        ([{1, 2}], "cannot serialize set"),
        (np.array([1 + 2j]), "cannot serialize complex"),
    ],
)
def test_unserializable_documents_raise_like_the_oracle(doc, message):
    with pytest.raises(TypeError, match=message):
        reportio.dump_bytes(doc)
    with pytest.raises(TypeError, match=message):
        oracle_dumps(doc)


# -- call counts through the CLI ------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["symspace", "--curve", CURVE_FILE, "--resample", "33"],
        ["certify", "--builtin", "conformal_flat", "--n", "3", "--point", "0,0,0", "--r", "1"],
    ],
    ids=["symspace", "certify"],
)
def test_input_is_written_once_per_report(argv, tmp_path, monkeypatch):
    """The envelope writes the input once; the report embeds those bytes and
    ``input_hash`` hashes them (re-serializing to hash would make it 2)."""
    inputs = []
    envelope = cli._envelope

    def spy_envelope(args, input_doc, payload):
        inputs.append(input_doc)
        return envelope(args, input_doc, payload)

    visits = []
    write = reportio._write

    def spy_write(obj, out, nl):
        if inputs and obj is inputs[0]:
            visits.append(nl)
        write(obj, out, nl)

    monkeypatch.setattr(cli, "_envelope", spy_envelope)
    monkeypatch.setattr(reportio, "_write", spy_write)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert len(inputs) == 1
    assert len(visits) == 1
    doc = json.loads(out.read_bytes())
    assert doc["input_hash"] == hashlib.sha256(
        oracle_dumps(doc["input"]).encode("ascii")
    ).hexdigest()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--builtin", "conformal_flat", "--n", "3", "--r", "1", "--grid", "3"],
        ["lightlike", "--builtin", "lightcone", "--n", "4", "--point", "0.1,0,0", "--r", "1"],
        ["braid", "--n", "3"],
        ["prolong", "--algebra", "so", "--n", "3", "--max-order", "1"],
        ["symspace", "--curve", CURVE_FILE],
    ],
    ids=lambda argv: argv[0],
)
def test_run_writes_every_report_through_dump_bytes(argv, tmp_path, monkeypatch):
    """``cli.run`` hands each report to ``reportio.dump_bytes`` once, the
    function a tracer wraps to time and count report writing."""
    calls = []
    dump_bytes = reportio.dump_bytes

    def spy(doc, fh=None):
        calls.append(doc["command"])
        return dump_bytes(doc, fh)

    monkeypatch.setattr(reportio, "dump_bytes", spy)
    out = tmp_path / "report.json"
    assert cli.main([*argv, "--output", str(out)]) == 0
    assert calls == [argv[0]]
