"""Canonical report serialization: fixed field order, 17-digit floats, hashes.

Reports must be byte-identical across runs for golden-file regression, so
serialization is done here rather than with the default JSON encoder: dict
insertion order is preserved as the fixed field order, floats are written
with 17 significant digits, -0.0 is written as ``0`` (JSON would read
``-0`` back as the integer 0, so a report would not re-serialize to its own
bytes), and non-finite values are spelled explicitly.

One writer renders every report in a single pass.  It dispatches on the
exact type of each node and falls back to ``isinstance`` only for numpy
scalars and arrays, tuples and subclasses.  A list of Python floats (the
``tolist()`` of a float array among them) is written in one join of
``"%.17g"`` strings; a list that mixes types, or holds NaN or an infinity,
is written element by element through ``format_float``.  A ``Records``
node, a list of records of one shape held as arrays, is written with one
``%`` per chunk of records into a template built once per node, each chunk
converted to Python floats on its own.  A document that a report both
embeds and hashes is written once, as an ``Embedded`` list of text runs of
about ``RUN_CHARS`` characters, hashed run by run, so ``input_hash`` costs
no second pass.

A report is rendered whole before any of it is written, so a node that
cannot be serialized raises before the destination is touched.  Its text
then goes out in runs: each stretch of pieces between embedded documents
is joined once, and each run of an embedded document is re-indented on
its own.  ``dump_bytes`` with a binary sink writes the runs to it one at a
time, so neither the whole text nor its bytes are ever held; without one
it returns the joined bytes.

``input_hash`` is computed by the interpreter's builtin SHA-256 (``_sha2``
on Python 3.12+, ``_sha256`` on 3.10 and 3.11), the same digest as
``hashlib``'s.  Importing ``hashlib`` loads OpenSSL's libcrypto through
``_hashlib``, about 3.6 MB of resident memory in a process that has
imported numpy; ``hashlib`` is the fallback only where that module is
missing.  No run of the package loads OpenSSL, ``numpy.random`` (which
would load it through ``secrets`` -> ``hmac`` -> ``_hashlib``), ``numpy.ma``
or scipy.
The builtin hash costs 4.3 to 7.9 ms per MB against OpenSSL's 0.8 ms per
MB (2-vCPU Xeon VM, Python 3.10 to 3.13).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

try:  # the builtin module; hashlib would load OpenSSL's libcrypto
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:  # an interpreter built without it
        from hashlib import sha256 as _sha256


def format_float(value: float) -> str:
    if value != value:  # NaN
        return '"nan"'
    if value == float("inf"):
        return '"inf"'
    if value == float("-inf"):
        return '"-inf"'
    return format(float(value) + 0.0, ".17g")  # adding 0.0 turns -0.0 into 0.0


#: Records written by one ``%`` of a ``Records`` node.
RECORDS_PER_CHUNK = 256

#: Characters in a run of an ``Embedded`` document's text: a run ends at the
#: first piece that brings it to this size.
RUN_CHARS = 1 << 16


class Embedded:
    """A document written once to canonical text, to embed in a report and hash.

    ``runs`` is the canonical text without its final newline, as a list of
    strings of about ``RUN_CHARS`` characters.  Every newline of canonical
    text is structural (JSON strings escape theirs), so indenting each line
    of each run by the depth the document lands at is exactly the text of
    the document written at that depth.
    """

    __slots__ = ("runs", "_digest")

    def __init__(self, obj):
        pieces = _Pieces()
        _write(obj, pieces, "\n")
        self.runs = list(_runs(pieces, RUN_CHARS))
        digest = _sha256()
        for run in self.runs:
            digest.update(run.encode("ascii"))
        digest.update(b"\n")
        self._digest = digest.hexdigest()

    def sha256(self) -> str:
        """The document's ``input_hash``: the sha256 of its canonical bytes."""
        return self._digest


class _Pieces(list):
    """A document's canonical text as it is rendered: strings, and at the
    indices ``marks`` the pairs ``(Embedded, nl)`` of the documents it embeds."""

    __slots__ = ("marks",)

    def __init__(self):
        super().__init__()
        self.marks = []


class Records:
    """A list of records with the same keys, held as float arrays.

    ``fields`` maps each key, in order, to an array whose first axis runs
    over the records: record k holds ``array[k]`` under each key, written as
    a number or as nested lists.  The node is written exactly as
    :meth:`tolist` would be.
    """

    __slots__ = ("fields", "count")

    def __init__(self, fields: dict):
        self.fields = {key: np.asarray(a, dtype=float) for key, a in fields.items()}
        counts = {len(a) for a in self.fields.values()}
        if len(counts) != 1:
            raise ValueError("records need at least one field, all of one length")
        (self.count,) = counts

    def tolist(self) -> list[dict]:
        """The records as a list of dicts of Python floats and lists."""
        columns = [a.tolist() for a in self.fields.values()]
        return [dict(zip(self.fields, values)) for values in zip(*columns)]


def _write(obj, out: _Pieces, nl: str) -> None:
    """Append the canonical text of ``obj`` to ``out``; ``nl`` is a newline
    followed by the indent of the line that holds ``obj``."""
    cls = type(obj)
    if cls is float:
        text = "%.17g" % (obj + 0.0)
        out.append(format_float(obj) if "n" in text else text)  # a finite .17g has no n
    elif cls is str:
        out.append(_quote(obj))
    elif cls is dict:
        _write_dict(obj, out, nl)
    elif cls is list:
        _write_list(obj, out, nl)
    elif cls is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif cls is bool:
        out.append("true" if obj else "false")
    else:
        _write_other(obj, out, nl)


def _write_dict(obj: dict, out: _Pieces, nl: str) -> None:
    if not obj:
        out.append("{}")
        return
    inner = nl + "  "
    sep = "{" + inner
    for key, value in obj.items():
        if not isinstance(key, str):
            raise TypeError(f"report keys must be strings, got {key!r}")
        out.append(sep + _quote(key) + ": ")
        _write(value, out, inner)
        sep = "," + inner
    out.append(nl + "}")


_FLOATS = {float}


def _write_list(seq, out: _Pieces, nl: str) -> None:
    if not seq:
        out.append("[]")
        return
    inner = nl + "  "
    if set(map(type, seq)) == _FLOATS:
        text = ("," + inner).join(["%.17g" % (x + 0.0) for x in seq])
        if "n" not in text:  # no NaN or infinity
            out.append("[" + inner + text + nl + "]")
            return
    sep = "[" + inner
    for value in seq:
        out.append(sep)
        _write(value, out, inner)
        sep = "," + inner
    out.append(nl + "]")


def _write_other(obj, out: _Pieces, nl: str) -> None:
    """Numpy scalars and arrays, tuples, embedded documents, records and
    subclasses."""
    if isinstance(obj, Embedded):
        out.marks.append(len(out))
        out.append((obj, nl))
    elif isinstance(obj, Records):
        _write_records(obj, out, nl)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, dict):
        _write_dict(obj, out, nl)
    elif isinstance(obj, np.ndarray):
        _write(obj.tolist(), out, nl)
    elif isinstance(obj, (list, tuple)):
        _write_list(obj, out, nl)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def _write_records(obj: Records, out: _Pieces, nl: str) -> None:
    values = np.concatenate(
        [a.reshape(obj.count, math.prod(a.shape[1:])) for a in obj.fields.values()], axis=1
    )
    values += 0.0
    if not values.size or not np.isfinite(values).all():
        # NaN and infinities are written as strings, empty records as []
        _write_list(obj.tolist(), out, nl)
        return
    inner = nl + "  "
    sep = "," + inner
    record = _record_template(obj.fields, inner)
    chunk = sep.join([record] * RECORDS_PER_CHUNK)
    out.append("[" + inner)
    for start in range(0, obj.count, RECORDS_PER_CHUNK):
        part = values[start : start + RECORDS_PER_CHUNK]
        if len(part) < RECORDS_PER_CHUNK:  # the last chunk is shorter
            chunk = sep.join([record] * len(part))
        out.append(chunk % tuple(part.ravel().tolist()))
        out.append(sep)
    out[-1] = nl + "]"


def _record_template(fields: dict, nl: str) -> str:
    """The text of one record on the line ``nl`` starts, with a ``%.17g``
    slot for each value."""
    inner = nl + "  "
    return "{" + inner + ("," + inner).join(
        _quote(key).replace("%", "%%") + ": " + _nested_template(a.shape[1:], inner)
        for key, a in fields.items()
    ) + nl + "}"


def _nested_template(shape: tuple, nl: str) -> str:
    if not shape:
        return "%.17g"
    if not shape[0]:
        return "[]"
    inner = nl + "  "
    item = _nested_template(shape[1:], inner)
    return "[" + inner + ("," + inner).join([item] * shape[0]) + nl + "]"


def _runs(pieces: _Pieces, size: int = 0):
    """The text of ``pieces`` as runs: each stretch of strings between two
    embedded documents joined once, or, given ``size``, into runs that end
    at the first piece that brings them to ``size`` characters; each run of
    an embedded document re-indented on its own.  Each piece is dropped
    from ``pieces`` once joined."""
    start = 0
    for mark in [*pieces.marks, len(pieces)]:
        for stop in _run_ends(pieces, start, mark, size):
            run = pieces[start:stop]
            pieces[start:stop] = [None] * (stop - start)
            yield "".join(run)
            start = stop
        if mark < len(pieces):
            embedded, nl = pieces[mark]
            for text in embedded.runs:
                yield text if nl == "\n" else text.replace("\n", nl)
        start = mark + 1


def _run_ends(pieces: list, start: int, stop: int, size: int) -> list[int]:
    """Where the runs of ``pieces[start:stop]`` end (see :func:`_runs`)."""
    if start == stop:
        return []
    if not size:
        return [stop]
    ends = list(accumulate(map(len, pieces[start:stop]), initial=0))
    cuts, k = [], 0
    while k < stop - start:
        k = min(bisect_left(ends, ends[k] + size, k + 1), stop - start)
        cuts.append(start + k)
    return cuts


def dump_bytes(obj, fh=None) -> bytes:
    """Canonical bytes of a report document.

    The whole document is rendered before any byte is produced, so a node
    that cannot be serialized raises first.  With a binary sink ``fh`` the
    bytes are written to it one run at a time, never joined whole, and
    ``b""`` is returned; without one they are returned.
    """
    pieces = _Pieces()
    _write(obj, pieces, "\n")
    pieces.append("\n")
    if fh is None:
        return b"".join([run.encode("ascii") for run in _runs(pieces)])
    for run in _runs(pieces):
        fh.write(run.encode("ascii"))
    return b""


def input_hash(obj) -> str:
    """Stable content hash of a resolved input document."""
    return Embedded(obj).sha256()
