"""Canonical report serialization: fixed field order, 17-digit floats, hashes.

Reports must be byte-identical across runs for golden-file regression, so
serialization is done here rather than with the default JSON encoder: dict
insertion order is preserved as the fixed field order, floats are written
with 17 significant digits, -0.0 is written as ``0`` (JSON would read
``-0`` back as the integer 0, so a report would not re-serialize to its own
bytes), and non-finite values are spelled explicitly.

One writer produces every report in a single pass.  It dispatches on the
exact type of each node and falls back to ``isinstance`` only for numpy
scalars and arrays, tuples and subclasses.  A list of Python floats (the
``tolist()`` of a float array among them) is written in one join of
``"%.17g"`` strings; a list that mixes types, or holds NaN or an infinity,
is written element by element through ``format_float``.  A ``Records``
node, a list of records of one shape held as arrays, is written with one
``%`` per chunk of records into a template built once per node.  A
document that a report both embeds and hashes is written once, as an
``Embedded`` string hashed once and appended re-indented, so ``input_hash``
costs no second pass.  A report's text is joined once, then encoded once.

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


class Embedded:
    """A document written once to canonical text, to embed in a report and hash.

    ``text`` is the canonical text without its final newline.  Every
    newline of canonical text is structural (JSON strings escape theirs),
    so indenting each line by the depth the document lands at is exactly
    the text of the document written at that depth.
    """

    __slots__ = ("text", "_digest")

    def __init__(self, obj):
        self.text = _text(obj)
        digest = _sha256(self.text.encode("ascii"))
        digest.update(b"\n")
        self._digest = digest.hexdigest()

    def sha256(self) -> str:
        """The document's ``input_hash``: the sha256 of its canonical bytes."""
        return self._digest


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


def _write(obj, out: list[str], nl: str) -> None:
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


def _write_dict(obj: dict, out: list[str], nl: str) -> None:
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


def _write_list(seq, out: list[str], nl: str) -> None:
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


def _write_other(obj, out: list[str], nl: str) -> None:
    """Numpy scalars and arrays, tuples, embedded documents, records and
    subclasses."""
    if isinstance(obj, Embedded):
        out.append(obj.text if nl == "\n" else obj.text.replace("\n", nl))
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


def _write_records(obj: Records, out: list[str], nl: str) -> None:
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
    width = values.shape[1]
    step = RECORDS_PER_CHUNK * width
    chunk = sep.join([record] * RECORDS_PER_CHUNK)
    flat = values.ravel().tolist()
    out.append("[" + inner)
    for start in range(0, len(flat), step):
        part = flat[start : start + step]
        if len(part) < step:  # the last chunk is shorter
            chunk = sep.join([record] * (len(part) // width))
        out.append(chunk % tuple(part))
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


def _text(obj, end: str = "") -> str:
    """The canonical text of ``obj`` followed by ``end``; its pieces are freed
    on return, before the caller encodes the text."""
    pieces = []
    _write(obj, pieces, "\n")
    pieces.append(end)
    return "".join(pieces)


def dump_bytes(obj) -> bytes:
    """Canonical bytes of a report document."""
    return _text(obj, "\n").encode("ascii")


def input_hash(obj) -> str:
    """Stable content hash of a resolved input document."""
    return Embedded(obj).sha256()
