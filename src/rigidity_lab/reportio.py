"""Canonical report serialization: fixed field order, 17-digit floats, hashes.

Reports must be byte-identical across runs for golden-file regression, so
serialization is done here rather than with the default JSON encoder: dict
insertion order is preserved as the fixed field order, floats are written
with 17 significant digits, and non-finite values are spelled explicitly.

One writer produces every report in a single pass.  It dispatches on the
exact type of each node and falls back to ``isinstance`` only for numpy
scalars and arrays, tuples and subclasses.  A list of Python floats (the
``tolist()`` of a float array among them) is written in one join of
``"%.17g"`` strings; a list that mixes types, or holds NaN or an infinity,
is written element by element through ``format_float``.  A document that a
report both embeds and hashes is written once, as an ``Embedded`` text that
the writer splices in re-indented, so ``input_hash`` costs no second pass.

``input_hash`` is computed by the interpreter's builtin SHA-256 (``_sha2``
on Python 3.12+, ``_sha256`` on 3.10 and 3.11), the same digest as
``hashlib``'s.  Importing ``hashlib`` loads OpenSSL's libcrypto through
``_hashlib``, about 3.6 MB of resident memory in a process that has
imported numpy; ``hashlib`` is the fallback only where that module is
missing.  No run of the package loads OpenSSL, ``numpy.random`` (which
would load it through ``secrets`` -> ``hmac`` -> ``_hashlib``) or scipy.
The builtin hash costs 4.3 to 7.9 ms per MB against OpenSSL's 0.8 ms per
MB (2-vCPU Xeon VM, Python 3.10 to 3.13).
"""

from __future__ import annotations

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
    return format(float(value), ".17g")


class Embedded:
    """A document written once to canonical text, to embed in a report and hash.

    Every newline of canonical text is structural (JSON strings escape
    theirs), so indenting each line of ``text`` by the depth it lands at is
    exactly the text of the document written at that depth.
    """

    __slots__ = ("text",)

    def __init__(self, obj):
        self.text = dumps(obj)

    def sha256(self) -> str:
        """The document's ``input_hash``: the sha256 of its canonical bytes."""
        return _sha256(self.text.encode("ascii")).hexdigest()


def _write(obj, out: list[str], nl: str) -> None:
    """Append the canonical text of ``obj`` to ``out``; ``nl`` is a newline
    followed by the indent of the line that holds ``obj``."""
    cls = type(obj)
    if cls is float:
        text = "%.17g" % obj
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
        text = ("," + inner).join(["%.17g" % x for x in seq])
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
    """Numpy scalars and arrays, tuples, embedded documents and subclasses."""
    if isinstance(obj, Embedded):
        out.append(obj.text[:-1].replace("\n", nl))
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


def dumps(obj) -> str:
    """Canonical text form of a report document."""
    out: list[str] = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def dump_bytes(obj) -> bytes:
    return dumps(obj).encode("ascii")


def input_hash(obj) -> str:
    """Stable content hash of a resolved input document."""
    return Embedded(obj).sha256()
